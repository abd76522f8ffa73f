"""Quadtree matrices with hierarchically cached Frobenius norms.

A matrix is stored over a zero-padded square whose side is
``leaf_size * 2**depth``, cut into ``nb x nb`` leaf blocks
(``nb = 2**depth``).  Only the nonzero leaf blocks are stored, in two
arrays:

* ``_keys``: the sorted row-major block keys ``i * nb + j``;
* ``_stack``: one read-only, C-contiguous ``(m, leaf_size, leaf_size)``
  stack of those blocks, in key order.

Every tier of the tree caches the *squared* Frobenius norm and the
occupancy of each of its nodes in a dense pyramid (``_norm_sq[k]`` and
``_occupied[k]``, shape ``(2**k, 2**k)``), so norms aggregate exactly
additively up the tree; square roots are taken only when a norm is
actually compared or reported.  An ``(nb, nb)`` index maps each block to
its stack row for the multiply's gathers.  Exactly zero submatrices are
unoccupied nodes, which short-circuit all arithmetic.

Canonical form: a stored block has at least one nonzero element.  There is
one construction path: it takes keys and a stack, drops the blocks that
are all zero (including blocks of -0.0), and sums norms in one order that a
matrix and its transpose share: a block's diagonal squares, then its mirrored
pairs; a node's children as (11 + 22) + (12 + 21).  So a block's norm has the
same bits whichever operation produced it, and on a tree flagged ``symmetric``
(equal to its transpose bit for bit) each norm has its mirror's.

Cost model: a derived tree (a product, sum, scaling or filtered tree) costs
O(stored blocks) in block data plus O(nb**2) for the pyramids and the
index; no operation on trees allocates an n x n array.  Dense values
move in and out of trees only through row strips of bounded size, the
O(n**2) steps: ``_row_strips`` is the bounded way out of a tree (which
``to_dense``, the only writer of a tree's dense array, and the
purification driver read), and ``_from_row_strips`` the bounded way in
(which ``from_dense`` and the purification driver's initial guess feed).

Trees are immutable after construction and may be shared freely between
operations; every operation returns a new tree (or the same object when the
result is provably identical).
"""

from __future__ import annotations

import math

import numpy as np

# The one cap, in float64 elements (512 KiB), on the scratch of every
# bounded pass, read when the pass runs: the row strips into and out of
# trees, and the multiply's whole-subcube batches and merge slices.
_SCRATCH_ELEMENTS = 1 << 16


class DimensionMismatchError(ValueError):
    """Raised for unusable matrix dimensions: non-square input, or two
    trees that are not conformable for an operation."""


def _check_tau(tau):
    """Reject a truncation threshold that is negative or not finite."""
    if not math.isfinite(tau) or tau < 0:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")


def _leaf_norm_sq(blocks):
    """Squared Frobenius norm of each block of an (m, b, b) stack:
    its diagonal squares in order, then each mirrored pair ``sq[r, c] +
    sq[c, r]`` (r < c, row-major), so a block and its transpose give the same
    bits.  A block's sum depends on that block alone, not on its stack."""
    b = blocks.shape[-1]
    sq = np.square(blocks).reshape(-1, b * b)
    acc = sq[:, 0].copy()
    for d in range(1, b):
        acc += sq[:, d * (b + 1)]
    for r in range(b):
        for c in range(r + 1, b):
            acc += sq[:, r * b + c] + sq[:, c * b + r]
    return acc


def _aggregate_norm_sq(fine):
    """One tier of norm aggregation: children summed as (11 + 22) + (12 + 21)."""
    return (fine[0::2, 0::2] + fine[1::2, 1::2]) + (fine[0::2, 1::2] + fine[1::2, 0::2])


def _depth_for(logical_dim, leaf_size):
    """Smallest depth with leaf_size * 2**depth >= logical_dim."""
    depth = 0
    while leaf_size << depth < logical_dim:
        depth += 1
    return depth


class QuadTreeMatrix:
    """Immutable quadtree representation of a square matrix.

    Attributes
    ----------
    logical_dim : int
        The represented matrix is logical_dim x logical_dim.
    leaf_size : int
        Side of dense leaf blocks (a power of two).
    depth : int
        Number of tiers below the root; leaves live at tier ``depth``.
    padded_dim : int
        ``leaf_size * 2**depth``, the smallest such value >= logical_dim.
    dtype : numpy dtype
        Element storage precision, always float64.
    """

    __slots__ = ("logical_dim", "leaf_size", "depth", "padded_dim", "dtype",
                 "_keys", "_stack", "_index", "_norm_sq", "_occupied", "_symmetric")

    def __init__(self, keys, stack, logical_dim, leaf_size, symmetric, _internal=False):
        if not _internal:
            raise TypeError("use from_dense() to construct a QuadTreeMatrix")
        # ``keys`` are strictly increasing row-major block keys and ``stack``
        # the C-contiguous (m, b, b) blocks in that order, owned by the tree.
        depth = _depth_for(logical_dim, leaf_size)
        nb = 1 << depth
        # A block with a positive squared norm holds a nonzero, so only the
        # blocks whose squares sum to 0 (or underflow to it) are tested.
        # Squares of finite entries near 1e308 give inf norms, silently.
        with np.errstate(over="ignore"):
            norms = _leaf_norm_sq(stack)
        maybe = np.flatnonzero(norms == 0)
        if maybe.size:
            kept = np.ones(keys.size, dtype=bool)
            kept[maybe] = (np.take(stack, maybe, axis=0) != 0).any(axis=(1, 2))
            if not kept.all():
                keys, stack, norms = keys[kept], stack[kept], norms[kept]
        keys.flags.writeable = False
        stack.flags.writeable = False
        m = keys.size

        leaf_norm_sq = np.zeros(nb * nb, dtype=np.float64)
        leaf_norm_sq[keys] = norms
        leaf_nonzero = np.zeros(nb * nb, dtype=bool)
        leaf_nonzero[keys] = True
        # An absent block maps past the end of the stack, so gathering one
        # raises instead of reading another block.
        index = np.full(nb * nb, m, dtype=np.intp)
        index[keys] = np.arange(m, dtype=np.intp)

        norm_sq = [None] * (depth + 1)
        occupied = [None] * (depth + 1)
        norm_sq[depth] = leaf_norm_sq.reshape(nb, nb)
        occupied[depth] = leaf_nonzero.reshape(nb, nb)
        with np.errstate(over="ignore"):
            for k in range(depth - 1, -1, -1):
                norm_sq[k] = _aggregate_norm_sq(norm_sq[k + 1])
                f = occupied[k + 1]
                occupied[k] = f[0::2, 0::2] | f[0::2, 1::2] | f[1::2, 0::2] | f[1::2, 1::2]

        self.logical_dim = logical_dim
        self.leaf_size = leaf_size
        self.depth = depth
        self.padded_dim = leaf_size << depth
        self.dtype = stack.dtype
        self._keys = keys
        self._stack = stack
        self._index = index.reshape(nb, nb)
        self._norm_sq = norm_sq
        self._occupied = occupied
        self._symmetric = symmetric

    # -- structure ---------------------------------------------------------

    @property
    def symmetric(self):
        """True only if the matrix equals its transpose bit for bit; read-only,
        exact from ``from_dense``, and a derived tree may miss a symmetry."""
        return self._symmetric

    @property
    def block_grid(self):
        """Number of leaf blocks along one side (padded_dim // leaf_size)."""
        return self.padded_dim // self.leaf_size

    # -- basic queries ------------------------------------------------------

    def to_dense(self):
        """Dense logical_dim x logical_dim array (padding stripped), written
        from ``_row_strips``: beside it, one strip of scratch."""
        out = np.empty((self.logical_dim, self.logical_dim))
        for lo, rows in _row_strips(self):
            out[lo:lo + rows.shape[0]] = rows
        return out

    def norm(self):
        """Frobenius norm of the whole matrix."""
        return float(np.sqrt(self._norm_sq[0][0, 0]))

    def structurally_equal(self, other):
        """True iff the two trees have identical shape, the same stored
        blocks and bit-identical leaf contents."""
        if not isinstance(other, QuadTreeMatrix):
            return False
        return (self.logical_dim == other.logical_dim
                and self.leaf_size == other.leaf_size
                and np.array_equal(self._keys, other._keys)
                and self._stack.tobytes() == other._stack.tobytes())

    def __repr__(self):
        return (f"QuadTreeMatrix(n={self.logical_dim}, leaf={self.leaf_size}, "
                f"depth={self.depth}, norm={self.norm():.6g})")


def _require_conformable(a, b):
    if a.logical_dim != b.logical_dim or a.leaf_size != b.leaf_size:
        raise DimensionMismatchError(
            f"trees not conformable: ({a.logical_dim}, leaf {a.leaf_size}) vs "
            f"({b.logical_dim}, leaf {b.leaf_size})")


def from_dense(dense, leaf_size=4):
    """Build a quadtree matrix from a dense square array.

    The array is zero-padded up to ``leaf_size * 2**depth`` with the smallest
    depth that fits; padding lives in unstored blocks and costs nothing later.
    The array is read in row strips (``_from_row_strips``): beside the
    input, one padded strip, the nonzero blocks and the tree's pyramids
    are allocated, never a padded copy of the whole array.

    Parameters
    ----------
    dense : (n, n) array_like
        Real square matrix, n >= 1, stored as float64; complex input is
        rejected.
    leaf_size : int
        Dense block side, a power of two >= 1 (default 4).
    """
    if leaf_size < 1 or (leaf_size & (leaf_size - 1)) != 0:
        raise ValueError(f"leaf_size must be a power of two >= 1, got {leaf_size}")
    if np.iscomplexobj(dense):
        raise ValueError("expected a real array, got a complex one")
    arr = np.asarray(dense, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(
            f"expected a square 2-D array, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    step = _strip_block_rows(n, leaf_size) * leaf_size
    return _from_row_strips(((lo, arr[lo:lo + step]) for lo in range(0, n, step)),
                            n, leaf_size)


def _bitwise_symmetric(keys, stack, nb):
    """The ``symmetric`` flag of a tree built from the nonzero blocks at
    strictly increasing ``keys``: True iff the block pattern is symmetric
    and each block with i <= j is its mirror's transpose bit for bit
    (-0.0 is not +0.0)."""
    mask = np.zeros(nb * nb, dtype=bool)
    mask[keys] = True
    mask = mask.reshape(nb, nb)
    if not np.array_equal(mask, mask.T):
        return False
    i, j = np.divmod(keys, nb)
    rows = np.flatnonzero(i <= j)
    mirror = (np.cumsum(mask) - 1).reshape(nb, nb)[j[rows], i[rows]]
    bits = stack.view(np.uint64)
    return np.array_equal(np.take(bits, mirror, axis=0),
                          np.take(bits, rows, axis=0).swapaxes(1, 2))


def _strip_block_rows(n, b):
    """Block rows per dense row strip of an n x n matrix with b x b leaves:
    as many as span ``_SCRATCH_ELEMENTS`` padded elements, at least one, and
    no more than the block rows holding logical rows."""
    padded_dim = b << _depth_for(n, b)
    return min(-(-n // b), max(1, _SCRATCH_ELEMENTS // (b * padded_dim)))


def _row_strips(m):
    """Yield ``(row, strip)`` down the dense logical rows of ``m``: each
    strip holds the rows of ``_strip_block_rows`` whole block rows from
    ``row`` on (the last strip may hold fewer), as a (rows, logical_dim)
    view.  Every strip is a view of one padded buffer, which the next strip
    overwrites; a caller may write to a strip."""
    n, b, nb = m.logical_dim, m.leaf_size, m.block_grid
    step = _strip_block_rows(n, b)
    buf = np.empty((step * b, m.padded_dim))
    grid = buf.reshape(step, b, nb, b).swapaxes(1, 2)
    bounds = np.searchsorted(m._keys, np.arange(0, nb + step, step) * nb)
    for s, lo in enumerate(range(0, -(-n // b), step)):
        keys = m._keys[bounds[s]:bounds[s + 1]]
        buf.fill(0.0)
        grid[keys // nb - lo, keys % nb] = m._stack[bounds[s]:bounds[s + 1]]
        yield lo * b, buf[:min(step * b, n - lo * b), :n]


def _from_row_strips(strips, n, leaf_size):
    """Internal: the tree of the n x n matrix given as ``(row, rows)``
    strips in order, ``rows`` being the logical rows of whole block rows
    from ``row`` on, at most ``_strip_block_rows`` of them (the inverse of
    ``_row_strips``).  Each strip is zero-padded in one strip buffer and
    its blocks holding a nonzero (-0.0 counts as zero) are gathered in key
    order; the ``symmetric`` flag is exact."""
    b = leaf_size
    nb = 1 << _depth_for(n, b)
    pad = np.zeros((_strip_block_rows(n, b) * b, nb * b))
    grid = pad.reshape(-1, b, nb, b)
    keys, stack = [], []
    for row, rows in strips:
        pad[:rows.shape[0], :n] = rows
        pad[rows.shape[0]:] = 0.0
        hit = np.logical_or.reduce(grid != 0, axis=1)
        # column by column: a reduction over the short last axis is slower
        mask = hit[..., 0].copy()
        for c in range(1, b):
            mask |= hit[..., c]
        i, j = np.nonzero(mask)
        keys.append((row // b + i) * nb + j)
        stack.append(grid.swapaxes(1, 2)[i, j])
    rows = pad = grid = None  # the strips' buffers go before the build
    keys, stack = np.concatenate(keys), np.concatenate(stack)
    return _from_blocks(keys, stack, n, b, _bitwise_symmetric(keys, stack, nb))


def _from_blocks(keys, stack, logical_dim, leaf_size, symmetric):
    """Internal: build a tree from strictly increasing block keys and their
    C-contiguous (m, b, b) stack.  All-zero blocks are dropped.  The tree
    takes both arrays and makes them read-only (do not reuse a writable one);
    another tree's read-only keys may be passed as they are.  ``symmetric``
    is stored unchecked: the caller vouches for it."""
    return QuadTreeMatrix(keys, stack, logical_dim, leaf_size, symmetric, _internal=True)


def trace(m):
    """Sum of the logical diagonal (padding is exactly zero and excluded).

    The diagonal of the padded matrix is filled from the stored diagonal
    blocks and reduced over its logical part in one fixed order."""
    nb, b = m.block_grid, m.leaf_size
    diag = np.zeros((nb, b))
    rows = m._index.diagonal()
    present = rows < m._keys.size
    diag[present] = m._stack[rows[present]].diagonal(axis1=1, axis2=2)
    return float(np.add.reduce(diag.reshape(-1)[:m.logical_dim]))


def _union(a, b):
    """Sorted union of the two trees' block keys, and the positions of each
    tree's blocks in it."""
    keys = np.flatnonzero(a._occupied[a.depth] | b._occupied[b.depth])
    return keys, np.searchsorted(keys, a._keys), np.searchsorted(keys, b._keys)


def distance(a, b):
    """Frobenius norm of a - b, summed over the union of both trees' stored
    blocks without building a tree (unstored blocks are exactly zero in
    both).  The squares are summed in one fixed order, so equal inputs give
    bit-identical results, and distance(a, b) == distance(b, a)."""
    _require_conformable(a, b)
    keys, pa, pb = _union(a, b)
    d = np.zeros((keys.size, a.leaf_size, a.leaf_size))
    d[pa] = a._stack
    d[pb] -= b._stack
    return float(np.sqrt(np.add.reduce((d * d).reshape(-1))))


def add(a, b):
    """Tree sum a + b.

    A block stored in only one operand is passed through bit-identically
    (0 + X = X without touching X); a block stored in both is a + b
    element-wise.  Blocks that cancel to exact zero are not stored.
    """
    _require_conformable(a, b)
    keys, pa, pb = _union(a, b)
    out = np.empty((keys.size, a.leaf_size, a.leaf_size))
    shared = a._occupied[a.depth].reshape(-1)[b._keys]
    out[pa] = a._stack
    out[pb[~shared]] = b._stack[~shared]
    out[pb[shared]] += b._stack[shared]
    return _from_blocks(keys, out, a.logical_dim, a.leaf_size,
                        a.symmetric and b.symmetric)


def scale(m, s):
    """Tree scaled by a scalar; scaling by 0 yields the empty tree.

    Only the stored blocks are scaled; unstored blocks stay exact +0.0."""
    return _from_blocks(m._keys, m._stack * float(s), m.logical_dim,
                        m.leaf_size, m.symmetric)


def filter_drop(m, tau):
    """Drop every leaf whose Frobenius norm is < tau (element dropping).

    Returns a new tree without the dropped leaves and with interior norms
    re-aggregated; every surviving leaf is bit-identical to its source.
    Idempotent for a fixed tau.  A negative or non-finite tau is rejected.
    """
    _check_tau(tau)
    drop = np.sqrt(m._norm_sq[m.depth].reshape(-1)[m._keys]) < tau
    if not drop.any():
        return m
    keep = ~drop
    return _from_blocks(m._keys[keep], m._stack[keep], m.logical_dim,
                        m.leaf_size, m.symmetric)
