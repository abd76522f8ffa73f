"""Quadtree matrices with hierarchically summed Frobenius norms.

A matrix is stored over a zero-padded square whose side is
``leaf_size * 2**depth``, cut into ``nb x nb`` leaf blocks
(``nb = 2**depth``).  A tree is its nonzero leaf blocks, in three arrays:

* ``_keys``: the sorted row-major block keys ``i * nb + j``;
* ``_stack``: one read-only, C-contiguous ``(m, leaf_size, leaf_size)``
  stack of those blocks, in key order;
* ``_block_norm_sq``: each block's *squared* Frobenius norm, in key order.

A tree flagged ``symmetric`` stores only its blocks with i <= j: each
strict-upper block (i, j) also stands for its transpose at (j, i), the
upper-triangle storage of symmetric matrices in the hierarchic matrix
library of Rubensson, Rudberg & Salek (J. Comput. Chem. 28, 2531, 2007).
Every operation reads and writes that half.  The lower half has one
reader: ``_represented`` lists the blocks a tree represents by signed
stack row, and ``_gather`` turns rows into blocks, for ``_row_strips``
(dense rows), ``_grids`` (the multiply's block index) and ``_full_blocks``
(when ``add``, ``distance`` or ``structurally_equal`` meets a flagged
tree and an unflagged one).

No array in a tree is sized by ``nb**2``.  For the multiply, ``_grids``
builds an ``(nb, nb)`` block index and pyramids of each tier's squared
norms, which add exactly up the tree, occupancy, and smallest leaf squared
norms; unoccupied nodes (exactly zero submatrices) short-circuit all
arithmetic, and the minima admit whole subcubes.

Canonical form: a stored block has at least one nonzero element.  There is
one construction path: it takes keys and a stack, drops the blocks that
are all zero (including blocks of -0.0), and sums each block's squares in
one order that depends on the block's values alone (``_leaf_norm_sq``), so
a block's norm has the same bits whichever operation produced it.
``_grids`` gives a flagged tree's strict-lower leaf its stored mirror's
norm and sums a node's children as (11 + 22) + (12 + 21), an order that a
grid and its transpose share, so a flagged tree's norm pyramids equal
their transposes bit for bit.

Cost model: building a tree (a product, sum, scaling or filtered tree),
``trace`` and ``distance`` cost O(stored blocks), about half the nonzero
blocks on a flagged tree; ``_grids``, all that a
multiply reads about an operand, costs O(nb**2) and keeps nothing:
``spamm`` calls it once per distinct operand, ``norm()`` on every call.
No operation on trees allocates an n x n array.  Dense values move in and
out of trees only through row strips of bounded size, the O(n**2) steps:
``_row_strips`` is the bounded way out of a tree (which ``to_dense``, the
only writer of a tree's dense array, and the purification driver read),
and ``_from_row_strips`` the bounded way in (which ``from_dense`` and the
purification driver's initial guess feed).

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

# The default leaf block side of ``from_dense``, the generators and the CLI.
_LEAF_SIZE = 4


class DimensionMismatchError(ValueError):
    """Raised for unusable matrix dimensions: non-square input, or two
    trees that are not conformable for an operation."""


def _check_tau(tau):
    """Reject a truncation threshold that is negative or not finite."""
    if not math.isfinite(tau) or tau < 0:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")


def _leaf_norm_sq(blocks):
    """Squared Frobenius norm of each block of an (m, b, b) stack, in one
    ``einsum`` over a C-contiguous copy (the stack itself if it is one):
    einsum's summation order follows the layout, so on that layout a
    block's sum depends on its values alone, not on its stack."""
    s = np.ascontiguousarray(blocks)
    return np.einsum("kij,kij->k", s, s)


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
                 "_keys", "_stack", "_block_norm_sq", "_symmetric")

    def __init__(self, keys, stack, logical_dim, leaf_size, symmetric, _internal=False):
        if not _internal:
            raise TypeError("use from_dense() to construct a QuadTreeMatrix")
        # ``keys`` are strictly increasing row-major block keys and ``stack``
        # the C-contiguous (m, b, b) blocks in that order, owned by the tree.
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
        for arr in (keys, stack, norms):
            arr.flags.writeable = False

        self.logical_dim = logical_dim
        self.leaf_size = leaf_size
        self.depth = _depth_for(logical_dim, leaf_size)
        self.padded_dim = leaf_size << self.depth
        self.dtype = stack.dtype
        self._keys = keys
        self._stack = stack
        self._block_norm_sq = norms
        self._symmetric = symmetric

    # -- structure ---------------------------------------------------------

    @property
    def symmetric(self):
        """True only if the matrix equals its transpose bit for bit; read-only,
        exact from ``from_dense``, and a derived tree may miss a symmetry.
        A flagged tree stores its blocks with i <= j alone."""
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
        """Frobenius norm of the whole matrix, from ``_grids``' root."""
        return float(np.sqrt(_grids(self)[1][0][0, 0]))

    def structurally_equal(self, other):
        """True iff the two trees have identical shape and represent the
        same blocks with bit-identical leaf contents, whatever each stores:
        a flagged tree's half is expanded only against an unflagged tree."""
        if not isinstance(other, QuadTreeMatrix):
            return False
        if (self.logical_dim != other.logical_dim
                or self.leaf_size != other.leaf_size):
            return False
        _, (keys, stack), (other_keys, other_stack) = _alike(self, other)
        return (np.array_equal(keys, other_keys)
                and np.array_equal(stack.view(np.uint64), other_stack.view(np.uint64)))

    def __repr__(self):
        return (f"QuadTreeMatrix(n={self.logical_dim}, leaf={self.leaf_size}, "
                f"depth={self.depth}, norm={self.norm():.6g})")


def _grids(m):
    """Everything the multiply reads about ``m``, O(nb**2) and never kept:
    ``(index, norm_sq, occupied, low_sq)``.  ``index`` maps each block
    that ``m`` represents to its signed stack row from ``_represented``,
    which ``_gather`` reads, and an absent one past the end of the stack
    so gathering it raises; ``norm_sq[k]``, ``occupied[k]`` and
    ``low_sq[k]`` hold tier k's squared norms (children summed as
    (11 + 22) + (12 + 21)), occupancy, and smallest leaf squared norm
    under each node (an unstored leaf counts as 0), built up from the
    leaves in one pass.  A strict-lower leaf of a flagged tree takes its
    stored mirror's norm."""
    nb, count = m.block_grid, m._keys.size
    keys, rows = _represented(m)
    index = np.full(nb * nb, count, dtype=np.intp)
    index[keys] = rows
    # [norms | 0 | norms] reads row r, count (absent) and r - count as the
    # norm of stored row r, 0 and the norm of row r.
    norms = m._block_norm_sq
    leaf = np.take(np.concatenate((norms, [0.0], norms)), index)
    norm_sq, occupied = [leaf.reshape(nb, nb)], [index.reshape(nb, nb) < count]
    low_sq = norm_sq[:]
    with np.errstate(over="ignore"):
        while len(norm_sq) <= m.depth:
            f, o, w = norm_sq[-1], occupied[-1], low_sq[-1]
            norm_sq.append((f[0::2, 0::2] + f[1::2, 1::2])
                           + (f[0::2, 1::2] + f[1::2, 0::2]))
            occupied.append(o[0::2, 0::2] | o[0::2, 1::2] | o[1::2, 0::2] | o[1::2, 1::2])
            low_sq.append(np.minimum(np.minimum(w[0::2, 0::2], w[0::2, 1::2]),
                                     np.minimum(w[1::2, 0::2], w[1::2, 1::2])))
    return index.reshape(nb, nb), norm_sq[::-1], occupied[::-1], low_sq[::-1]


def _require_conformable(a, b):
    if a.logical_dim != b.logical_dim or a.leaf_size != b.leaf_size:
        raise DimensionMismatchError(
            f"trees not conformable: ({a.logical_dim}, leaf {a.leaf_size}) vs "
            f"({b.logical_dim}, leaf {b.leaf_size})")


def from_dense(dense, leaf_size=_LEAF_SIZE):
    """Build a quadtree matrix from a dense square array.

    The array is zero-padded up to ``leaf_size * 2**depth`` with the smallest
    depth that fits; padding lives in unstored blocks and costs nothing later.
    The array is read in row strips (``_from_row_strips``): beside the
    input, one padded strip and the nonzero blocks are allocated, never a
    padded copy of the whole array.

    Parameters
    ----------
    dense : (n, n) array_like
        Real square matrix, n >= 1, stored as float64; complex input is
        rejected.
    leaf_size : int
        Dense block side, an integer power of two >= 1 (default ``_LEAF_SIZE``).
    """
    if (not isinstance(leaf_size, (int, np.integer)) or leaf_size < 1
            or (leaf_size & (leaf_size - 1)) != 0):
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


def _bitwise_symmetric(keys, stack, depth):
    """The ``symmetric`` flag of a tree built from the nonzero blocks at
    strictly increasing ``keys`` on a grid of 2**depth blocks a side: True
    iff every block's mirror is stored and each block with i <= j is its
    mirror's transpose bit for bit (-0.0 is not +0.0)."""
    mirrors = _mirror_keys(keys, depth)
    mirror = np.minimum(np.searchsorted(keys, mirrors), keys.size - 1)
    if not np.array_equal(np.take(keys, mirror), mirrors):
        return False
    rows = np.flatnonzero(keys <= mirrors)
    bits = stack.view(np.uint64)
    return np.array_equal(np.take(bits, mirror[rows], axis=0),
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
    overwrites; a caller may write to a strip.  The blocks that ``m``
    represents (``_represented``) are gathered (``_gather``) at most one
    block row's worth at a time."""
    n, b, nb = m.logical_dim, m.leaf_size, m.block_grid
    step = _strip_block_rows(n, b)
    buf = np.empty((step * b, m.padded_dim))
    grid = buf.reshape(step, b, nb, b).swapaxes(1, 2)
    # The blocks grouped by strip, each group in ``_represented``'s order,
    # so that most gathers are all stored blocks or all transposes.
    keys, rows = _represented(m)
    order = np.argsort(keys // (step * nb), kind="stable")
    i, j = np.divmod(keys[order], nb)
    rows = rows[order]
    keys = order = None
    # i // step is sorted, so a search for each strip's first row finds it.
    bounds = np.searchsorted(i, np.arange(0, nb + step, step))
    for s, lo in enumerate(range(0, -(-n // b), step)):
        buf.fill(0.0)
        for p in range(bounds[s], bounds[s + 1], nb):
            at = slice(p, min(p + nb, bounds[s + 1]))
            grid[i[at] - lo, j[at]] = _gather(m._stack, rows[at])
        yield lo * b, buf[:min(step * b, n - lo * b), :n]


def _from_row_strips(strips, n, leaf_size):
    """Internal: the tree of the n x n matrix given as ``(row, rows)``
    strips in order, ``rows`` being the logical rows of whole block rows
    from ``row`` on, at most ``_strip_block_rows`` of them (the inverse of
    ``_row_strips``).  Each strip is zero-padded in one strip buffer and
    its blocks holding a nonzero (-0.0 counts as zero) are gathered in key
    order; the ``symmetric`` flag is exact, and a flagged tree keeps the
    blocks with i <= j."""
    b = leaf_size
    depth = _depth_for(n, b)
    nb = 1 << depth
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
    symmetric = _bitwise_symmetric(keys, stack, depth)
    if symmetric:
        upper = keys // nb <= keys % nb
        keys, stack = keys[upper], stack[upper]
    return _from_blocks(keys, stack, n, b, symmetric)


def _from_blocks(keys, stack, logical_dim, leaf_size, symmetric):
    """Internal: build a tree from strictly increasing block keys and their
    C-contiguous (m, b, b) stack.  All-zero blocks are dropped.  The tree
    takes both arrays and makes them read-only (do not reuse a writable one);
    another tree's read-only keys may be passed as they are.  ``symmetric``
    is stored unchecked: the caller vouches for it, and that the keys are
    those of the blocks with i <= j alone."""
    return QuadTreeMatrix(keys, stack, logical_dim, leaf_size, symmetric, _internal=True)


def trace(m):
    """Sum of the logical diagonal (padding is exactly zero and excluded).

    The diagonal of the padded matrix is filled from the stored diagonal
    blocks (a flagged tree stores them all) and reduced over its logical
    part in one fixed order."""
    nb = m.block_grid
    want = np.arange(nb) * (nb + 1)  # the keys i * nb + i
    rows = np.searchsorted(m._keys, want)
    on = rows < m._keys.size
    on[on] = m._keys[rows[on]] == want[on]
    diag = np.zeros((nb, m.leaf_size))
    diag[on] = m._stack[rows[on]].diagonal(axis1=1, axis2=2)
    return float(np.add.reduce(diag.reshape(-1)[:m.logical_dim]))


def _mirror_keys(keys, depth):
    """The key j * nb + i of each block (i, j) at ``keys`` on a grid of
    nb = 2**depth blocks a side."""
    return ((keys & ((1 << depth) - 1)) << depth) | (keys >> depth)


def _represented(m):
    """Every block that ``m`` represents, as ``(keys, rows)``: its key and
    signed stack row, r for stored row r and r - count (which ``np.take``
    reads as row r) for the transpose of row r, a strict-lower block of a
    flagged tree.  The stored blocks come first, in key order, then the
    strict-lower ones in their mirrors' order; ``_gather`` reads the rows."""
    count = m._keys.size
    rows = np.arange(count)
    if not m.symmetric:
        return m._keys, rows
    mirrors = _mirror_keys(m._keys, m.depth)
    strict = np.flatnonzero(mirrors > m._keys)
    return (np.concatenate((m._keys, mirrors[strict])),
            np.concatenate((rows, strict - count)))


def _gather(stack, rows):
    """The blocks at signed stack rows ``rows``, an array of any shape
    (see ``_represented``), in a new C-contiguous array of shape
    ``rows.shape + (b, b)``: row r of ``stack`` as it is, and a negative
    row as its row transposed; rows all negative in one transposing copy,
    a mix block by block."""
    tiles = np.take(stack, rows, axis=0)
    if rows.size and rows.min() < 0:
        lower = rows < 0
        if lower.all():
            return np.ascontiguousarray(tiles.swapaxes(-1, -2))
        at = np.flatnonzero(lower)
        flat = tiles.reshape(-1, *stack.shape[1:])
        flat[at] = np.ascontiguousarray(np.take(flat, at, axis=0).swapaxes(1, 2))
    return tiles


def _full_blocks(m):
    """The keys and stack of every block that ``m`` represents, in key
    order (``_represented``, ``_gather``)."""
    keys, rows = _represented(m)
    order = np.argsort(keys, kind="stable")
    return keys[order], _gather(m._stack, rows[order])


def _alike(a, b):
    """``(symmetric, (keys, stack) of a, (keys, stack) of b)`` in one
    storage: the stored halves when both trees are flagged, every block
    each represents otherwise (a flagged tree's half expanded)."""
    if a.symmetric and b.symmetric:
        return True, (a._keys, a._stack), (b._keys, b._stack)
    return False, *((_full_blocks(m) if m.symmetric else (m._keys, m._stack))
                     for m in (a, b))


def _union(keys_a, keys_b):
    """Sorted union of two sorted key lists, and the positions of each
    list's keys in it, from one stable merge."""
    both = np.concatenate((keys_a, keys_b))
    order = np.argsort(both, kind="stable")
    ranked = both[order]
    new = np.diff(ranked, prepend=-1) != 0
    where = np.empty(both.size, dtype=np.intp)
    where[order] = np.cumsum(new) - 1
    return ranked[new], where[:keys_a.size], where[keys_a.size:]


def distance(a, b):
    """Frobenius norm of a - b, summed over the union of both trees' stored
    blocks without building a tree (unstored blocks are exactly zero in
    both).  Two flagged trees are subtracted on their stored halves, the
    squares of each strict-upper block counted twice, once for its mirror;
    a flagged tree and an unflagged one, on every block each represents.
    The squares are summed in one fixed order, so equal inputs give
    bit-identical results, and distance(a, b) == distance(b, a)."""
    _require_conformable(a, b)
    symmetric, (keys_a, stack_a), (keys_b, stack_b) = _alike(a, b)
    keys, pa, pb = _union(keys_a, keys_b)
    d = np.zeros((keys.size, a.leaf_size, a.leaf_size))
    d[pa] = stack_a
    d[pb] -= stack_b
    sq = np.square(d, out=d)
    if symmetric:  # a strict-upper block stands for its mirror too
        sq[_mirror_keys(keys, a.depth) > keys] *= 2.0
    return float(np.sqrt(np.add.reduce(sq.reshape(-1))))


def add(a, b):
    """Tree sum a + b.

    A block stored in only one operand is passed through bit-identically
    (-0.0 + X = X for every X, -0.0 included); a block stored in both is
    a + b element-wise.  Blocks that cancel to exact zero are not stored.
    Two flagged trees are added on their halves; a flagged tree and an
    unflagged one, on every block each represents.
    """
    _require_conformable(a, b)
    symmetric, (keys_a, stack_a), (keys_b, stack_b) = _alike(a, b)
    keys, pa, pb = _union(keys_a, keys_b)
    out = np.full((keys.size, a.leaf_size, a.leaf_size), -0.0)
    out[pa] = stack_a
    out[pb] += stack_b
    return _from_blocks(keys, out, a.logical_dim, a.leaf_size, symmetric)


def scale(m, s):
    """Tree scaled by a scalar; scaling by 0 yields the empty tree.

    Only the stored blocks are scaled (a flagged tree's half); unstored
    blocks stay exact +0.0."""
    return _from_blocks(m._keys, m._stack * float(s), m.logical_dim,
                        m.leaf_size, m.symmetric)


def filter_drop(m, tau):
    """Drop every leaf whose Frobenius norm is < tau (element dropping).

    Returns a new tree without the dropped leaves; every surviving leaf
    is bit-identical to its source.  Idempotent for a fixed tau.  A
    negative or non-finite tau is rejected.  A flagged tree is filtered on
    its half, so a block and the mirror it stands for go or stay together.
    """
    _check_tau(tau)
    drop = np.sqrt(m._block_norm_sq) < tau
    if not drop.any():
        return m
    keep = ~drop
    return _from_blocks(m._keys[keep], m._stack[keep], m.logical_dim,
                        m.leaf_size, m.symmetric)
