"""Quadtree matrices with hierarchically cached Frobenius norms.

A matrix is stored as a quadtree over a zero-padded square array whose side
is ``leaf_size * 2**depth``.  Every node caches the *squared* Frobenius norm
of its submatrix, so norms aggregate exactly additively up the tree; square
roots are taken only when a norm is actually compared or reported.  Exactly
zero submatrices are represented by Empty nodes, which short-circuit all
arithmetic.

Trees are immutable after construction and may be shared freely between
operations; every operation returns a new tree (or the same object when the
result is provably identical).

Every tree is built from a mask of the leaf blocks that may be nonzero, all
other blocks holding exact +0.0.  ``from_dense`` passes every block; a
derived tree passes the blocks its producing operation wrote (the output
blocks of ``spamm``, the union of both operands' blocks for ``add``, the
operand's blocks for ``scale``, the survivors for ``filter_drop``).  The
nonzero test, the +0.0 reset and the leaf norms run on those blocks only,
so building a derived tree costs O(occupied blocks) rather than O(n**2);
each block's norm is summed in its own fixed order, so the result is the
same bits as a scan of the whole array.
"""

from __future__ import annotations

import numpy as np

_SUPPORTED_DTYPES = (np.float64, np.float32)

# Child enumeration order used everywhere a quadrant is visited: row-major
# over the 2x2 block layout (11, 12, 21, 22).
_QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))


class DimensionMismatchError(ValueError):
    """Raised for unusable matrix dimensions: non-square input, or two
    trees that are not conformable for an operation."""


class EmptyNode:
    """An exactly-zero submatrix.  Shared singleton; carries no payload."""

    __slots__ = ()
    kind = "empty"
    norm_sq = 0.0

    def __repr__(self):
        return "EmptyNode()"


EMPTY = EmptyNode()


class LeafNode:
    """A dense leaf_size x leaf_size block (row-major, read-only view)."""

    __slots__ = ("block", "norm_sq")
    kind = "leaf"

    def __init__(self, block, norm_sq):
        self.block = block
        self.norm_sq = norm_sq

    def __repr__(self):
        return f"LeafNode(norm_sq={self.norm_sq!r})"


class InteriorNode:
    """An internal node with four children in order 11, 12, 21, 22."""

    __slots__ = ("children", "norm_sq")
    kind = "interior"

    def __init__(self, children, norm_sq):
        self.children = children
        self.norm_sq = norm_sq

    def __repr__(self):
        kinds = ",".join(c.kind for c in self.children)
        return f"InteriorNode([{kinds}], norm_sq={self.norm_sq!r})"


def _leaf_norm_sq(blocks):
    """Squared Frobenius norm of every block, accumulated element by element
    in row-major order (fixed summation order for bit reproducibility).

    ``blocks`` is a stack of b x b blocks, shape (..., b, b), e.g. the
    (m, b, b) gather of a tree's touched blocks; returns float64 of shape
    ``blocks.shape[:-2]``.  Each block's sum depends on that block alone, so
    a block's norm is the same bits whichever stack it is part of.
    """
    b = blocks.shape[-1]
    sq = blocks.astype(np.float64, copy=False)
    acc = np.zeros(blocks.shape[:-2], dtype=np.float64)
    for r in range(b):
        for c in range(b):
            e = sq[..., r, c]
            acc += e * e
    return acc


def _aggregate_norm_sq(fine):
    """One tier of norm aggregation: children summed in order 11, 12, 21, 22."""
    return ((fine[0::2, 0::2] + fine[0::2, 1::2]) + fine[1::2, 0::2]) + fine[1::2, 1::2]


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
        Element storage precision (float64 by default).
    """

    __slots__ = ("logical_dim", "leaf_size", "depth", "padded_dim", "dtype",
                 "_padded", "_blocks", "_leaf_nonzero", "_norm_sq",
                 "_occupied", "_root")

    def __init__(self, padded, logical_dim, leaf_size, touched, _internal=False):
        if not _internal:
            raise TypeError("use from_dense() to construct a QuadTreeMatrix")
        n = padded.shape[0]
        depth = 0
        while leaf_size << depth < n:
            depth += 1
        assert leaf_size << depth == n
        nb = n // leaf_size
        blocks = padded.reshape(nb, leaf_size, nb, leaf_size).swapaxes(1, 2)
        # ``touched`` (nb, nb) marks the blocks that may be nonzero; every
        # other block must already hold exact +0.0 and is never read.
        ti, tj = np.nonzero(touched)
        sub = blocks[ti, tj]
        nonzero = (sub != 0).any(axis=(1, 2))
        if not nonzero.all():
            # Canonical form: a structurally empty block stores exact +0.0.
            blocks[ti[~nonzero], tj[~nonzero]] = 0.0
            ti, tj, sub = ti[nonzero], tj[nonzero], sub[nonzero]
        leaf_nonzero = np.zeros((nb, nb), dtype=bool)
        leaf_nonzero[ti, tj] = True
        leaf_norm_sq = np.zeros((nb, nb), dtype=np.float64)
        leaf_norm_sq[ti, tj] = _leaf_norm_sq(sub)

        norm_sq = [None] * (depth + 1)
        occupied = [None] * (depth + 1)
        norm_sq[depth] = leaf_norm_sq
        occupied[depth] = leaf_nonzero
        for k in range(depth - 1, -1, -1):
            norm_sq[k] = _aggregate_norm_sq(norm_sq[k + 1])
            f = occupied[k + 1]
            occupied[k] = f[0::2, 0::2] | f[0::2, 1::2] | f[1::2, 0::2] | f[1::2, 1::2]

        padded.flags.writeable = False
        self.logical_dim = logical_dim
        self.leaf_size = leaf_size
        self.depth = depth
        self.padded_dim = n
        self.dtype = padded.dtype
        self._padded = padded
        self._blocks = blocks
        self._leaf_nonzero = leaf_nonzero
        self._norm_sq = norm_sq
        self._occupied = occupied
        self._root = None

    # -- structure ---------------------------------------------------------

    @property
    def block_grid(self):
        """Number of leaf blocks along one side (padded_dim // leaf_size)."""
        return self.padded_dim // self.leaf_size

    @property
    def element_precision(self):
        return "double" if self.dtype == np.float64 else "single"

    @property
    def root(self):
        """Root node of the quadtree view (built lazily, then cached)."""
        if self._root is None:
            self._root = self._build_node(0, 0, 0)
        return self._root

    def _build_node(self, tier, qi, qj):
        if not self._occupied[tier][qi, qj]:
            return EMPTY
        if tier == self.depth:
            return LeafNode(self._blocks[qi, qj], float(self._norm_sq[tier][qi, qj]))
        children = tuple(
            self._build_node(tier + 1, 2 * qi + di, 2 * qj + dj)
            for di, dj in _QUADRANTS
        )
        return InteriorNode(children, float(self._norm_sq[tier][qi, qj]))

    # -- basic queries ------------------------------------------------------

    def to_dense(self):
        """Dense logical_dim x logical_dim array (padding stripped)."""
        n = self.logical_dim
        return self._padded[:n, :n].copy()

    def norm(self):
        """Frobenius norm of the whole matrix."""
        return float(np.sqrt(self._norm_sq[0][0, 0]))

    def structurally_equal(self, other):
        """True iff the two trees have identical shape, node structure and
        bit-identical leaf contents."""
        if not isinstance(other, QuadTreeMatrix):
            return False
        return (self.logical_dim == other.logical_dim
                and self.leaf_size == other.leaf_size
                and self.dtype == other.dtype
                and np.array_equal(self._leaf_nonzero, other._leaf_nonzero)
                and self._padded.tobytes() == other._padded.tobytes())

    def __repr__(self):
        return (f"QuadTreeMatrix(n={self.logical_dim}, leaf={self.leaf_size}, "
                f"depth={self.depth}, norm={self.norm():.6g})")


def _require_conformable(a, b):
    if a.logical_dim != b.logical_dim or a.leaf_size != b.leaf_size:
        raise DimensionMismatchError(
            f"trees not conformable: ({a.logical_dim}, leaf {a.leaf_size}) vs "
            f"({b.logical_dim}, leaf {b.leaf_size})")
    if a.dtype != b.dtype:
        raise DimensionMismatchError(f"dtype mismatch: {a.dtype} vs {b.dtype}")


def from_dense(dense, leaf_size=4, dtype=None):
    """Build a quadtree matrix from a dense square array.

    The array is zero-padded up to ``leaf_size * 2**depth`` with the smallest
    depth that fits; padding lives in Empty nodes and costs nothing later.

    Parameters
    ----------
    dense : (n, n) array_like
        Square matrix, n >= 1.
    leaf_size : int
        Dense block side, a power of two >= 1 (default 4).
    dtype : numpy dtype, optional
        float64 (default) or float32 leaf storage.
    """
    if leaf_size < 1 or (leaf_size & (leaf_size - 1)) != 0:
        raise ValueError(f"leaf_size must be a power of two >= 1, got {leaf_size}")
    target = np.float64 if dtype is None else np.dtype(dtype)
    if target not in _SUPPORTED_DTYPES:
        raise ValueError(f"unsupported element dtype {target}")
    arr = np.asarray(dense, dtype=target)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(
            f"expected a square 2-D array, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    depth = 0
    while leaf_size << depth < n:
        depth += 1
    padded_dim = leaf_size << depth
    padded = np.zeros((padded_dim, padded_dim), dtype=target)
    padded[:n, :n] = arr
    nb = padded_dim // leaf_size
    return _from_padded(padded, n, leaf_size, np.ones((nb, nb), dtype=bool))


def _from_padded(padded, logical_dim, leaf_size, touched):
    """Internal: wrap an already padded, owned array (consumed; do not reuse).

    ``touched`` is the (nb, nb) mask of blocks the producing operation wrote;
    blocks outside it must hold exact +0.0."""
    return QuadTreeMatrix(padded, logical_dim, leaf_size, touched, _internal=True)


def identity(n, leaf_size=4, dtype=None):
    """Identity matrix as a quadtree."""
    return from_dense(np.eye(n), leaf_size=leaf_size, dtype=dtype)


def to_dense(m):
    """Dense logical array for ``m`` (function form of m.to_dense())."""
    return m.to_dense()


def node_norm(m):
    """Frobenius norm of the whole matrix, from the root's cached norm."""
    return m.norm()


def trace(m):
    """Sum of the logical diagonal (padding is exactly zero and excluded)."""
    d = m._padded.diagonal()[:m.logical_dim]
    return float(np.add.reduce(d))


def distance(a, b):
    """Frobenius norm of a - b, read from the padded arrays without building
    a tree (padding is exactly zero in both).  The squares are summed in one
    fixed order, so equal inputs give bit-identical results."""
    _require_conformable(a, b)
    d = a._padded.astype(np.float64, copy=False) - b._padded
    return float(np.sqrt(np.add.reduce(d * d, axis=None)))


def add(a, b):
    """Tree sum a + b.

    Where only one operand has a nonzero block the other side's block is
    passed through bit-identically (Empty + X = X without touching X).
    Blocks that cancel to exact zero become Empty.
    """
    _require_conformable(a, b)
    out = a._padded + b._padded
    blocks = out.reshape(a.block_grid, a.leaf_size, a.block_grid,
                         a.leaf_size).swapaxes(1, 2)
    a_only = a._leaf_nonzero & ~b._leaf_nonzero
    b_only = b._leaf_nonzero & ~a._leaf_nonzero
    if a_only.any():
        blocks[a_only] = a._blocks[a_only]
    if b_only.any():
        blocks[b_only] = b._blocks[b_only]
    return _from_padded(out, a.logical_dim, a.leaf_size,
                        a._leaf_nonzero | b._leaf_nonzero)


def scale(m, s):
    """Tree scaled by a scalar; scaling by 0 yields the Empty tree.

    Only the nonzero blocks are scaled; empty blocks stay exact +0.0 (a
    whole-array product by s < 0 would turn them into -0.0)."""
    out = np.zeros(m._padded.shape, dtype=m.dtype)
    blocks = out.reshape(m.block_grid, m.leaf_size, m.block_grid,
                         m.leaf_size).swapaxes(1, 2)
    nz = m._leaf_nonzero
    blocks[nz] = m._blocks[nz] * m.dtype.type(s)
    return _from_padded(out, m.logical_dim, m.leaf_size, nz)


def filter_drop(m, tau):
    """Drop every leaf whose Frobenius norm is < tau (element dropping).

    Returns a new tree with dropped leaves replaced by Empty and interior
    norms re-aggregated; every surviving leaf is bit-identical to its source.
    Idempotent for a fixed tau.  tau < 0 is rejected.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    drop = m._leaf_nonzero & (np.sqrt(m._norm_sq[m.depth]) < tau)
    if not drop.any():
        return m
    out = m._padded.copy()
    blocks = out.reshape(m.block_grid, m.leaf_size, m.block_grid,
                         m.leaf_size).swapaxes(1, 2)
    blocks[drop] = 0.0
    return _from_padded(out, m.logical_dim, m.leaf_size, m._leaf_nonzero & ~drop)


def audit_norm_cache(m):
    """Recompute every cached norm from leaf data; return the maximum
    relative discrepancy over all nodes (0.0 for a healthy tree).

    The norm-cache invariant requires this to be <= 4 * machine epsilon.
    """
    worst = 0.0
    fresh = _leaf_norm_sq(m._blocks)  # every block, not only the occupied ones
    for k in range(m.depth, -1, -1):
        stored = m._norm_sq[k]
        denom = np.where(stored > 0, stored, 1.0)
        rel = np.abs(fresh - stored) / denom
        worst = max(worst, float(rel.max()))
        if k > 0:
            fresh = _aggregate_norm_sq(fresh)
    return worst
