"""Hilbert-curve atom ordering.

A 3-D Hilbert curve orders atoms so that spatially close atoms get nearby
matrix indices, which concentrates block norms near the diagonal and lets
the hierarchical norm pruning bite.  An ordering is a plain permutation
array, ``permutation[old_index] = new_index``.

Conventions, fixed once: axis priority is x, y, z (x owns the most
significant bit of every interleaved group), and the Hilbert base cell uses
the identity orientation, so at order 1 the curve visits the eight octants
in reflected-Gray-code order; restricted to the z = 0 face that is
(0,0), (0,1), (1,1), (1,0).
"""

from __future__ import annotations

import numpy as np

from .quadtree import from_dense

_MAX_ORDER = 20  # 3 * 20 = 60 index bits, safely inside uint64


def _cells_to_hilbert(cells, order):
    """Hilbert indices for integer grid cells, vectorized.

    ``cells``: (3, m) array of coordinates in [0, 2**order).  Uses the
    bit-transpose construction: undo the excess work tier by tier, Gray
    encode, then interleave x-major.
    """
    x = cells.astype(np.uint64).copy()
    q = np.uint64(1) << np.uint64(order - 1)
    one = np.uint64(1)
    while q > one:
        p = q - one
        for i in range(3):
            high = (x[i] & q) != 0
            x[0] = np.where(high, x[0] ^ p, x[0])
            t = np.where(high, np.uint64(0), (x[0] ^ x[i]) & p)
            x[0] ^= t
            x[i] ^= t
        q >>= one
    x[1] ^= x[0]
    x[2] ^= x[1]
    t = np.zeros_like(x[2])
    q = np.uint64(1) << np.uint64(order - 1)
    while q > one:
        t = np.where((x[2] & q) != 0, t ^ (q - one), t)
        q >>= one
    x ^= t

    idx = np.zeros(cells.shape[1], dtype=np.uint64)
    for bit in range(order - 1, -1, -1):
        b = np.uint64(bit)
        idx = (idx << np.uint64(3)) | (((x[0] >> b) & one) << np.uint64(2)) \
            | (((x[1] >> b) & one) << one) | ((x[2] >> b) & one)
    return idx


def _points_to_cells(pts, order):
    """(3, m) grid cells of (m, 3) points in their bounding box, cut into
    2**order cells per axis; zero-extent axes collapse to cell 0."""
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    size = 1 << order
    extent = hi - lo
    safe = np.where(extent > 0, extent, 1.0)
    frac = (pts - lo) / safe
    cells = np.minimum((frac * size).astype(np.int64), size - 1)
    cells[:, extent == 0] = 0
    return cells.T


def order_atoms(positions, order=10):
    """Sort atoms along the Hilbert curve over their own bounding box.

    Ties (atoms sharing a grid cell) keep their original relative order, so
    the result is deterministic.  Returns the permutation array
    ``permutation[old_index] = new_index``.
    """
    if not 1 <= order <= _MAX_ORDER:
        raise ValueError(f"order must be in [1, {_MAX_ORDER}], got {order}")
    pts = np.asarray(positions, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
        raise ValueError(f"expected (m, 3) positions with m >= 1, got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("positions must be finite")
    keys = _cells_to_hilbert(_points_to_cells(pts, order), order)
    visit = np.argsort(keys, kind="stable")
    perm = np.empty(pts.shape[0], dtype=np.int64)
    perm[visit] = np.arange(pts.shape[0])
    return perm


def apply_ordering(m, permutation, block_size):
    """Symmetrically permute a matrix at atom-block granularity: P m P^T for
    the permutation matrix of ``permutation``.  Row/column block ``a`` of
    the input lands at block ``permutation[a]`` of the output.
    """
    perm = np.asarray(permutation)
    count = perm.size
    if count * block_size != m.logical_dim:
        raise ValueError(
            f"{count} atoms x block {block_size} != matrix dim {m.logical_dim}")
    if not np.array_equal(np.sort(perm), np.arange(count)):
        raise ValueError(f"permutation is not a bijection of range({count})")
    old_of_new = np.argsort(perm)
    rows = (old_of_new[:, None] * block_size
            + np.arange(block_size)[None, :]).ravel()
    dense = m.to_dense()
    return from_dense(dense[np.ix_(rows, rows)], leaf_size=m.leaf_size)
