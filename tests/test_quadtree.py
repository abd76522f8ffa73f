"""Quadtree construction, norm caching, padding, and the dropping filter."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from spamm import quadtree
from spamm.quadtree import (DimensionMismatchError, _grids, add, distance,
                            filter_drop, from_dense, scale, trace)
from spamm.generators import gen_exponential
from spamm.multiply import SpammConfig, spamm

from spamm.purification import tc2_initial_guess

from conftest import (audit_norm_cache, dense_initial_guess, full_blocks,
                      is_bitwise_symmetric, mirrored_child_sum, padded_dense,
                      sum_of_squares)


def _stored_padded(m):
    """The padded array the stored blocks describe, every unstored block
    +0.0 (storage-level, read white-box from the keys and the stack)."""
    nb, b = m.block_grid, m.leaf_size
    out = np.zeros((m.padded_dim, m.padded_dim), dtype=m.dtype)
    for row, key in enumerate(m._keys):
        i, j = divmod(int(key), nb)
        out[i * b:(i + 1) * b, j * b:(j + 1) * b] = m._stack[row]
    return out


def test_identity4_single_leaf():
    m = from_dense(np.eye(4), leaf_size=4)
    assert m.depth == 0 and _grids(m)[2][0][0, 0]  # the root is a leaf
    assert _grids(m)[1][0][0, 0] == 4.0
    assert m.padded_dim == 4 and m.depth == 0


def test_zero8_empty_root():
    m = from_dense(np.zeros((8, 8)), leaf_size=4)
    assert not _grids(m)[2][0][0, 0]
    assert m.depth == 1
    assert _grids(m)[1][0][0, 0] == 0.0


def test_ones5_padding_and_quadrants():
    m = from_dense(np.ones((5, 5)), leaf_size=4)
    assert m.padded_dim == 8
    assert m.depth == 1
    assert _grids(m)[1][0][0, 0] == 25.0
    # quadrant 22 covers rows/cols 4..7; only element (4,4) is inside the
    # logical region, so its subtree norm is exactly 1
    assert _grids(m)[1][1][1, 1] == 1.0


def test_padding_region_exact_zero():
    rng = np.random.default_rng(11)
    for n in (5, 9, 13, 33):
        m = from_dense(rng.standard_normal((n, n)))
        padded = _stored_padded(m)  # storage-level invariant, checked white-box
        assert padded.shape == (m.padded_dim, m.padded_dim)
        assert not padded[n:, :].any()
        assert not padded[:, n:].any()
        # minimal padding: halving would no longer fit
        assert m.padded_dim >= n
        assert m.depth == 0 or m.padded_dim // 2 < n


def test_roundtrip_exhaustive_small():
    """from_dense(M).to_dense() == M bit-exactly for n = 1..65, leaf 1/2/4."""
    rng = np.random.default_rng(0)
    for n in range(1, 66):
        data = rng.standard_normal((n, n))
        for leaf in (1, 2, 4):
            m = from_dense(data, leaf_size=leaf)
            back = m.to_dense()
            assert back.shape == (n, n)
            assert np.array_equal(back, data), (n, leaf)


def test_roundtrip_rebuild_identical_tree():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((100, 100))
    m = from_dense(data)
    again = from_dense(m.to_dense())
    assert np.array_equal(again.to_dense(), data)
    assert again.padded_dim == m.padded_dim and again.depth == m.depth
    assert _grids(again)[1][0][0, 0] == _grids(m)[1][0][0, 0]


def test_to_dense_empty_is_zeros():
    m = from_dense(np.zeros((4, 4)))
    assert np.array_equal(m.to_dense(), np.zeros((4, 4)))


def test_to_dense_matches_generator():
    a = gen_exponential(512, 1.0)
    d = a.to_dense()
    i, j = np.indices((512, 512))
    assert np.array_equal(d, np.exp(-np.abs(i - j).astype(float)))


def test_norm_matches_dense():
    rng = np.random.default_rng(2)
    for n in (3, 16, 50, 127):
        data = rng.standard_normal((n, n))
        m = from_dense(data)
        ref = float(np.linalg.norm(data))
        assert abs(m.norm() - ref) <= 8 * np.finfo(float).eps * ref


def test_norm_cache_audit():
    rng = np.random.default_rng(3)
    eps = np.finfo(np.float64).eps
    for n in (8, 37, 64):
        assert audit_norm_cache(from_dense(rng.standard_normal((n, n)))) <= 4 * eps


def test_non_square_rejected():
    with pytest.raises(DimensionMismatchError):
        from_dense(np.ones((3, 4)))


def test_bad_leaf_size_rejected():
    with pytest.raises(ValueError):
        from_dense(np.eye(4), leaf_size=3)
    with pytest.raises(ValueError):
        from_dense(np.eye(4), leaf_size=0)
    with pytest.raises(ValueError, match="leaf_size must be a power of two"):
        from_dense(np.eye(4), leaf_size=4.0)


def test_from_dense_stores_float64():
    """Integer and float32 input is stored as float64, value for value."""
    d = np.arange(36).reshape(6, 6) - 17
    for arr in (d, d.astype(np.float32) / 8):
        m = from_dense(arr)
        assert m.dtype == np.float64 and m._stack.dtype == np.float64
        assert np.array_equal(m.to_dense(), arr)


def test_from_dense_rejects_complex_input():
    """Complex input is rejected, not cut to its real part, even when its
    imaginary part is zero."""
    for arr in (np.eye(4) * (1 + 2j), np.eye(4, dtype=np.complex128)):
        with pytest.raises(ValueError, match="complex"):
            from_dense(arr)


# ---------------------------------------------------------------- filtering

def test_filter_tau0_is_identity():
    rng = np.random.default_rng(4)
    m = from_dense(rng.standard_normal((20, 20)))
    f = filter_drop(m, 0.0)
    assert np.array_equal(f.to_dense(), m.to_dense())
    assert _grids(f)[1][0][0, 0] == _grids(m)[1][0][0, 0]


def test_filter_above_total_norm_empties():
    m = from_dense(np.ones((8, 8)))
    f = filter_drop(m, m.norm() * 1.01)
    assert not _grids(f)[2][0][0, 0]


def test_filter_matches_flat_scan():
    """Surviving 4x4 blocks equal a flat scan of block norms."""
    a = gen_exponential(512, 1.0)
    tau = 1e-8
    filtered = filter_drop(a, tau)
    dense = a.to_dense()
    pad = a.padded_dim
    padded = np.zeros((pad, pad))
    padded[:512, :512] = dense
    blocks = padded.reshape(pad // 4, 4, pad // 4, 4).swapaxes(1, 2)
    norms = np.sqrt((blocks * blocks).sum(axis=(2, 3)))
    keep = norms >= tau
    expect = blocks * keep[:, :, None, None]
    flat = expect.swapaxes(1, 2).reshape(pad, pad)[:512, :512]
    assert np.array_equal(filtered.to_dense(), flat)
    # every kept block has norm >= tau > 0, so survivor counts agree exactly
    assert int(_grids(filtered)[2][filtered.depth].sum()) == int(keep.sum())


def test_filter_rejects_bad_tau():
    m = from_dense(np.ones((8, 8)))
    for tau in (-1e-9, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            filter_drop(m, tau)


def test_filter_idempotent():
    rng = np.random.default_rng(5)
    m = from_dense(rng.standard_normal((32, 32)) * 1e-3)
    tau = 2e-3
    once = filter_drop(m, tau)
    twice = filter_drop(once, tau)
    assert np.array_equal(once.to_dense(), twice.to_dense())
    assert _grids(once)[1][0][0, 0] == _grids(twice)[1][0][0, 0]


# ------------------------------------------------------------------ algebra

def test_add_empty_passthrough():
    rng = np.random.default_rng(6)
    m = from_dense(rng.standard_normal((12, 12)))
    e = from_dense(np.zeros((12, 12)))
    s = add(m, e)
    assert np.array_equal(s.to_dense(), m.to_dense())
    assert _grids(s)[1][0][0, 0] == _grids(m)[1][0][0, 0]


def test_add_scale_vs_dense():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((50, 50))
    b = rng.standard_normal((50, 50))
    got = add(from_dense(a), from_dense(b)).to_dense()
    ref = a + b
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
    got = scale(from_dense(a), -2.5).to_dense()
    assert np.linalg.norm(got - (-2.5 * a)) <= 1e-14 * np.linalg.norm(a)


def test_trace_excludes_padding():
    assert trace(from_dense(np.eye(7))) == 7.0
    rng = np.random.default_rng(8)
    d = rng.standard_normal((37, 37))
    assert np.isclose(trace(from_dense(d)), np.trace(d), rtol=1e-14)


def test_add_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        add(from_dense(np.eye(4)), from_dense(np.eye(8)))


# ------------------------------------------------- touched-block construction

def _full_rebuild(padded, leaf_size):
    """Reference build that scans every block of ``padded``: nonzero test,
    +0.0 reset of empty blocks, leaf norms over the whole grid, then tier
    sums, both in the library's one order."""
    padded = padded.copy()
    nb = padded.shape[0] // leaf_size
    blocks = padded.reshape(nb, leaf_size, nb, leaf_size).swapaxes(1, 2)
    nonzero = (blocks != 0).any(axis=(2, 3))
    blocks[~nonzero] = 0.0
    norms, occ = [sum_of_squares(blocks)], [nonzero]
    while norms[-1].shape[0] > 1:
        f, o = norms[-1], occ[-1]
        norms.append(mirrored_child_sum(f))
        occ.append(o[0::2, 0::2] | o[0::2, 1::2] | o[1::2, 0::2] | o[1::2, 1::2])
    return padded, nonzero, norms[::-1], occ[::-1]


def _assert_matches_full_rebuild(m):
    keys, stack = m._keys, m._stack
    assert stack.shape == (keys.size, m.leaf_size, m.leaf_size)
    assert np.all(np.diff(keys) > 0)
    assert (stack != 0).any(axis=(1, 2)).all()  # no stored block is all zero
    assert stack.flags.c_contiguous and not stack.flags.writeable
    assert m._block_norm_sq.shape == keys.shape and not m._block_norm_sq.flags.writeable
    stored = _stored_padded(m)
    padded, nonzero, norms, occ = _full_rebuild(stored, m.leaf_size)
    assert stored.tobytes() == padded.tobytes()
    n = m.logical_dim
    assert m.to_dense().tobytes() == padded[:n, :n].tobytes()
    _, norm_sq, occupied, _ = _grids(m)
    assert np.array_equal(occupied[m.depth], nonzero)
    assert len(norm_sq) == len(occupied) == len(norms) == m.depth + 1
    for k in range(m.depth + 1):
        assert norm_sq[k].tobytes() == norms[k].tobytes(), k
        assert np.array_equal(occupied[k], occ[k]), k
    assert audit_norm_cache(m) == 0.0


def _banded(n, width, seed, leaf_size=4):
    """Random matrix with exact zeros beyond ``width`` of the diagonal, so
    most leaf blocks are empty."""
    rng = np.random.default_rng(seed)
    i, j = np.indices((n, n))
    d = rng.standard_normal((n, n)) * np.exp(-0.5 * np.abs(i - j))
    d[np.abs(i - j) > width] = 0.0
    return from_dense(d, leaf_size=leaf_size)


def test_from_dense_matches_full_rebuild():
    _assert_matches_full_rebuild(_banded(45, 5, 27))
    # a block of -0.0 is all zero, so it is not stored
    d = np.ones((8, 8))
    d[:4, 4:] = -0.0
    m = from_dense(d)
    assert m._keys.tolist() == [0, 2, 3]
    _assert_matches_full_rebuild(m)
    # a block of 1e-200 has a squared norm of 0, yet it is stored
    d[:4, 4:] = 1e-200
    m = from_dense(d)
    assert m._keys.tolist() == [0, 1, 2, 3]
    assert _grids(m)[1][m.depth][0, 1] == 0.0
    _assert_matches_full_rebuild(m)


def test_grids_low_sq_is_each_node_smallest_leaf_norm():
    """``_grids(m)[3][t]`` holds, for every tier t, the smallest leaf
    squared norm under each node, an unstored leaf counting as 0: against
    a brute-force minimum over each node's leaves, on trees with unstored
    leaves and a stored block of 1e-200 (its squared norm underflows to
    0), at n that pad and at leaf sizes 1, 4 and 16."""
    rng = np.random.default_rng(24)
    positive_above_leaves = False
    for n in (37, 64, 100):
        i, j = np.indices((n, n))
        for leaf in (1, 4, 16):
            for width in (n, 5):
                d = rng.standard_normal((n, n)) * np.exp(-0.3 * np.abs(i - j))
                d[np.abs(i - j) > width] = 0.0
                d[:leaf, leaf:2 * leaf] = 1e-200
                m = from_dense(d, leaf_size=leaf)
                assert 1 in m._keys.tolist()
                nb = m.block_grid
                padded = np.zeros((m.padded_dim, m.padded_dim))
                padded[:n, :n] = d
                leaf_sq = sum_of_squares(
                    padded.reshape(nb, leaf, nb, leaf).swapaxes(1, 2))
                assert leaf_sq[0, 1] == 0.0
                low_sq = _grids(m)[3]
                assert len(low_sq) == m.depth + 1
                for t in range(m.depth + 1):
                    s = nb >> t
                    want = leaf_sq.reshape(1 << t, s, 1 << t, s).min(axis=(1, 3))
                    assert low_sq[t].tobytes() == want.tobytes(), (n, leaf, width, t)
                    positive_above_leaves |= t < m.depth and bool(low_sq[t].any())
    assert positive_above_leaves


def test_from_dense_copies_a_fully_stored_input():
    """An input whose every block is stored is copied, never aliased: with
    one block, with leaf size 1, padded or not."""
    for n, leaf in ((4, 4), (3, 4), (8, 1), (64, 4)):
        d = np.random.default_rng(n).standard_normal((n, n))
        m = from_dense(d, leaf_size=leaf)
        assert m._keys.size == m.block_grid ** 2
        _assert_matches_full_rebuild(m)
        before = m.to_dense()
        d[...] = 0.0
        assert d.flags.writeable
        assert m.to_dense().tobytes() == before.tobytes()


def test_from_dense_strips_keep_every_block(monkeypatch):
    """from_dense reads its input in strips of block rows; with several
    strips (the last one partial) every nonzero block is stored with its
    exact bytes, -0.0 elements included, for leaf sizes 1..8, padded and
    unpadded sides, from a C-ordered and a Fortran-ordered input."""
    for n, leaf in ((45, 4), (64, 4), (33, 1), (24, 8), (20, 2)):
        rng = np.random.default_rng(n)
        i, j = np.indices((n, n))
        d = rng.standard_normal((n, n))
        d[np.abs(i - j) > 3] = 0.0
        d[0, 1] = -0.0 if leaf > 1 else 0.0  # a -0.0 beside nonzeros
        d[n - 1, 0] = 1.5  # a lone nonzero block in the last block row
        m = from_dense(d, leaf_size=leaf)
        # three block rows per strip, so the last strip is partial
        monkeypatch.setattr(quadtree, "_SCRATCH_ELEMENTS",
                            3 * leaf * m.padded_dim)
        pad = np.zeros((m.padded_dim, m.padded_dim))
        pad[:n, :n] = d
        for order in (d, np.asfortranarray(d)):
            m = from_dense(order, leaf_size=leaf)
            assert m.block_grid % 3 != 0
            _assert_matches_full_rebuild(m)
            assert _stored_padded(m).tobytes() == pad.tobytes()
            assert np.signbit(m.to_dense()[0, 1]) == (leaf > 1)
        monkeypatch.undo()


def test_from_dense_makes_no_padded_copy():
    """from_dense of a tridiagonal n=1025 input at leaf 4 (padded to 2048)
    peaks below one n x n float64 array beyond the input: it pads one
    strip at a time.  Padding the whole input first peaks at 4.7."""
    n = 1025
    d = np.diag(np.full(n, 2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    tracemalloc.start()
    try:
        m = from_dense(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.padded_dim == 2048
    assert peak < n * n * 8, peak / (n * n * 8)


def test_from_dense_allocates_no_dense_copy():
    """On a banded n=4096 input, from_dense allocates less than a quarter
    of one n x n float64 array beyond the input (the dense pyramids, the
    block index and the stored blocks)."""
    n = 4096
    d = _banded_dense(n, 31)
    tracemalloc.start()
    try:
        m = from_dense(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m._keys.size < m.block_grid * 6
    assert peak < n * n * 8 / 4, peak / (n * n * 8)


def test_spamm_output_matches_full_rebuild():
    a = _banded(61, 9, 20)
    b = _banded(61, 5, 21)
    for tau in (0.0, 1e-3):
        c, _ = spamm(a, b, SpammConfig(tau=tau))
        _assert_matches_full_rebuild(c)
    # C11 = I*I + I*(-I) is written by the multiply but cancels to exact zero
    eye = np.eye(4)
    z = np.zeros((4, 4))
    c, _ = spamm(from_dense(np.block([[eye, eye], [z, z]])),
                 from_dense(np.block([[eye, z], [-eye, z]])))
    assert not _grids(c)[2][c.depth].any()
    _assert_matches_full_rebuild(c)


def test_add_output_matches_full_rebuild():
    a = _banded(70, 6, 22)
    b = _banded(70, 14, 23)  # blocks where a is empty
    _assert_matches_full_rebuild(add(a, b))
    # blocks where only one side is nonzero, and blocks that cancel exactly
    d = a.to_dense()
    half = np.where(np.indices(d.shape)[0] < 35, -d, 0.0)
    s = add(a, from_dense(half))
    occupied = _grids(s)[2][s.depth]
    assert not occupied[:8].any() and occupied[9:].any()
    _assert_matches_full_rebuild(s)


def test_scale_output_matches_full_rebuild():
    m = _banded(50, 7, 24)
    for s in (2.0, -1.0, 0.0):
        _assert_matches_full_rebuild(scale(m, s))
    assert not _grids(scale(m, 0.0))[2][m.depth].any()
    # a negative scale keeps empty blocks at +0.0, not -0.0
    neg = scale(m, -1.0)
    nb, b = neg.block_grid, neg.leaf_size
    blocks = padded_dense(neg).reshape(nb, b, nb, b).swapaxes(1, 2)
    empty = blocks[~_grids(neg)[2][neg.depth]]
    assert empty.size and empty.tobytes() == np.zeros_like(empty).tobytes()


def test_filter_drop_output_matches_full_rebuild():
    m = _banded(64, 12, 25)
    f = filter_drop(m, 1e-2)
    assert f is not m
    _assert_matches_full_rebuild(f)


# ------------------------------------------------ trace and distance bits

def test_trace_bits_match_dense_diagonal():
    rng = np.random.default_rng(28)
    for n in (1, 13, 37, 61):
        d = rng.standard_normal((n, n))
        d[4:8, 4:8] = 0.0  # a diagonal block that is not stored
        m = from_dense(d)
        ref = float(np.add.reduce(np.diagonal(m.to_dense())))
        assert trace(m) == ref, n


def test_distance_matches_dense_norm():
    a = _banded(77, 4, 29)
    b = _banded(77, 11, 30)  # blocks where a is empty, and shared blocks
    for x, y in ((a, b), (a, scale(a, -0.5)), (a, from_dense(np.zeros((77, 77))))):
        ref = float(np.linalg.norm(x.to_dense() - y.to_dense()))
        got = distance(x, y)
        assert abs(got - ref) <= 1e-13 * ref
        assert distance(y, x) == got
    assert distance(a, a) == 0.0


def test_distance_of_flagged_trees_matches_dense_norm():
    """Two flagged trees are subtracted on their stored halves, each
    strict-upper block counted for its mirror too; a flagged tree and an
    unflagged one on every block.  Either way the distance is the dense
    norm to rounding and symmetric in its arguments bit for bit."""
    x = from_dense(_symmetric_dense(61, 31))
    y = from_dense(_symmetric_dense(61, 32))
    general = _banded(61, 9, 33)
    assert x.symmetric and y.symmetric and not general.symmetric
    for a, b in ((x, y), (x, general), (x, scale(x, -0.5))):
        ref = float(np.linalg.norm(a.to_dense() - b.to_dense()))
        got = distance(a, b)
        assert abs(got - ref) <= 1e-13 * ref
        assert distance(b, a) == got
    assert distance(x, x) == 0.0


def _banded_dense(n, seed):
    """Dense n x n array that is zero beyond 6 off the diagonal."""
    rng = np.random.default_rng(seed)
    d = np.zeros((n, n))
    for off in range(-6, 7):
        i = np.arange(max(0, -off), min(n, n - off))
        d[i, i + off] = rng.standard_normal(i.size) * 0.5 ** abs(off)
    return d


def test_derived_tree_ops_allocate_no_dense_array():
    """No operation on a tree allocates an n x n array: on a banded n=4096
    tree, the peak allocation of each stays below a quarter of one n x n
    float64 array (what is left is the multiply's operand grids: the block
    index and the norm and occupancy pyramids that ``_grids`` builds)."""
    n = 4096
    m = from_dense(_banded_dense(n, 31))
    other = scale(m, 2.0)
    _, norm_sq, occupied, _ = _grids(m)
    norms = np.sqrt(norm_sq[m.depth][occupied[m.depth]])
    tau = float(np.median(norms))
    ops = {
        "spamm": lambda: spamm(m, m, SpammConfig(tau=1e-10)),
        "add": lambda: add(m, other),
        "scale": lambda: scale(m, -1.0),
        "filter_drop": lambda: filter_drop(m, tau),
        "distance": lambda: distance(m, other),
        "trace": lambda: trace(m),
    }
    limit = n * n * 8 / 4
    for name, op in ops.items():
        tracemalloc.start()
        try:
            result = op()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, (name, peak / (n * n * 8))
        del result


def test_trees_hold_only_their_blocks():
    """A tree holds no array sized by the block grid squared, whichever
    operation made it, and a sum, a scaling or a filtered tree is built in
    O(stored blocks): on the banded n=4096 tree above, the peak allocation
    of each stays below 1/16 of one n x n float64 array."""
    n = 4096
    m = from_dense(_banded_dense(n, 31))
    other = scale(m, 2.0)
    tau = float(np.median(np.linalg.norm(m._stack, axis=(1, 2))))
    ops = {
        "add": lambda: add(m, other),
        "scale": lambda: scale(m, -1.0),
        "filter_drop": lambda: filter_drop(m, tau),
    }
    trees = [m, spamm(m, m, SpammConfig(tau=1e-10))[0]]
    for name, op in ops.items():
        tracemalloc.start()
        try:
            trees.append(op())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 16, (name, peak / (n * n * 8))
    for tree in trees:
        arrays = [getattr(tree, slot) for slot in type(tree).__slots__
                  if isinstance(getattr(tree, slot), np.ndarray)]
        assert len(arrays) >= 3
        for arr in arrays:
            assert arr.size < tree.block_grid ** 2, arr.shape


# ---------------------------------------------------------------- leaf norms

_NORM_LEAVES = (1, 2, 4, 8, 16, 64)


def _wide_range_blocks(rng, count, b):
    """``count`` random b x b blocks whose entries span 40 binades, so that
    a change in summation order shows in the bits of their norms."""
    return (rng.standard_normal((count, b, b))
            * np.exp2(rng.integers(-20, 21, (count, b, b))))


@pytest.mark.parametrize("leaf", _NORM_LEAVES)
def test_leaf_norms_are_accurate(leaf):
    """Every cached leaf norm of a tree with wide-range entries lies within
    leaf**2 * eps (relative) of the ``math.fsum`` of its squares, and
    the pyramid is the library's one order exactly (``audit_norm_cache``):
    on an unflagged tree and on a flagged one, at n that pads."""
    rng = np.random.default_rng(40 + leaf)
    n = 3 * leaf + 1
    d = _wide_range_blocks(rng, 1, n)[0]
    plain, flagged = (from_dense(x, leaf_size=leaf) for x in (d, d + d.T))
    assert flagged.symmetric and not plain.symmetric
    assert audit_norm_cache(plain) == audit_norm_cache(flagged) == 0.0


@pytest.mark.parametrize("leaf", _NORM_LEAVES)
def test_leaf_norm_depends_on_block_values_alone(leaf):
    """``_leaf_norm_sq`` gives a block the same bytes in stacks of 1 to 257
    blocks at several offsets, on bases 0 and 8 bytes past a 64-byte
    boundary, after ``np.take`` and a boolean index, and, for 16 blocks,
    in a strided and an F-ordered view: a block's norm depends on its
    values alone."""
    rng = np.random.default_rng(leaf)
    block = _wide_range_blocks(rng, 1, leaf)[0]
    want = quadtree._leaf_norm_sq(block[None]).tobytes()
    at, size, width = 256, 513, leaf * leaf * 8
    for base in (0, 8):
        raw = np.empty(size * width + 64 + base, dtype=np.uint8)
        start = -raw.ctypes.data % 64 + base
        stack = raw[start:start + size * width].view(np.float64)
        stack = stack.reshape(size, leaf, leaf)
        stack[:] = _wide_range_blocks(rng, size, leaf)
        stack[at] = block
        for m in range(1, 258):
            for offset in {0, m // 2, m - 1}:
                got = quadtree._leaf_norm_sq(stack[at - offset:at - offset + m])
                assert got[offset].tobytes() == want, (base, m, offset)
    picked = np.take(stack, [at, 3, at], axis=0)
    assert quadtree._leaf_norm_sq(picked)[[0, 2]].tobytes() == want * 2
    mask = np.zeros(size, dtype=bool)
    mask[[5, at, 300]] = True
    assert quadtree._leaf_norm_sq(stack[mask])[1].tobytes() == want
    # views of 16 blocks, so that a layout-dependent sum shows in some
    blocks = np.ascontiguousarray(stack[at - 8:at + 8])
    wide = np.zeros((16, leaf, 2 * leaf))
    wide[:, :, ::2] = blocks
    flipped = np.ascontiguousarray(blocks.swapaxes(1, 2)).swapaxes(1, 2)
    want = quadtree._leaf_norm_sq(blocks).tobytes()
    assert quadtree._leaf_norm_sq(wide[:, :, ::2]).tobytes() == want
    assert quadtree._leaf_norm_sq(flipped).tobytes() == want


_NORMS_OF_SAVED_STACKS = """
import sys
import numpy as np
from numpy._core import _multiarray_umath as umath
from spamm.quadtree import _leaf_norm_sq
print(" ".join(f for f, on in umath.__cpu_features__.items() if on))
for path in sys.argv[1:]:
    np.save(path + ".norms.npy", _leaf_norm_sq(np.load(path)))
"""


def _enabled_dispatch_groups():
    """The CPU feature groups numpy dispatches to beyond its baseline that
    this machine runs, so any of them can be disabled."""
    try:
        from numpy._core import _multiarray_umath as umath
        return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    except (ImportError, AttributeError):
        return []


def test_leaf_norms_ignore_cpu_dispatch(tmp_path):
    """With every dispatch group numpy reports for this machine disabled
    (``NPY_DISABLE_CPU_FEATURES``), a subprocess gives the leaf norms of
    saved stacks the bytes this process gives them."""
    groups = _enabled_dispatch_groups()
    if not groups:
        pytest.skip("numpy dispatches to no CPU feature group beyond its baseline here")
    rng = np.random.default_rng(29)
    paths = []
    for leaf in _NORM_LEAVES:
        paths.append(tmp_path / f"leaf{leaf}.npy")
        np.save(paths[-1], _wide_range_blocks(rng, 33, leaf))
    src = os.path.dirname(os.path.dirname(quadtree.__file__))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(groups),
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", _NORMS_OF_SAVED_STACKS, *map(str, paths)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert not set(groups) & set(run.stdout.split()), run.stdout
    for path in paths:
        got = np.load(str(path) + ".norms.npy")
        assert got.tobytes() == quadtree._leaf_norm_sq(np.load(path)).tobytes(), path.name


# ------------------------------------------------------------------ symmetry

def _symmetric_dense(n, seed):
    """Bitwise-symmetric random matrix with exponential off-diagonal decay."""
    rng = np.random.default_rng(seed)
    i, j = np.indices((n, n))
    d = rng.standard_normal((n, n)) * np.exp(-0.25 * np.abs(i - j))
    return d + d.T


@pytest.mark.parametrize("dtype", [np.float64])
@pytest.mark.parametrize("leaf", [1, 4, 8])
@pytest.mark.parametrize("n", [100, 128])
def test_mirrored_norms_are_bit_equal(n, leaf, dtype):
    """On a bitwise-symmetric tree, and on its symmetric square, every
    cached norm has the bits of its mirror's, at every tier."""
    x = from_dense(_symmetric_dense(n, n + leaf), leaf_size=leaf)
    assert x.dtype == dtype
    c, stats = spamm(x, x, SpammConfig(tau=1e-2))
    assert stats.pruned_calls > 0
    for m in (x, c):
        norm_sq = _grids(m)[1]
        assert len(norm_sq) == m.depth + 1
        for k, norms in enumerate(norm_sq):
            bits = norms.view(np.uint64)
            assert np.array_equal(bits, bits.T), k
        assert m.symmetric and is_bitwise_symmetric(m)


def test_from_dense_symmetric_flag_is_exact():
    """from_dense flags a tree symmetric exactly when it equals its
    transpose bit for bit: a value 1 ulp off its mirror, a -0.0 facing a
    +0.0 inside a stored block, or an unmirrored block clears the flag;
    padding and the empty tree keep it (a 1 x 1 leaf of -0.0 is all zero,
    so it is not stored)."""
    d = _symmetric_dense(45, 9)
    d[np.abs(np.subtract.outer(np.arange(45), np.arange(45))) > 12] = 0.0
    off_by_ulp = d.copy()
    off_by_ulp[3, 5] = np.nextafter(d[3, 5], np.inf)
    signed_zero = d.copy()
    signed_zero[2, 6] = -0.0
    signed_zero[6, 2] = 0.0
    pattern = d.copy()
    pattern[0, 40] = 1.0
    for leaf in (1, 4, 8):
        cases = [(d, True), (off_by_ulp, False), (signed_zero, leaf == 1),
                 (pattern, False), (np.zeros((45, 45)), True)]
        for arr, want in cases:
            m = from_dense(arr, leaf_size=leaf)
            assert m.symmetric == is_bitwise_symmetric(m) == want, leaf


def _upper_blocks(m, dense):
    """Keys and stack of the blocks with i <= j holding a nonzero (-0.0
    counts as zero) of ``dense`` zero-padded to ``m``'s square."""
    nb, b = m.block_grid, m.leaf_size
    padded = np.zeros((m.padded_dim, m.padded_dim))
    padded[:m.logical_dim, :m.logical_dim] = dense
    blocks = padded.reshape(nb, b, nb, b).swapaxes(1, 2).reshape(-1, b, b)
    i, j = np.divmod(np.arange(nb * nb), nb)
    keys = np.flatnonzero((blocks != 0).any(axis=(1, 2)) & (i <= j))
    return keys, blocks[keys]


@pytest.mark.parametrize("leaf", [1, 4, 8])
def test_flagged_trees_store_their_upper_blocks(leaf):
    """A tree flagged symmetric stores exactly its blocks with i <= j that
    hold a nonzero, in key order, whichever operation made it: from_dense,
    tc2_initial_guess, the symmetric square, add, scale and filter_drop.
    Its to_dense writes both triangles and matches the dense result of
    the operation: bit for bit for from_dense (a round trip, -0.0 entries
    and padding included), the initial guess and the square (against the
    same product of a second, equal tree, which stores every block), and
    in value for the rest."""
    n = 45
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    d, e = _symmetric_dense(n, 11), _symmetric_dense(n, 12)
    d[dist > 12] = 0.0
    e[dist > 20] = 0.0
    rows, cols = np.indices((n, n))
    if leaf > 1:  # inside stored blocks (a 1 x 1 block of -0.0 is not stored)
        d[(dist == 1) & (np.minimum(rows, cols) % 7 == 0)] = -0.0
    x, y = from_dense(d, leaf), from_dense(e, leaf)
    assert x.symmetric and y.symmetric
    norms = np.sort(np.sqrt(x._block_norm_sq))
    tau = float(np.sqrt(norms[norms.size // 2] * norms[norms.size // 2 + 1]))
    kept = _upper_blocks(x, d)[1]
    dropped = d.copy()
    for i in range(0, n, leaf):
        for j in range(0, n, leaf):
            if np.sqrt((d[i:i + leaf, j:j + leaf] ** 2).sum()) < tau:
                dropped[i:i + leaf, j:j + leaf] = 0.0
    assert 0 < np.count_nonzero(dropped) < np.count_nonzero(d) and kept.size
    bitwise = {
        "from_dense": (x, d),
        "tc2_initial_guess": (tc2_initial_guess(x), dense_initial_guess(d)),
        "square": (spamm(x, x)[0], spamm(x, from_dense(d, leaf))[0].to_dense()),
    }
    valued = {
        "add": (add(x, y), d + e),
        "scale": (scale(x, -2.0), -2.0 * d),
        "filter_drop": (filter_drop(x, tau), dropped),
    }
    for name, (m, dense) in {**bitwise, **valued}.items():
        assert m.symmetric, name
        keys, stack = _upper_blocks(m, m.to_dense())
        assert m._keys.tolist() == keys.tolist(), name
        if name in bitwise:
            assert m._stack.tobytes() == stack.tobytes(), name
            assert m.to_dense().tobytes() == dense.tobytes(), name
        else:  # a negative scale leaves -0.0 in the padding of a stored block
            assert np.array_equal(m._stack, stack), name
            assert np.array_equal(m.to_dense(), dense), name


@pytest.mark.parametrize("leaf", [1, 4, 8])
@pytest.mark.parametrize("n", [45, 64])
def test_lower_half_readers_agree(n, leaf):
    """Every reader of the blocks a tree represents gives the key-to-block
    bytes of ``conftest.full_blocks``: ``_full_blocks``, the block slices
    of ``to_dense`` and ``_grids``' index read through ``_gather``, its
    strict-lower entries also alone.  On a flagged tree with -0.0 entries,
    a block of -0.0 and its mirror (not stored), its negative (-0.0 in the
    padding of stored blocks) and its square, on an unflagged one, and on
    the empty flagged tree."""
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    d = _symmetric_dense(n, 21)
    d[dist > 12] = 0.0
    rows, cols = np.indices((n, n))
    d[(dist == 1) & (np.minimum(rows, cols) % 7 == 0)] = -0.0
    d[leaf:2 * leaf, 2 * leaf:3 * leaf] = -0.0
    d[2 * leaf:3 * leaf, leaf:2 * leaf] = -0.0
    general = d.copy()
    general[0, n - 1] = 1.0
    x = from_dense(d, leaf)
    trees = {"flagged": (x, True), "negative": (scale(x, -1.0), True),
             "square": (spamm(x, x)[0], True),
             "unflagged": (from_dense(general, leaf), False),
             "empty": (from_dense(np.zeros((n, n)), leaf), True)}
    for name, (m, flagged) in trees.items():
        assert m.symmetric == flagged, name
        nb, b = m.block_grid, m.leaf_size
        keys, stack = full_blocks(m)
        assert (keys.size == 0) == (name == "empty"), name
        if name in ("flagged", "negative", "unflagged"):  # the -0.0 blocks
            assert nb + 2 not in keys.tolist() and 2 * nb + 1 not in keys.tolist()
        got_keys, got = quadtree._full_blocks(m)
        assert got_keys.tolist() == keys.tolist(), name
        assert got.flags.c_contiguous and got.tobytes() == stack.tobytes(), name
        padded = np.zeros((nb, nb, b, b))
        padded[keys // nb, keys % nb] = stack
        padded = padded.swapaxes(1, 2).reshape(m.padded_dim, m.padded_dim)
        assert m.to_dense().tobytes() == padded[:n, :n].tobytes(), name
        index = _grids(m)[0].reshape(-1)
        held = np.flatnonzero(index != m._keys.size)
        assert held.tolist() == keys.tolist(), name
        got = quadtree._gather(m._stack, index[held])
        assert got.tobytes() == stack.tobytes(), name
        lower = index[held] < 0  # alone, in one transposing copy
        assert lower.any() == (flagged and name != "empty"), name
        got = quadtree._gather(m._stack, index[held][lower])
        assert got.tobytes() == stack[lower].tobytes(), name
