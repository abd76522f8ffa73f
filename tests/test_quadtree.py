"""Quadtree construction, norm caching, padding, and the dropping filter."""

import tracemalloc

import numpy as np
import pytest

from spamm import quadtree
from spamm.quadtree import (DimensionMismatchError, add, distance, filter_drop,
                            from_dense, scale, trace)
from spamm.generators import gen_exponential
from spamm.multiply import SpammConfig, spamm

from conftest import (audit_norm_cache, is_bitwise_symmetric,
                      mirrored_child_sum, mirrored_sum_of_squares,
                      padded_dense)


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
    assert m.depth == 0 and m._occupied[0][0, 0]  # the root is a leaf
    assert m._norm_sq[0][0, 0] == 4.0
    assert m.padded_dim == 4 and m.depth == 0


def test_zero8_empty_root():
    m = from_dense(np.zeros((8, 8)), leaf_size=4)
    assert not m._occupied[0][0, 0]
    assert m.depth == 1
    assert m._norm_sq[0][0, 0] == 0.0


def test_ones5_padding_and_quadrants():
    m = from_dense(np.ones((5, 5)), leaf_size=4)
    assert m.padded_dim == 8
    assert m.depth == 1
    assert m._norm_sq[0][0, 0] == 25.0
    # quadrant 22 covers rows/cols 4..7; only element (4,4) is inside the
    # logical region, so its subtree norm is exactly 1
    assert m._norm_sq[1][1, 1] == 1.0


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
    assert again._norm_sq[0][0, 0] == m._norm_sq[0][0, 0]


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
    assert f._norm_sq[0][0, 0] == m._norm_sq[0][0, 0]


def test_filter_above_total_norm_empties():
    m = from_dense(np.ones((8, 8)))
    f = filter_drop(m, m.norm() * 1.01)
    assert not f._occupied[0][0, 0]


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
    assert int(filtered._occupied[filtered.depth].sum()) == int(keep.sum())


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
    assert once._norm_sq[0][0, 0] == twice._norm_sq[0][0, 0]


# ------------------------------------------------------------------ algebra

def test_add_empty_passthrough():
    rng = np.random.default_rng(6)
    m = from_dense(rng.standard_normal((12, 12)))
    e = from_dense(np.zeros((12, 12)))
    s = add(m, e)
    assert np.array_equal(s.to_dense(), m.to_dense())
    assert s._norm_sq[0][0, 0] == m._norm_sq[0][0, 0]


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
    sums, both in the library's one mirrored order."""
    padded = padded.copy()
    nb = padded.shape[0] // leaf_size
    blocks = padded.reshape(nb, leaf_size, nb, leaf_size).swapaxes(1, 2)
    nonzero = (blocks != 0).any(axis=(2, 3))
    blocks[~nonzero] = 0.0
    norms, occ = [mirrored_sum_of_squares(blocks)], [nonzero]
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
    stored = _stored_padded(m)
    padded, nonzero, norms, occ = _full_rebuild(stored, m.leaf_size)
    assert stored.tobytes() == padded.tobytes()
    n = m.logical_dim
    assert m.to_dense().tobytes() == padded[:n, :n].tobytes()
    assert np.array_equal(m._occupied[m.depth], nonzero)
    assert len(m._norm_sq) == len(m._occupied) == len(norms) == m.depth + 1
    for k in range(m.depth + 1):
        assert m._norm_sq[k].tobytes() == norms[k].tobytes(), k
        assert np.array_equal(m._occupied[k], occ[k]), k
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
    assert m._norm_sq[m.depth][0, 1] == 0.0
    _assert_matches_full_rebuild(m)


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
    assert not c._occupied[c.depth].any()
    _assert_matches_full_rebuild(c)


def test_add_output_matches_full_rebuild():
    a = _banded(70, 6, 22)
    b = _banded(70, 14, 23)  # blocks where a is empty
    _assert_matches_full_rebuild(add(a, b))
    # blocks where only one side is nonzero, and blocks that cancel exactly
    d = a.to_dense()
    half = np.where(np.indices(d.shape)[0] < 35, -d, 0.0)
    s = add(a, from_dense(half))
    assert not s._occupied[s.depth][:8].any() and s._occupied[s.depth][9:].any()
    _assert_matches_full_rebuild(s)


def test_scale_output_matches_full_rebuild():
    m = _banded(50, 7, 24)
    for s in (2.0, -1.0, 0.0):
        _assert_matches_full_rebuild(scale(m, s))
    assert not scale(m, 0.0)._occupied[m.depth].any()
    # a negative scale keeps empty blocks at +0.0, not -0.0
    neg = scale(m, -1.0)
    nb, b = neg.block_grid, neg.leaf_size
    blocks = padded_dense(neg).reshape(nb, b, nb, b).swapaxes(1, 2)
    empty = blocks[~neg._occupied[neg.depth]]
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
    float64 array (what is left is the dense pyramids and the block index)."""
    n = 4096
    m = from_dense(_banded_dense(n, 31))
    other = scale(m, 2.0)
    norms = np.sqrt(m._norm_sq[m.depth][m._occupied[m.depth]])
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
        assert len(m._norm_sq) == m.depth + 1
        for k, norms in enumerate(m._norm_sq):
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
