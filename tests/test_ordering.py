"""Space-filling-curve machinery: Hilbert atom ordering and Morton keys."""

import itertools

import numpy as np
import pytest

from spamm.multiply import PrunedBox, SpammConfig, spamm
from spamm.ordering import (
    AtomLayout,
    MortonKey,
    apply_ordering,
    hilbert_cell,
    hilbert_index,
    morton_key,
    order_atoms,
    read_permutation,
    split_key_ranges,
    write_permutation,
)
from spamm.ordering import _cells_to_hilbert, _hilbert_to_cells
from spamm.generators import chain_positions, jittered_grid_positions
from spamm.quadtree import from_dense


_UNIT = (np.zeros(3), np.ones(3))


# ------------------------------------------------------------ Hilbert curve

def test_order1_planar_restriction():
    cells = [hilbert_cell(i, 1) for i in range(8)]
    assert sorted(cells) == sorted(itertools.product((0, 1), repeat=3))
    planar = [(x, y) for x, y, z in cells if z == 0]
    assert planar == [(0, 0), (0, 1), (1, 1), (1, 0)]


def test_bijection_and_roundtrip_orders_1_to_6():
    for order in range(1, 7):
        side = 1 << order
        total = side ** 3
        idx = np.arange(total, dtype=np.uint64)
        cells = _hilbert_to_cells(idx, order)
        # bijection: every grid cell hit exactly once
        flat = (cells[0] * side + cells[1]) * side + cells[2]
        assert len(np.unique(flat)) == total
        # round-trip
        assert np.array_equal(_cells_to_hilbert(cells, order), idx)


def test_public_index_consistent_with_cells():
    rng = np.random.default_rng(0)
    for order in range(1, 7):
        side = 1 << order
        for _ in range(50):
            cell = tuple(int(v) for v in rng.integers(0, side, size=3))
            point = (np.array(cell) + 0.5) / side
            idx = hilbert_index(point, _UNIT, order)
            assert hilbert_cell(idx, order) == cell


def test_adjacent_indices_are_near_in_space():
    order = 4
    cells = _hilbert_to_cells(np.arange(8 ** order, dtype=np.uint64), order)
    steps = np.abs(np.diff(cells.astype(np.int64), axis=1)).max(axis=0)
    assert steps.max() <= 2


def test_hilbert_validation():
    with pytest.raises(ValueError):
        hilbert_index((2.0, 0.0, 0.0), _UNIT, 3)  # outside bounds
    with pytest.raises(ValueError):
        hilbert_index((0.5, 0.5, 0.5), _UNIT, 0)
    with pytest.raises(ValueError):
        hilbert_index((0.5, 0.5, 0.5), _UNIT, 21)
    with pytest.raises(ValueError):
        hilbert_cell(8, 1)


# ------------------------------------------------------------ atom ordering

def test_single_atom_identity():
    layout = order_atoms([[3.0, 1.0, 2.0]])
    assert layout.permutation.tolist() == [0]


def test_atoms_already_ordered_fixed_point():
    pts = jittered_grid_positions(60, seed=3)
    first = order_atoms(pts)
    sorted_pts = pts[np.argsort(first.permutation)]
    second = order_atoms(sorted_pts)
    assert np.array_equal(second.permutation, np.arange(60))


def test_ordering_shortens_walk_through_cluster():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 10.0, size=(100, 3))
        layout = order_atoms(pts)
        walk = pts[np.argsort(layout.permutation)]
        hilbert_mean = np.linalg.norm(np.diff(walk, axis=0), axis=1).mean()
        shuffled = pts[rng.permutation(100)]
        random_mean = np.linalg.norm(np.diff(shuffled, axis=0), axis=1).mean()
        assert hilbert_mean <= random_mean


# ---------------------------------------------------------- apply_ordering

def _layout_for(perm):
    perm = np.asarray(perm, dtype=np.int64)
    return AtomLayout(positions=np.zeros((perm.size, 3)),
                      permutation=perm, curve_order=1)


def test_apply_identity_permutation_unchanged():
    rng = np.random.default_rng(1)
    m = from_dense(rng.standard_normal((24, 24)))
    out = apply_ordering(m, _layout_for(np.arange(6)), 4)
    assert np.array_equal(out.to_dense(), m.to_dense())


def test_apply_then_inverse_roundtrips():
    rng = np.random.default_rng(2)
    d = rng.standard_normal((32, 32))
    perm = rng.permutation(8)
    fwd = apply_ordering(from_dense(d), _layout_for(perm), 4)
    back = apply_ordering(fwd, _layout_for(np.argsort(perm)), 4)
    assert np.array_equal(back.to_dense(), d)


def test_apply_preserves_trace_norm_spectrum():
    rng = np.random.default_rng(3)
    d = rng.standard_normal((40, 40))
    d = d + d.T
    perm = rng.permutation(10)
    out = apply_ordering(from_dense(d), _layout_for(perm), 4).to_dense()
    assert np.array_equal(np.sort(out.ravel()), np.sort(d.ravel()))
    assert abs(np.trace(out) - np.trace(d)) <= 1e-13 * abs(np.trace(d)) + 1e-13
    assert np.allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(d),
                       atol=1e-10)


def test_apply_size_mismatch_rejected():
    m = from_dense(np.eye(24))
    with pytest.raises(ValueError):
        apply_ordering(m, _layout_for(np.arange(5)), 4)


def test_block_permutation_moves_blocks():
    d = np.zeros((8, 8))
    d[0:4, 0:4] = 7.0
    out = apply_ordering(from_dense(d), _layout_for([1, 0]), 4).to_dense()
    assert np.all(out[4:8, 4:8] == 7.0)
    assert np.all(out[0:4, 0:4] == 0.0)


# -------------------------------------------------------------- Morton keys

def test_morton_origin_and_units():
    assert morton_key(PrunedBox(0, 0, 0, 8, 0), 8) == MortonKey(0, 0)
    assert morton_key(PrunedBox(1, 0, 0, 1, 3), 8).key == 4
    assert morton_key(PrunedBox(0, 1, 0, 1, 3), 8).key == 2
    assert morton_key(PrunedBox(0, 0, 1, 1, 3), 8).key == 1


def _z_curve(order):
    if order == 0:
        return [(0, 0, 0)]
    half = 1 << (order - 1)
    sub = _z_curve(order - 1)
    return [(i * half + si, j * half + sj, k * half + sk)
            for i, j, k in itertools.product((0, 1), repeat=3)
            for si, sj, sk in sub]


def test_morton_sort_is_z_curve():
    boxes = [PrunedBox(i, j, k, 1, 3)
             for i in range(8) for j in range(8) for k in range(8)]
    boxes.sort(key=lambda bx: morton_key(bx, 8).key)
    got = [(bx.i_lo, bx.j_lo, bx.k_lo) for bx in boxes]
    assert got == _z_curve(3)


def test_morton_rejects_inconsistent_box():
    with pytest.raises(ValueError):
        morton_key(PrunedBox(0, 0, 0, 4, 3), 8)  # edge must be 1 at tier 3


# -------------------------------------------------------- key-range splitting

def test_split_key_ranges_balance_and_cover():
    keys = np.arange(17)
    ranges = split_key_ranges(keys, 5)
    assert ranges[0][0] == 0 and ranges[-1][1] == 17
    sizes = [stop - start for start, stop in ranges]
    assert max(sizes) - min(sizes) <= 1
    for (_, a_stop), (b_start, _) in zip(ranges[:-1], ranges[1:]):
        assert a_stop == b_start
    assert split_key_ranges(np.arange(2), 4) == [(0, 1), (1, 2), (2, 2), (2, 2)]
    with pytest.raises(ValueError):
        split_key_ranges(keys, 0)
    with pytest.raises(ValueError):
        split_key_ranges(np.array([3, 1, 2]), 2)


# --------------------------------------------------------- permutation files

def test_permutation_file_format_and_roundtrip(tmp_path):
    layout = _layout_for([2, 0, 1])
    path = tmp_path / "perm.txt"
    write_permutation(layout, path)
    # one original index per line, in new order: new 0 <- old 1, etc.
    assert path.read_text().splitlines() == ["1", "2", "0"]
    assert np.array_equal(read_permutation(path), [2, 0, 1])
    big = np.random.default_rng(4).permutation(200)
    write_permutation(_layout_for(big), tmp_path / "big.txt")
    assert np.array_equal(read_permutation(tmp_path / "big.txt"), big)


# ------------------------------------------------- locality recovers pruning

def test_ordering_recovers_pruning_work(gapped256):
    density = gapped256["exact"].density
    chain = chain_positions(256)
    cfg = SpammConfig(tau=1e-8)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(256)
        shuffled = apply_ordering(density, _layout_for(perm), 1)
        baseline = spamm(shuffled, shuffled, cfg)[1].leaf_matmuls
        layout = order_atoms(chain[np.argsort(perm)])
        recovered = apply_ordering(shuffled, layout, 1)
        tuned = spamm(recovered, recovered, cfg)[1].leaf_matmuls
        assert tuned <= baseline
