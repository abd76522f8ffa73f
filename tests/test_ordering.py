"""Hilbert-curve atom ordering: the curve's cell map and the permutations
built from it."""

import itertools

import numpy as np
import pytest

from spamm.multiply import SpammConfig, spamm
from spamm.ordering import _cells_to_hilbert, apply_ordering, order_atoms
from spamm.generators import chain_positions
from spamm.quadtree import from_dense

from conftest import jittered_grid_positions


def _all_cells(order):
    """(3, 8**order) array of every grid cell at ``order``, x-major."""
    side = 1 << order
    grid = np.meshgrid(*[np.arange(side)] * 3, indexing="ij")
    return np.stack([g.ravel() for g in grid])


def _curve_walk(order):
    """Every grid cell at ``order`` in Hilbert-index order, (8**order, 3)."""
    cells = _all_cells(order)
    return cells[:, np.argsort(_cells_to_hilbert(cells, order))].T


# ------------------------------------------------------------ Hilbert curve

def test_order1_planar_restriction():
    walk = [tuple(int(v) for v in c) for c in _curve_walk(1)]
    assert sorted(walk) == sorted(itertools.product((0, 1), repeat=3))
    planar = [(x, y) for x, y, z in walk if z == 0]
    assert planar == [(0, 0), (0, 1), (1, 1), (1, 0)]


def test_bijection_orders_1_to_6():
    for order in range(1, 7):
        idx = _cells_to_hilbert(_all_cells(order), order)
        assert np.array_equal(np.sort(idx), np.arange(8 ** order))


def test_public_index_consistent_with_cells():
    """order_atoms places points at cell centres in the order of their
    cells' curve indices; two corner atoms pin the bounding box to the
    unit cube."""
    rng = np.random.default_rng(0)
    for order in range(1, 7):
        side = 1 << order
        cells = rng.integers(0, side, size=(3, 50))
        centres = (cells.T + 0.5) / side
        perm = order_atoms(np.vstack([centres, np.zeros(3), np.ones(3)]), order)
        visit = np.argsort(perm)
        assert np.array_equal(visit[visit < 50],
                              np.argsort(_cells_to_hilbert(cells, order),
                                         kind="stable"))


def test_adjacent_indices_are_near_in_space():
    for order in range(1, 7):
        steps = np.abs(np.diff(_curve_walk(order).astype(np.int64), axis=0))
        assert (steps.sum(axis=1) == 1).all(), order  # face neighbours


def test_hilbert_validation():
    pts = np.zeros((2, 3))
    with pytest.raises(ValueError):
        order_atoms(pts, 0)
    with pytest.raises(ValueError):
        order_atoms(pts, 21)
    with pytest.raises(ValueError):
        order_atoms(np.zeros((2, 2)))


def test_order_atoms_rejects_non_finite():
    pts = jittered_grid_positions(6, seed=1)
    for bad in (np.nan, np.inf, -np.inf):
        pts_bad = pts.copy()
        pts_bad[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            order_atoms(pts_bad)


# ------------------------------------------------------------ atom ordering

def test_single_atom_identity():
    assert order_atoms([[3.0, 1.0, 2.0]]).tolist() == [0]


def test_atoms_already_ordered_fixed_point():
    pts = jittered_grid_positions(60, seed=3)
    first = order_atoms(pts)
    second = order_atoms(pts[np.argsort(first)])
    assert np.array_equal(second, np.arange(60))


def test_ordering_shortens_walk_through_cluster():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 10.0, size=(100, 3))
        walk = pts[np.argsort(order_atoms(pts))]
        hilbert_mean = np.linalg.norm(np.diff(walk, axis=0), axis=1).mean()
        shuffled = pts[rng.permutation(100)]
        random_mean = np.linalg.norm(np.diff(shuffled, axis=0), axis=1).mean()
        assert hilbert_mean <= random_mean


# ---------------------------------------------------------- apply_ordering

def test_apply_identity_permutation_unchanged():
    rng = np.random.default_rng(1)
    m = from_dense(rng.standard_normal((24, 24)))
    out = apply_ordering(m, np.arange(6), 4)
    assert np.array_equal(out.to_dense(), m.to_dense())


def test_apply_then_inverse_roundtrips():
    rng = np.random.default_rng(2)
    d = rng.standard_normal((32, 32))
    perm = rng.permutation(8)
    fwd = apply_ordering(from_dense(d), perm, 4)
    back = apply_ordering(fwd, np.argsort(perm), 4)
    assert np.array_equal(back.to_dense(), d)


def test_apply_preserves_trace_norm_spectrum():
    rng = np.random.default_rng(3)
    d = rng.standard_normal((40, 40))
    d = d + d.T
    perm = rng.permutation(10)
    out = apply_ordering(from_dense(d), perm, 4).to_dense()
    assert np.array_equal(np.sort(out.ravel()), np.sort(d.ravel()))
    assert abs(np.trace(out) - np.trace(d)) <= 1e-13 * abs(np.trace(d)) + 1e-13
    assert np.allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(d),
                       atol=1e-10)


def test_apply_size_mismatch_rejected():
    m = from_dense(np.eye(24))
    with pytest.raises(ValueError):
        apply_ordering(m, np.arange(5), 4)


def test_apply_rejects_non_bijection():
    m = from_dense(np.eye(16))
    for bad in ([0, 0, 1, 1], [0, 7, 1, 1], [0, 1, 2, -1], [1, 2, 3, 4],
                [0, 1.5, 2, 3], [[0, 1], [2, 3]]):
        with pytest.raises(ValueError, match="bijection"):
            apply_ordering(m, bad, 4)


def test_block_permutation_moves_blocks():
    d = np.zeros((8, 8))
    d[0:4, 0:4] = 7.0
    out = apply_ordering(from_dense(d), [1, 0], 4).to_dense()
    assert np.all(out[4:8, 4:8] == 7.0)
    assert np.all(out[0:4, 0:4] == 0.0)


# ------------------------------------------------- locality recovers pruning

def test_ordering_recovers_pruning_work(gapped256):
    density = gapped256["exact"].density
    chain = chain_positions(256)
    cfg = SpammConfig(tau=1e-8)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(256)
        shuffled = apply_ordering(density, perm, 1)
        baseline = spamm(shuffled, shuffled, cfg)[1].leaf_matmuls
        layout = order_atoms(chain[np.argsort(perm)])
        recovered = apply_ordering(shuffled, layout, 1)
        tuned = spamm(recovered, recovered, cfg)[1].leaf_matmuls
        assert tuned <= baseline
