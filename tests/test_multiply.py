"""Kernel tests: norm-product pruning, exact product, accounting, box logs.

The heavyweight check here re-implements the pruned recursion as a flat
depth-first script (no shared traversal code with the library) and demands
identical leaf-multiply counts and an identical pruned-box set on the
n = 512 exponential-decay pair.
"""

import itertools
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from spamm import multiply, purification, quadtree
from spamm.generators import ModelHamiltonian, gen_exponential, gen_model_hamiltonian
from spamm.multiply import (
    PrunedBox,
    SpammConfig,
    spamm,
    write_box_log,
)
from spamm.purification import DroppingMode, SpammMode, purify
from spamm.quadtree import DimensionMismatchError, _grids, from_dense

from conftest import (full_blocks, is_bitwise_symmetric, mirrored_child_sum,
                      mirrored_sum_of_squares, norm_submultiplicativity_check,
                      oracle_matmul, padded_dense)


# ----------------------------------------------------------- basic contracts

def test_identity_times_b_exact():
    rng = np.random.default_rng(0)
    bd = rng.standard_normal((20, 20))
    c, stats = spamm(from_dense(np.eye(20)), from_dense(bd), SpammConfig(tau=0.0))
    assert np.array_equal(c.to_dense(), bd)
    assert stats.omitted_budget == 0.0


def test_tau_above_total_norm_prunes_root():
    rng = np.random.default_rng(1)
    a = from_dense(rng.standard_normal((16, 16)))
    b = from_dense(rng.standard_normal((16, 16)))
    budget = a.norm() * b.norm()
    c, stats = spamm(a, b, SpammConfig(tau=budget * 1.5, collect_boxes=True))
    assert not _grids(c)[2][0][0, 0]
    assert stats.leaf_matmuls == 0
    assert stats.omitted_budget == budget
    assert stats.boxes == [PrunedBox(0, 0, 0, a.padded_dim, 0)]


def test_full_enumeration_counts_n8():
    rng = np.random.default_rng(2)
    a = from_dense(rng.standard_normal((8, 8)), leaf_size=4)
    b = from_dense(rng.standard_normal((8, 8)), leaf_size=4)
    _, stats = spamm(a, b, SpammConfig(tau=0.0))
    assert stats.leaf_matmuls == 8  # (8/4)**3


def test_exact_vs_triple_loop_oracle_64():
    rng = np.random.default_rng(3)
    ad = rng.standard_normal((64, 64))
    bd = rng.standard_normal((64, 64))
    got = spamm(from_dense(ad), from_dense(bd))[0].to_dense()
    ref = oracle_matmul(ad, bd)
    err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
    assert err <= 1e-13


def test_zero_operand_gives_empty():
    rng = np.random.default_rng(4)
    z = from_dense(np.zeros((24, 24)))
    m = from_dense(rng.standard_normal((24, 24)))
    c = spamm(z, m)[0]
    assert not _grids(c)[2][0][0, 0]
    c2, stats = spamm(m, z, SpammConfig(tau=0.0))
    assert not _grids(c2)[2][0][0, 0]
    assert stats.leaf_matmuls == 0
    assert stats.pruned_calls == 1  # the root Empty skip
    assert stats.empty_skip_volume == m.padded_dim ** 3


def test_chunked_leaf_stage_matches_one_chunk(monkeypatch):
    """Leaf products split over several chunks give the same product bytes
    and stats as one chunk."""
    rng = np.random.default_rng(9)
    a = from_dense(rng.standard_normal((61, 61)))
    b = from_dense(rng.standard_normal((61, 61)))
    whole, stats = spamm(a, b, SpammConfig(tau=1.0))
    monkeypatch.setattr(multiply, "_CHUNK_ELEMENTS", 16 * 37)
    chunked, chunked_stats = spamm(a, b, SpammConfig(tau=1.0))
    assert stats.leaf_matmuls > 37 * 4
    assert chunked.structurally_equal(whole)
    assert chunked_stats == stats


def test_permutation_times_transpose_is_identity():
    rng = np.random.default_rng(5)
    perm = rng.permutation(32)
    p = np.zeros((32, 32))
    p[np.arange(32), perm] = 1.0
    c = spamm(from_dense(p), from_dense(p.T))[0]
    assert np.array_equal(c.to_dense(), np.eye(32))


# ---------------------------------------------- independent flat recursion

def _flat_tiers(padded, leaf):
    """The depth, and the squared norms and occupancies of every tier of a
    padded dense operand, summed in the library's order."""
    n = padded.shape[0]
    depth = 0
    while leaf << depth < n:
        depth += 1
    nb = n // leaf
    blocks = padded.reshape(nb, leaf, nb, leaf).swapaxes(1, 2)
    nsq = [None] * (depth + 1)
    occs = [None] * (depth + 1)
    nsq[depth] = mirrored_sum_of_squares(blocks)
    occs[depth] = (blocks != 0).any(axis=(2, 3))
    for k in range(depth - 1, -1, -1):
        nsq[k] = mirrored_child_sum(nsq[k + 1])
        o = occs[k + 1]
        occs[k] = o[0::2, 0::2] | o[0::2, 1::2] | o[1::2, 0::2] | o[1::2, 1::2]
    return depth, nsq, occs


def _flat_reference(pa, pb, leaf, tau):
    """Straight-line re-implementation of the pruned product recursion.

    Works directly on the padded dense operands; reproduces the library's
    norm arithmetic (same summation order) so strict-< pruning decisions
    are bit-for-bit comparable, but shares no traversal code with it.
    """
    n = pa.shape[0]
    depth, nsq_a, occ_a = _flat_tiers(pa, leaf)
    _, nsq_b, occ_b = _flat_tiers(pb, leaf)
    leaves = []
    budget = 0.0
    boxes = set()
    stack = [(0, 0, 0, 0)]
    while stack:
        tier, i, j, k = stack.pop()
        if not (occ_a[tier][i, k] and occ_b[tier][k, j]):
            continue
        prod = math.sqrt(nsq_a[tier][i, k]) * math.sqrt(nsq_b[tier][k, j])
        if prod < tau:
            edge = n >> tier
            boxes.add((tier, i * edge, j * edge, k * edge, edge))
            budget += prod
            continue
        if tier == depth:
            leaves.append((i, j, k))
            continue
        for di in (0, 1):
            for dj in (0, 1):
                for dk in (0, 1):
                    stack.append((tier + 1, 2 * i + di, 2 * j + dj, 2 * k + dk))
    return leaves, boxes, budget


def test_flat_recursion_agrees_on_decay_pair():
    a = gen_exponential(512, 1.0)
    b = gen_exponential(512, 2.0)
    c, stats = spamm(a, b, SpammConfig(tau=1e-8, collect_boxes=True))
    leaves, boxes, budget = _flat_reference(padded_dense(a), padded_dense(b), 4, 1e-8)
    assert stats.leaf_matmuls == len(leaves)
    got = {(bx.tier, bx.i_lo, bx.j_lo, bx.k_lo, bx.edge) for bx in stats.boxes}
    assert got == boxes
    assert math.isclose(stats.omitted_budget, budget, rel_tol=1e-12)
    assert stats.covered_volume(4) == a.padded_dim ** 3


def _pairwise_reference(pa, pb, leaf, leaves):
    """The product the fixed summation tree gives from the surviving leaf
    triples.  The leaf products come from one batched ``np.matmul`` of the
    gathered blocks; each C block then sums its products over aligned binary
    intervals of k, first half + second half, an absent half passing the
    other through untouched.  Returns the stored keys and blocks, the count
    of lone contributions passed through at each merge level, and the leaf
    products."""
    nb = pa.shape[0] // leaf
    depth = nb.bit_length() - 1
    triples = sorted(leaves)

    def block(m, r, c):
        return m[r * leaf:(r + 1) * leaf, c * leaf:(c + 1) * leaf]

    prods = np.matmul(np.array([block(pa, i, k) for i, _, k in triples]),
                      np.array([block(pb, k, j) for _, j, k in triples]))
    parts = {}
    for (i, j, k), p in zip(triples, prods):
        parts.setdefault((i, j), {})[k] = p
    lone = [0] * depth

    def tree_sum(group, lo, size):
        if size == 1:
            return group.get(lo)
        half = size // 2
        first = tree_sum(group, lo, half)
        second = tree_sum(group, lo + half, half)
        if first is None or second is None:
            if first is not None or second is not None:
                lone[half.bit_length() - 1] += 1
            return second if first is None else first
        return first + second

    keys, blocks = [], []
    for i, j in sorted(parts):
        c = tree_sum(parts[(i, j)], 0, nb)
        if (c != 0).any():
            keys.append(i * nb + j)
            blocks.append(c)
    return keys, np.array(blocks), lone, prods


def test_leaf_sum_follows_fixed_pairwise_tree(monkeypatch):
    """Product bytes equal the pure-Python pairwise sum over k, with lone
    contributions at every merge level and, where the BLAS gives them,
    leaf products holding -0.0 (a lone -0.0 must pass through, not become
    +0.0), at tau 0 and at a pruning tau, in one chunk, in chunks of one
    2 x 2 x 2-block subcube and with every group alone in its chunk; on
    the leaf path alone, and with the few 2 x 2 x 2-block subcubes whose
    tiles are fully stored taken whole."""
    n, leaf = 64, 4
    nb = n // leaf
    rng = np.random.default_rng(12)

    def operand(tiny_rows):
        d = rng.standard_normal((n, n))
        d *= np.kron(10.0 ** rng.uniform(-3, 0, (nb, nb)), np.ones((leaf, leaf)))
        # rows (columns) 0 mod leaf hold tiny values whose products
        # underflow, so leaf product element (0, 0) is -0.0
        if tiny_rows:
            d[0::leaf] = -1e-200
        else:
            d[:, 0::leaf] = 1e-200
        d[np.kron(rng.random((nb, nb)) < 0.5, np.ones((leaf, leaf), bool))] = 0.0
        return d

    ad, bd = operand(True), operand(False)
    a, b = from_dense(ad), from_dense(bd)
    lows = _tile_lows(ad, bd, leaf)
    full = None
    for tau in (0.0, 1e-2):
        leaves, _, _ = _flat_reference(ad, bd, leaf, tau)
        keys, blocks, lone, prods = _pairwise_reference(ad, bd, leaf, leaves)
        if full is None:
            full = len(leaves)
            negative_zero = _leaf_gemm_gives_negative_zero(ad, bd, leaf, leaves[0])
        else:
            assert 0 < len(leaves) < full  # the second tau prunes
        assert min(lone) > 0, lone
        if negative_zero:
            assert np.signbit(prods[:, 0, 0]).all()
            assert np.signbit(blocks[:, 0, 0]).all()
        chunks = (multiply._CHUNK_ELEMENTS, 8 * leaf * leaf, leaf * leaf)
        expect = _cube_walk(ad, bd, leaf, tau, False,
                            _fitting(lows, leaf, multiply._CUBE_LEVELS))
        assert {edge for edge, *_ in expect} <= {2}
        assert expect or tau
        for levels in ((), multiply._CUBE_LEVELS):
            cubes = _spy_subcubes(monkeypatch)
            monkeypatch.setattr(multiply, "_CUBE_LEVELS", levels)
            for chunk in chunks:
                monkeypatch.setattr(multiply, "_CHUNK_ELEMENTS", chunk)
                cubes.clear()
                c, stats = spamm(a, b, SpammConfig(tau=tau))
                assert stats.leaf_matmuls == len(leaves)
                assert c._keys.tolist() == keys
                assert c._stack.tobytes() == blocks.tobytes()
                want = sorted(expect) if levels else []
                assert sorted(cube[:4] for cube in cubes) == want
            monkeypatch.undo()


def _leaf_gemm_gives_negative_zero(pa, pb, leaf, triple):
    """Whether the leaf GEMM of ``triple`` (i, j, k), run as a stack of
    one, gives -0.0 at (0, 0).  A sum of -0.0 terms is -0.0, but some
    BLAS kernels (OpenBLAS's Haswell ones) start every sum from +0.0, so
    their leaf products never hold -0.0."""
    i, j, k = triple
    lhs = pa[None, i * leaf:(i + 1) * leaf, k * leaf:(k + 1) * leaf]
    rhs = pb[None, k * leaf:(k + 1) * leaf, j * leaf:(j + 1) * leaf]
    return bool(np.signbit(np.matmul(lhs, rhs)[0, 0, 0]))


_SUBCUBE_SUMS = multiply._subcube_sums


def _spy_subcubes(monkeypatch):
    """Record every subcube that ``spamm`` multiplies whole, as ``(edge, i,
    j, k, diagonal)`` with (i, j, k) in tiles of edge x edge leaf blocks,
    in a list this returns.  Edge-1 calls are the lone leaf triples, not
    whole subcubes, and are not recorded."""
    cubes = []

    def spy(a, b, level, ci, cj, ck, *rest):
        if level >= 1:
            symmetric = a is b and a.symmetric  # a symmetric square
            cubes.extend((1 << level, i, j, k, symmetric and i == j)
                         for i, j, k in zip(ci.tolist(), cj.tolist(), ck.tolist()))
        return _SUBCUBE_SUMS(a, b, level, ci, cj, ck, *rest)

    monkeypatch.setattr(multiply, "_subcube_sums", spy)
    return cubes


_CUBE_EDGES = (16, 8, 4, 2)

# Whole-subcube batch caps: one cube per batch, and the default.
_CUBE_BATCHES = (1, quadtree._SCRATCH_ELEMENTS)


def _tile_lows(pa, pb, leaf):
    """For each cube edge e no wider than the block grid, and each triple
    (i, j, k) of tiles of e x e leaf blocks, the product of the square roots
    of the smallest leaf squared norms of tile (i, k) of A and tile (k, j)
    of B (0 where a leaf is unstored).  Returns ``{e: array[i, j, k]}``."""
    leaf_a, leaf_b = (_flat_tiers(p, leaf)[1][-1] for p in (pa, pb))

    def low(f, edge):
        g = f.shape[0] // edge
        return np.sqrt(f.reshape(g, edge, g, edge).min(axis=(1, 3)))

    return {edge: low(leaf_a, edge)[:, None, :] * low(leaf_b, edge).T[None, :, :]
            for edge in _CUBE_EDGES if edge <= leaf_a.shape[0]}


def _fitting(lows, leaf, levels):
    """The edges of ``lows`` that are 2**L for an L of ``levels``, and whose
    block-column GEMMs fit ``_COLUMN_GEMM_MAX``: the tiers the kernel tries
    with ``_CUBE_LEVELS`` set to ``levels``."""
    return {edge: low for edge, low in lows.items()
            if edge.bit_length() - 1 in levels
            and (edge * leaf) ** 2 * leaf <= multiply._COLUMN_GEMM_MAX}


def _cube_walk(pa, pb, leaf, tau, symmetric, lows):
    """The whole subcubes of the pruned recursion, by a depth-first walk
    sharing no code with the library: a triple at a tier whose tiles are
    e leaf blocks wide, for each edge e of ``lows``, is whole when it is
    alive, is not pruned and its two tiles' smallest leaf norms have a
    product >= tau and > 0; only a triple that is alive, not pruned and not
    whole is split.  For a
    symmetric square the walk keeps the triples with i <= j, as the
    traversal does, so the diagonal ones (i == j) can be whole too.
    ``lows`` is ``_tile_lows(pa, pb, leaf)``, or the part of it that
    ``_fitting`` keeps.  Returns the set of ``(edge, i, j, k)``."""
    depth, nsq_a, occ_a = _flat_tiers(pa, leaf)
    _, nsq_b, occ_b = _flat_tiers(pb, leaf)
    cubes = set()
    stack = [(0, 0, 0, 0)]
    while stack:
        tier, i, j, k = stack.pop()
        if symmetric and i > j:
            continue
        if not (occ_a[tier][i, k] and occ_b[tier][k, j]):
            continue
        if math.sqrt(nsq_a[tier][i, k]) * math.sqrt(nsq_b[tier][k, j]) < tau:
            continue
        edge = 1 << (depth - tier)
        if edge in lows and lows[edge][i, j, k] >= tau and lows[edge][i, j, k] > 0:
            cubes.add((edge, i, j, k))
            continue
        if tier < depth:
            stack.extend((tier + 1, 2 * i + di, 2 * j + dj, 2 * k + dk)
                         for di, dj, dk in itertools.product((0, 1), repeat=3))
    return cubes


def _tied_taus(lows, symmetric):
    """For each cube edge, the largest tau equal to the smallest-norm
    product of a tile triple that the walk reaches at that tau: every
    enclosing tile triple of a larger edge has a smaller product, so none
    of them is whole.  Returns ``{edge: (tau, (i, j, k))}``."""
    ties = {}
    for edge, low in lows.items():
        for (i, j, k), tau in sorted(np.ndenumerate(low), key=lambda t: -t[1]):
            if tau == 0:
                break
            if symmetric and i > j:
                continue
            if all(up_low[i * edge // up, j * edge // up, k * edge // up] < tau
                   for up, up_low in lows.items() if up > edge):
                ties[edge] = (float(tau), (i, j, k))
                break
    return ties


def _decaying(n, seed, band=None):
    """Random operand decaying as exp(-|i - j| / 10), zero beyond ``band``
    of the diagonal when one is given."""
    rng = np.random.default_rng(seed)
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    d = rng.standard_normal((n, n)) * np.exp(-dist / 10)
    if band is not None:
        d[dist > band] = 0.0
    return d


@pytest.mark.parametrize("n, leaf, band, dtype", [
    (64, 4, None, np.float64),    # the root is the only 16-wide tile triple
    (64, 8, None, np.float64),    # the root is the only 8-wide tile triple
    (100, 4, None, np.float64),   # padded: tiles holding padding stay below
    (100, 8, None, np.float64),
    (128, 4, None, np.float64),   # 2 x 2 x 2 tile triples 16 leaf blocks wide
    (128, 4, 60, np.float64),     # banded: tiles off the diagonal lack leaves
    (128, 8, None, np.float64),   # the root is the only 16-wide tile triple
    (100, 4, 60, np.float64),     # padded and banded
])
def test_whole_subcubes_follow_fixed_pairwise_tree(monkeypatch, n, leaf, band, dtype):
    """A triple whose leaf triples all survive, by the smallest leaf norms
    of its two tiles, is multiplied as a whole subcube at the tiers whose
    tiles are 16, 8, 4 and 2 leaf blocks wide, diagonal ones of a
    symmetric square included, where one cube's products fit the scratch
    cap; the cubes run are those of a pure-Python walk, the product bytes
    are the pure-Python pairwise sum over k of the flat recursion's leaf
    products, and every stat is that of the leaf path alone.  For A B,
    whose dense float64 leaf products hold -0.0 at (0, 0) where the BLAS
    gives it, and for the symmetric square; at tau 0, at a pruning tau
    and at a tau tied with one cube's smallest norm product at each edge
    with a fully stored tile; in one chunk, in chunks of one cube of the
    widest edge (many merge chunks), in chunks of an eighth of that with
    the widest edge's tier not tried and in chunks of one leaf product
    with no cube tier tried; each with whole subcubes multiplied one cube
    per batch and in the default batches."""
    ad, bd = _decaying(n, 1, band), _decaying(n, 2, band)
    # tiny rows of A and columns of B: each leaf product's (0, 0) underflows
    # to -0.0 (a zero outside a band adds a +0.0 term)
    negative_zeros = band is None
    if negative_zeros:
        ad[0::leaf] = np.where(ad[0::leaf] != 0, -1e-200, 0.0)
        bd[:, 0::leaf] = np.where(bd[:, 0::leaf] != 0, 1e-200, 0.0)
    x = from_dense(ad + ad.T, leaf)
    assert x.symmetric and x.dtype == dtype
    for a, b in ((from_dense(ad, leaf), from_dense(bd, leaf)), (x, x)):
        symmetric = a is b
        pa, pb = padded_dense(a), padded_dense(b)
        lows = _tile_lows(pa, pb, leaf)
        ties = _tied_taus(lows, symmetric)
        stored = {edge for edge, low in lows.items() if low.any()}
        assert set(ties) == stored and 8 in stored
        widest = max(stored) ** 3 * leaf * leaf
        top = max(stored).bit_length() - 1
        below = tuple(level for level in multiply._CUBE_LEVELS if level != top)
        every = multiply._CUBE_LEVELS
        chunks = ((widest, every), (widest // 8 - 1, below), (leaf * leaf, ()),
                  (multiply._CHUNK_ELEMENTS, every))
        cases = [(0.0, None), (1e-2, None),
                 *((tau, (edge, *cube)) for edge, (tau, cube) in ties.items())]
        for tau, tied in cases:
            leaves, boxes, budget = _flat_reference(pa, pb, leaf, tau)
            keys, blocks, _, _ = _pairwise_reference(pa, pb, leaf, leaves)
            if negative_zeros and not symmetric and _leaf_gemm_gives_negative_zero(
                    pa, pb, leaf, leaves[0]):
                assert np.signbit(blocks[:, 0, 0]).all()
            cubes = _spy_subcubes(monkeypatch)
            monkeypatch.setattr(multiply, "_CUBE_LEVELS", ())  # no cube tier
            leaf_path = spamm(a, b, SpammConfig(tau=tau, collect_boxes=True))[1]
            assert cubes == []
            monkeypatch.undo()
            cubes = _spy_subcubes(monkeypatch)
            for (chunk, levels), cube_batch in itertools.product(chunks, _CUBE_BATCHES):
                expect = _cube_walk(pa, pb, leaf, tau, symmetric, _fitting(lows, leaf, levels))
                monkeypatch.setattr(multiply, "_CHUNK_ELEMENTS", chunk)
                monkeypatch.setattr(multiply, "_CUBE_LEVELS", levels)
                monkeypatch.setattr(quadtree, "_SCRATCH_ELEMENTS", cube_batch)
                cubes.clear()
                c, stats = spamm(a, b, SpammConfig(tau=tau, collect_boxes=True))
                assert sorted(cube[:4] for cube in cubes) == sorted(expect)
                assert all(diagonal == (symmetric and i == j)
                           for _, i, j, _, diagonal in cubes)
                assert all((max(i, j, k) + 1) * edge * leaf <= n
                           for edge, i, j, k, _ in cubes)  # no padding
                if top not in levels:
                    assert max(stored) not in {edge for edge, *_ in cubes}
                if not levels:
                    assert cubes == []
                c_keys, c_stack = full_blocks(c)
                assert c_keys.tolist() == keys
                assert c_stack.tobytes() == blocks.tobytes()
                assert stats == leaf_path
                assert stats.leaf_matmuls == len(leaves)
                assert {(bx.tier, bx.i_lo, bx.j_lo, bx.k_lo, bx.edge)
                        for bx in stats.boxes} == boxes
                assert math.isclose(stats.omitted_budget, budget, rel_tol=1e-12)
                assert stats.covered_volume(leaf) == a.padded_dim ** 3
            monkeypatch.undo()
            # cubes and expect are those of the default chunk and levels
            if tau == 0.0:
                assert cubes
                assert any(diagonal for *_, diagonal in cubes) == symmetric
            elif tied:
                assert tied in expect  # computed at the tie
            else:
                assert stats.pruned_volume > 0


def test_one_scratch_cap_moves_every_bounded_pass(monkeypatch):
    """With ``quadtree._SCRATCH_ELEMENTS`` patched to 1, ``_row_strips``
    yields one block row per strip, and ``from_dense``, ``to_dense``,
    ``tc2_initial_guess`` and a symmetric square that takes whole subcubes
    (one per batch, its merge one pair per slice) give the bytes they give
    at the default cap, on a padded banded input with -0.0 entries."""
    d = _symmetric_decay(100, 5, band=40)
    d[np.abs(d) < 1e-3] = -0.0
    outputs = []
    for cap in (quadtree._SCRATCH_ELEMENTS, 1):
        monkeypatch.setattr(quadtree, "_SCRATCH_ELEMENTS", cap)
        cubes = _spy_subcubes(monkeypatch)
        x = from_dense(d)
        assert x.symmetric
        strips = sum(1 for _ in quadtree._row_strips(x))
        c, stats = spamm(x, x)
        assert cubes
        guess = purification.tc2_initial_guess(x)
        outputs.append(tuple(arr.tobytes() for tree in (x, guess, c)
                             for arr in full_blocks(tree))
                       + (x.to_dense().tobytes(), stats))
        monkeypatch.undo()
    assert strips == -(-100 // x.leaf_size)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n, square, cube_tier",
                         [(256, True, True), (256, False, True), (512, False, True),
                          (256, False, False)],
                         ids=["256-True", "256-False", "512-False", "256-False-no-cubes"])
def test_cube_scratch_is_bounded(monkeypatch, n, square, cube_tier):
    """The traced allocation peak of an exact leaf-4 product that whole
    subcubes of edge 16 cover, as the symmetric square and as the product
    of two trees, stays within a bound stated from its buffers: the cube
    sums (in place in the leaf stage's one buffer), 2x the output stack
    (the merged blocks and their final gather), 2x one batch's cap of
    max(_SCRATCH_ELEMENTS, e**3 leaf**2) products (those products and
    two gathered operand stacks 1/e that size), 2x one merge slice of
    _SCRATCH_ELEMENTS (the gathered rows and the rows added to them),
    and eight 8-byte index words per merge node (the entry keys, their
    sort order, buffer rows and level masks).  One batch of every cube of
    the multiply (24 and 39 MiB at n=256) exceeds it several times over; a
    merge that copies the sums to a second buffer peaks at 60 MiB for two
    trees at n=512, and one that adds a whole merge level at once at 43
    MiB, both over its 30 MiB (the measured peak is 28 MiB).

    With no cube tier (``_CUBE_LEVELS = ()``) every leaf product of two
    trees is a lone leaf triple, an edge-1 cube, and the bound adds the
    chunk's leaf products in the buffer and 10 index words per lone
    triple: the traversal's leaf keys, the sorted entry list (keys and
    buffer rows) and its sort order, the chunk's buffer rows, lone-triple
    positions and three block coordinates, nine words, and one to spare.
    It has no term for the traversal's last tier, which is freed before
    the leaf stage, for gather indexes of a whole chunk, which are made
    per batch, nor for merge keys of the lone triples, which are their
    buffer rows: with the first two, the peak was 84 MiB at n=256, and
    with merge keys built for every lone triple 59 MiB, both over its
    55 MiB (the measured peak is 52.7 MiB)."""
    x = gen_exponential(n, 0.05)
    other = x if square else gen_exponential(n, 0.05)
    cubes = _spy_subcubes(monkeypatch)
    if not cube_tier:
        monkeypatch.setattr(multiply, "_CUBE_LEVELS", ())
    tracemalloc.start()
    try:
        c, stats = spamm(x, other)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    leaf, item, out = x.leaf_size, c._stack.itemsize, c._stack.nbytes
    assert {edge for edge, *_ in cubes} == ({16} if cube_tier else set())
    nodes = sum(edge * edge for edge, *_ in cubes)
    # The cubes cover the product; with none, two trees mirror no triple.
    lone = 0 if cube_tier else stats.leaf_matmuls
    chunk = min(lone, multiply._CHUNK_ELEMENTS // (leaf * leaf) + x.block_grid)
    buffer = (nodes + chunk) * leaf * leaf * item  # [cube sums | leaf products]
    batch = max(quadtree._SCRATCH_ELEMENTS, 16 ** 3 * leaf * leaf) * item
    merge = quadtree._SCRATCH_ELEMENTS * item
    index = 8 * (8 * nodes + 10 * lone)
    assert peak <= buffer + 2 * out + 2 * batch + 2 * merge + index


def test_block_column_gemm_matches_leaf_gemms():
    """The GEMM a whole subcube runs per inner block k, A's block column of
    e leaf blocks (e b x b) times B's block row (b x e b), gives each block
    (i, j) the bytes of the leaf GEMM A_ik B_kj run in a stack, as the leaf
    path runs it, at every leaf size and edge whose GEMM fits
    ``_COLUMN_GEMM_MAX``; on random blocks, on blocks with exact zeros of
    both signs, and on blocks whose products underflow (to -0.0 where the
    BLAS gives it)."""
    rng = np.random.default_rng(7)
    tiny = np.finfo(np.float64).tiny ** 0.5 / 4
    tried = set()
    for leaf in (1, 2, 3, 4, 5, 8, 12, 16, 24, 32):
        for e in (2, 4, 8, 16):
            if (e * leaf) ** 2 * leaf > multiply._COLUMN_GEMM_MAX:
                continue
            tried.add(leaf)
            col = rng.standard_normal((3, e, leaf, leaf))
            row = rng.standard_normal((3, e, leaf, leaf))
            col[1][rng.random(col[1].shape) < 0.6] = 0.0
            row[1][rng.random(row[1].shape) < 0.6] = -0.0
            col[2, :, 0, :] = -tiny
            row[2, :, :, 0] = tiny
            got = np.matmul(col.reshape(3, e * leaf, leaf),
                            row.transpose(0, 2, 1, 3).reshape(3, leaf, e * leaf))
            got = got.reshape(3, e, leaf, e, leaf).swapaxes(2, 3)
            want = np.matmul(np.repeat(col, e, axis=1).reshape(-1, leaf, leaf),
                             np.tile(row, (1, e, 1, 1)).reshape(-1, leaf, leaf))
            assert np.ascontiguousarray(got).tobytes() == want.tobytes(), (leaf, e)
    assert tried == {1, 2, 3, 4, 5, 8, 12, 16, 24, 32}


@pytest.mark.parametrize("leaf", [16, 32])
def test_cubes_past_the_column_gemm_cap_keep_leaf_bits(monkeypatch, leaf):
    """A tier whose cubes' block-column GEMM would pass 2**19 multiply-adds
    (edge 16 at leaf 16, edge 8 at leaf 32) is not tried: its triples split
    to the next tier, whose cubes are taken, each GEMM within the cap.  With
    rows of A and columns of B whose products underflow, each leaf
    product's (0, 0) is -0.0 where the BLAS gives it, and a larger GEMM may
    sum from +0.0; the product bytes and stats are the leaf path's, for
    A B and for the symmetric square."""
    n = 256
    ad, bd = _decaying(n, 5), _decaying(n, 6)
    ad[0::leaf] = -1e-200
    bd[:, 0::leaf] = 1e-200
    x = from_dense(ad + ad.T, leaf)
    cubes = _spy_subcubes(monkeypatch)
    root = n // leaf
    assert root ** 2 * leaf ** 3 > multiply._COLUMN_GEMM_MAX
    assert (root // 2) ** 2 * leaf ** 3 <= multiply._COLUMN_GEMM_MAX
    for a, b in ((from_dense(ad, leaf), from_dense(bd, leaf)), (x, x)):
        cubes.clear()
        c, stats = spamm(a, b)
        assert {edge for edge, *_ in cubes} == {root // 2}  # the root's children
        with monkeypatch.context() as patch:
            patch.setattr(multiply, "_CUBE_LEVELS", ())
            ref, ref_stats = spamm(a, b)
        assert full_blocks(c)[1].tobytes() == full_blocks(ref)[1].tobytes()
        assert stats == ref_stats


# Run in a fresh process, whose OpenBLAS reads OPENBLAS_CORETYPE when it
# loads: the largest cubes the cap admits at leaf 8 (edge 16, a 2**17
# multiply-add GEMM per inner block) and at leaf 16 (edge 8, 2**18), for
# A B and for a symmetric square, against the leaf path alone.  Rows of A
# and columns of B whose products underflow give each leaf product's
# (0, 0) -0.0 where the kernel gives it.  Prints the root cubes run.
_CUBES_AGAINST_LEAF_PATH = """
import numpy as np
from spamm import multiply
from spamm.multiply import SpammConfig, spamm
from spamm.quadtree import from_dense

rng = np.random.default_rng(3)
n = 128
dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
ran = 0
subcube_sums, cube_levels = multiply._subcube_sums, multiply._CUBE_LEVELS

def spy(*args):
    global ran
    if args[0].leaf_size << args[2] == n:  # the root: edge 16 or 8
        ran += args[3].size
    return subcube_sums(*args)

def product(lhs, rhs, tau, levels):
    multiply._CUBE_LEVELS = levels
    return spamm(lhs, rhs, SpammConfig(tau=tau))

multiply._subcube_sums = spy
for leaf in (8, 16):
    ad, bd = (rng.standard_normal((n, n)) * np.exp(-dist / 10) for _ in range(2))
    ad[0::leaf] = -1e-200
    bd[:, 0::leaf] = 1e-200
    x = from_dense(ad + ad.T, leaf)
    for lhs, rhs in ((from_dense(ad, leaf), from_dense(bd, leaf)), (x, x)):
        for tau in (0.0, 1e-2):
            c, stats = product(lhs, rhs, tau, cube_levels)
            ref, ref_stats = product(lhs, rhs, tau, ())
            assert c._keys.tobytes() == ref._keys.tobytes()
            assert c._stack.tobytes() == ref._stack.tobytes(), (leaf, lhs is rhs, tau)
            assert stats == ref_stats
print(ran)
"""


def _openblas_picks_kernels():
    """Whether numpy's BLAS is an x86-64 OpenBLAS built for several CPU
    kernels, one of which OPENBLAS_CORETYPE can force."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
            and platform.machine().lower() in ("x86_64", "amd64"))


@pytest.mark.skipif(not _openblas_picks_kernels(),
                    reason="needs an x86-64 OpenBLAS built with DYNAMIC_ARCH")
@pytest.mark.parametrize("core", ["Haswell", "SandyBridge"])
def test_cubes_near_the_cap_match_leaf_path_on_forced_kernels(core):
    """A BLAS may pick its kernel by a GEMM's size, so cubes keep the leaf
    path's bits only while their block-column GEMMs stay under the cap:
    with the Haswell and the Sandy Bridge kernel forced, the largest cubes
    the cap admits at leaf 8 and 16 give the products and stats of the
    leaf path alone."""
    src = os.path.dirname(os.path.dirname(multiply.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2",
               OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", _CUBES_AGAINST_LEAF_PATH], env=env,
                         capture_output=True, text=True, timeout=300)
    if f"core: {core.lower()}" not in run.stderr.lower():
        pytest.skip(f"OpenBLAS did not take the {core} kernel: {run.stderr.strip()}")
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) == 4  # at tau 0, for each leaf size and product


# ------------------------------------------------------- symmetric squares

def _symmetric_decay(n, seed, band=None):
    """Bitwise-symmetric random matrix with exponential off-diagonal decay,
    zero outside ``band`` when one is given."""
    rng = np.random.default_rng(seed)
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :])
    d = rng.standard_normal((n, n)) * np.exp(-0.25 * dist)
    if band is not None:
        d[dist > band] = 0.0
    return d + d.T


def _halves(*trees):
    """How many of ``trees`` are flagged symmetric and store their blocks
    with i <= j alone."""
    count = 0
    for t in trees:
        i, j = np.divmod(t._keys, t.block_grid)
        count += t.symmetric and bool((i <= j).all())
    return count


def _square_with_twin(d, leaf, tau):
    """Square ``from_dense(d)`` as ``spamm(x, x)`` and as ``spamm(x, twin)``
    with ``twin`` rebuilt from the same array: a different object, so the
    second product takes the full traversal and stores every block.
    Returns both (tree, stats) pairs and how many of the two products are
    upper halves (``_halves``)."""
    x = from_dense(d, leaf_size=leaf)
    twin = from_dense(d, leaf_size=leaf)
    cfg = SpammConfig(tau=tau, collect_boxes=True)
    sym, full = spamm(x, x, cfg), spamm(x, twin, cfg)
    assert not full[0].symmetric
    return sym, full, _halves(sym[0], full[0])


def _assert_same_product(got, want):
    """Equal represented product bytes (``full_blocks``) and whole-cube
    stats; the budget to 8 ulp."""
    (c, s), (c_ref, s_ref) = got, want
    (keys, stack), (ref_keys, ref_stack) = full_blocks(c), full_blocks(c_ref)
    assert keys.tobytes() == ref_keys.tobytes()
    assert stack.tobytes() == ref_stack.tobytes()
    for name in ("leaf_matmuls", "pruned_calls", "pruned_volume",
                 "empty_skip_volume"):
        assert getattr(s, name) == getattr(s_ref, name), name
    assert Counter(s.boxes) == Counter(s_ref.boxes)
    assert abs(s.omitted_budget - s_ref.omitted_budget) <= 8 * np.spacing(s_ref.omitted_budget)
    assert s.covered_volume(c.leaf_size) == c.padded_dim ** 3


@pytest.mark.parametrize("n, leaf, band, dtype", [
    (128, 4, None, np.float64),
    (100, 4, 9, np.float64),    # padded; the band leaves empty blocks
    (100, 1, 9, np.float64),
    (64, 8, None, np.float64),
    (100, 8, 20, np.float64),
    (100, 4, None, np.float64),  # padded, no empty blocks
])
def test_symmetric_square_matches_twin_tree(monkeypatch, n, leaf, band, dtype):
    """Squaring a symmetric tree from its upper block triangle gives the
    bytes and the whole-cube stats of the full traversal, at tau 0 and at a
    tau that prunes at several tiers, in one chunk and in many, with whole
    subcubes multiplied one cube per batch and in the default batches."""
    d = _symmetric_decay(n, n + leaf, band)
    chunks = (multiply._CHUNK_ELEMENTS, 5 * leaf * leaf)
    for tau in (0.0, 1e-2):
        for chunk, cube_batch in itertools.product(chunks, _CUBE_BATCHES):
            monkeypatch.setattr(multiply, "_CHUNK_ELEMENTS", chunk)
            monkeypatch.setattr(quadtree, "_SCRATCH_ELEMENTS", cube_batch)
            sym, full, halves = _square_with_twin(d, leaf, tau)
            assert halves == 1
            _assert_same_product(sym, full)
            c, stats = sym
            assert c.dtype == dtype
            assert np.array_equal(c.to_dense(), c.to_dense().T)
            if tau:
                assert len({bx.tier for bx in stats.boxes}) >= 2
            if band is not None:
                assert not _grids(c)[2][c.depth].all()


def test_nearly_symmetric_trees_take_the_full_path():
    """A tree whose block pattern is asymmetric, or one element of which is
    1 ulp off its mirror, is squared by the full traversal."""
    d = _symmetric_decay(100, 3, band=30)
    off_by_ulp = d.copy()
    off_by_ulp[3, 5] = np.nextafter(off_by_ulp[3, 5], np.inf)
    pattern = d.copy()
    pattern[0, 90] = 1.0
    for case in (off_by_ulp, pattern):
        x = from_dense(case)
        assert not x.symmetric and not is_bitwise_symmetric(x)
        for tau in (0.0, 1e-2):
            sym, full, halves = _square_with_twin(case, 4, tau)
            assert halves == 0
            _assert_same_product(sym, full)
    c, _ = spamm(from_dense(off_by_ulp), from_dense(off_by_ulp))
    assert not np.array_equal(c.to_dense(), c.to_dense().T)
    assert not c.symmetric


def test_symmetric_square_at_a_tied_tau():
    """With tau exactly the norm product of one off-diagonal triple, which
    is computed (ties are), its mirrored triple ties too, so the symmetric
    square still has the bytes of the full traversal; at the leaf tier and
    at tiers above it."""
    d = _symmetric_decay(128, 17)
    x = from_dense(d)
    for tier, i, j, k in ((x.depth, 3, 5, 4), (x.depth, 10, 12, 11),
                          (x.depth, 20, 23, 21), (x.depth - 1, 4, 6, 5),
                          (x.depth - 2, 1, 3, 2)):
        norms = _grids(x)[1][tier]
        tau = float(np.sqrt(norms[i, k]) * np.sqrt(norms[k, j]))
        assert tau == float(np.sqrt(norms[j, k]) * np.sqrt(norms[k, i]))
        sym, full, halves = _square_with_twin(d, 4, tau)
        assert halves == 1
        _assert_same_product(sym, full)
        assert sym[1].pruned_calls > 0


@pytest.mark.parametrize("n, leaf", [(128, 4), (100, 8)])
def test_flagged_operands_match_pairwise_reference(monkeypatch, n, leaf):
    """A flagged tree stores its blocks with i <= j, and ``spamm`` reads
    each block below the diagonal as the transpose of its stored mirror
    wherever a gather meets it.  The product of two distinct flagged
    trees, and of a flagged tree with an unflagged one on either side, is
    unflagged, stores every block, and has the bytes of the pure-Python
    pairwise sum over the flat recursion's leaf products: at tau 0 (where
    it also matches the triple-loop oracle) and at a pruning tau, with
    whole subcubes whose A or B tiles lie below the diagonal, on it and
    above it, and on the leaf path alone."""
    sym_a = from_dense(_symmetric_decay(n, 1), leaf)
    sym_b = from_dense(_symmetric_decay(n, 2), leaf)
    general = from_dense(_decaying(n, 3), leaf)
    assert sym_a.symmetric and sym_b.symmetric and not general.symmetric
    cubes = _spy_subcubes(monkeypatch)
    for a, b in ((sym_a, sym_b), (sym_a, general), (general, sym_b)):
        pa, pb = padded_dense(a), padded_dense(b)
        for tau in (0.0, 1e-2):
            leaves, _, budget = _flat_reference(pa, pb, leaf, tau)
            keys, blocks, _, _ = _pairwise_reference(pa, pb, leaf, leaves)
            for levels in (multiply._CUBE_LEVELS, ()):
                monkeypatch.setattr(multiply, "_CUBE_LEVELS", levels)
                c, stats = spamm(a, b, SpammConfig(tau=tau))
                assert not c.symmetric
                assert c._keys.tolist() == keys
                assert c._stack.tobytes() == blocks.tobytes()
                assert stats.leaf_matmuls == len(leaves)
                assert math.isclose(stats.omitted_budget, budget, rel_tol=1e-12)
            if tau == 0.0:
                want = oracle_matmul(a.to_dense().tolist(), b.to_dense().tolist())
                assert np.allclose(c.to_dense(), want, rtol=1e-12, atol=1e-12)
    lies = {(i > k, i == k, k > j, k == j) for _, i, j, k, _ in cubes}
    assert all(any(lie[f] for lie in lies) for f in range(4))


@pytest.mark.parametrize("kind, mode", [("gapped", SpammMode(1e-6)),
                                        ("gapless", DroppingMode(1e-5))])
def test_symmetric_flag_through_a_tc2_run(monkeypatch, kind, mode):
    """Every tree that tc2_initial_guess, add, scale, filter_drop and spamm
    build in a TC2 run carries a ``symmetric`` flag equal to the bitwise
    oracle, and, TC2 iterates being symmetric by construction, that flag is
    set."""
    built = Counter()

    def checked(name):
        op = getattr(purification, name)

        def wrapper(*args, **kwargs):
            out = op(*args, **kwargs)
            tree = out[0] if name == "spamm" else out
            assert tree.symmetric and is_bitwise_symmetric(tree), name
            built[name] += 1
            return out
        return wrapper

    for name in ("tc2_initial_guess", "add", "scale", "filter_drop", "spamm"):
        monkeypatch.setattr(purification, name, checked(name))
    f = gen_model_hamiltonian(ModelHamiltonian(64, kind))
    purify(f, 32, mode, reference_energy=-1.0)
    assert built["tc2_initial_guess"] == 1
    assert min(built["spamm"], built["add"], built["scale"]) > 0
    assert built["filter_drop"] == (built["spamm"] if kind == "gapless" else 0)


# -------------------------------------------------------- error accounting

def test_multiply_error_tau0():
    rng = np.random.default_rng(6)
    a = from_dense(rng.standard_normal((48, 48)))
    b = from_dense(rng.standard_normal((48, 48)))
    c, stats = spamm(a, b, SpammConfig(tau=0.0))
    abs_err = np.linalg.norm(c.to_dense() - a.to_dense() @ b.to_dense())
    assert stats.omitted_budget == 0.0
    assert abs_err <= 1e-13 * a.norm() * b.norm()


def test_error_bound_random_decay_pairs():
    """abs_err <= omitted_budget + roundoff across random decay pairs."""
    rng = np.random.default_rng(7)
    taus = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12]
    for _ in range(100):
        n = int(rng.integers(8, 49))
        alpha = float(rng.uniform(0.2, 2.5))
        idx = np.arange(n)
        decay = np.exp(-alpha * np.abs(idx[:, None] - idx[None, :]))
        a = from_dense(decay * rng.standard_normal((n, n)))
        b = from_dense(decay * rng.standard_normal((n, n)))
        scale_ab = a.norm() * b.norm()
        exact = spamm(a, b)[0].to_dense()
        for tau in taus:
            approx, stats = spamm(a, b, SpammConfig(tau=tau))
            abs_err = float(np.linalg.norm(approx.to_dense() - exact))
            assert abs_err <= stats.omitted_budget + 1e-12 * scale_ab


def test_error_sweep_decreases_with_tau():
    a = gen_exponential(512, 1.0)
    b = gen_exponential(512, 2.0)
    exact = spamm(a, b)[0].to_dense()
    errs = {}
    for tau in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        approx, stats = spamm(a, b, SpammConfig(tau=tau))
        errs[tau] = float(np.linalg.norm(approx.to_dense() - exact))
        assert errs[tau] <= stats.omitted_budget + 1e-12
    assert errs[1e-10] < errs[1e-2]


def test_monotone_work_in_tau():
    a = gen_exponential(256, 0.7)
    b = gen_exponential(256, 1.3)
    taus = [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1]
    counts = [spamm(a, b, SpammConfig(tau=t))[1].leaf_matmuls for t in taus]
    for lo, hi in zip(counts[1:], counts[:-1]):
        assert lo <= hi


def test_determinism_bit_identical():
    a = gen_exponential(256, 0.9)
    b = gen_exponential(256, 1.1)
    cfg = SpammConfig(tau=1e-7, collect_boxes=True)
    c1, s1 = spamm(a, b, cfg)
    c2, s2 = spamm(a, b, cfg)
    assert c1.to_dense().tobytes() == c2.to_dense().tobytes()
    assert s1 == s2


def test_tiling_with_empty_skips():
    # identity has off-diagonal Empty leaves: tau=0 exercises the skip path
    i64 = from_dense(np.eye(64))
    _, stats = spamm(i64, i64, SpammConfig(tau=0.0))
    assert stats.leaf_matmuls == 16
    assert stats.omitted_budget == 0.0
    assert stats.pruned_volume == 0
    assert stats.empty_skip_volume > 0
    assert stats.covered_volume(4) == 64 ** 3


# ------------------------------------------------------- norm bound checks

def test_submultiplicativity_identity():
    assert norm_submultiplicativity_check(from_dense(np.eye(16)),
                                          from_dense(np.eye(16)))


def test_submultiplicativity_random_pairs():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = from_dense(rng.standard_normal((32, 32)))
        b = from_dense(rng.standard_normal((32, 32)))
        assert norm_submultiplicativity_check(a, b)


def test_submultiplicativity_rank1_equality():
    rng = np.random.default_rng(9)
    u = rng.standard_normal(32)
    v = rng.standard_normal(32)
    w = rng.standard_normal(32)
    u, v, w = (x / np.linalg.norm(x) for x in (u, v, w))
    a = from_dense(np.outer(u, v))
    b = from_dense(np.outer(v, w))
    assert norm_submultiplicativity_check(a, b)
    prod_norm = spamm(a, b)[0].norm()
    bound = a.norm() * b.norm()
    assert abs(prod_norm - bound) <= 1e-13


# --------------------------------------------------------------- box logs

def _interleave3_ref(i, j, k):
    key = 0
    for bit in range(21):
        key |= (((i >> bit) & 1) << (3 * bit + 2)
                | ((j >> bit) & 1) << (3 * bit + 1)
                | ((k >> bit) & 1) << (3 * bit))
    return key


def test_box_log_roundtrip_and_order(tmp_path):
    a = gen_exponential(128, 1.0)
    b = gen_exponential(128, 2.0)
    _, stats = spamm(a, b, SpammConfig(tau=1e-6, collect_boxes=True))
    assert stats.boxes
    path = tmp_path / "boxes.log"
    write_box_log(stats.boxes, path)
    back = []
    for line in path.read_text().splitlines():
        tier, i_lo, j_lo, k_lo, edge = map(int, line.split())
        assert edge == a.padded_dim >> tier
        assert i_lo % edge == j_lo % edge == k_lo % edge == 0
        back.append(PrunedBox(i_lo, j_lo, k_lo, edge, tier))
    assert sorted(map(repr, back)) == sorted(map(repr, stats.boxes))
    keys = [_interleave3_ref(bx.i_lo, bx.j_lo, bx.k_lo) for bx in back]
    assert keys == sorted(keys)


def _z_curve(order):
    if order == 0:
        return [(0, 0, 0)]
    half = 1 << (order - 1)
    sub = _z_curve(order - 1)
    return [(i * half + si, j * half + sj, k * half + sk)
            for i, j, k in itertools.product((0, 1), repeat=3)
            for si, sj, sk in sub]


def test_box_log_sort_is_z_curve():
    cells = [(i, j, k) for i in range(8) for j in range(8) for k in range(8)]
    cells.sort(key=lambda c: multiply._interleave3(*c))
    assert cells == _z_curve(3)


# -------------------------------------------------------------- validation

def test_config_rejects_bad_tau():
    with pytest.raises(ValueError):
        SpammConfig(tau=-1e-9)
    with pytest.raises(ValueError):
        SpammConfig(tau=float("nan"))
    with pytest.raises(ValueError):
        SpammConfig(tau=float("inf"))
    # a bare tau is not a config; None is the exact multiply
    a = from_dense(np.eye(4))
    with pytest.raises(TypeError, match="config must be a SpammConfig or None"):
        spamm(a, a, 1e-8)


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(10)
    a = from_dense(rng.standard_normal((16, 16)))
    b = from_dense(rng.standard_normal((32, 32)))
    with pytest.raises(DimensionMismatchError):
        spamm(a, b, SpammConfig())
    c = from_dense(rng.standard_normal((16, 16)), leaf_size=2)
    with pytest.raises(DimensionMismatchError):
        spamm(a, c, SpammConfig())
