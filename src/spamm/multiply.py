"""Recursive product-space truncation: the sparse approximate matrix multiply.

The product C = A * B is evaluated by recursing over quadrant triples
(i, j, k), where quadrant k of A's block row i meets quadrant k of B's block
column j.  A call is skipped outright when either operand is exactly zero
(Empty), and *pruned* when the product of cached Frobenius norms falls below
the truncation threshold::

    ||A^k||_F * ||B^k||_F < tau        (strict; ties are computed)

Each pruned call omits a cuboid of the (i, j, k) product space and
contributes its norm product to ``omitted_budget``; by the triangle
inequality the absolute Frobenius error of the returned product never
exceeds that budget (plus roundoff).

Implementation note: the recursion is evaluated breadth-first, one tier at a
time, with all surviving triples held in index arrays and all leaf products
computed by batched ``np.matmul``.  Per-quadrant accumulation follows the
fixed order "first sub-product, then second", which over the inner index k
amounts to summing contributions pairwise over aligned binary intervals with
absent contributions passed through untouched.  The merge below reproduces
exactly that summation tree, so results are bit-reproducible run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .quadtree import _from_blocks, _require_conformable, node_norm

# Child offset enumeration for one tier of expansion: (di, dj, dk).
_DI = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.intp)
_DJ = np.array([0, 0, 1, 1, 0, 0, 1, 1], dtype=np.intp)
_DK = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.intp)

# Leaf products are batched; cap the scratch size per batch (in elements).
_CHUNK_ELEMENTS = 1 << 23


@dataclass(frozen=True)
class SpammConfig:
    """Knobs for one multiply.

    tau
        Truncation threshold on the product of subtree Frobenius norms;
        0 disables pruning entirely (exact product).
    collect_boxes
        Record a PrunedBox for every tau-pruned call (off by default;
        box lists can be large).
    count_stats
        Maintain the counters in ProductStats (on by default).
    deterministic
        Fixed accumulation order.  This implementation is single-threaded,
        so results are bit-reproducible either way; relaxed mode merely
        *permits* reassociation and is accepted for interface parity.
    tier_tau_decay
        Optional pruning policy: divide the threshold by 8 per tier of
        descent (tier k prunes against tau / 8**k).  Overly pessimistic in
        practice — deep tiers almost never prune — so it is off by default;
        the flat absolute tau is the standard rule.
    """

    tau: float = 0.0
    collect_boxes: bool = False
    count_stats: bool = True
    deterministic: bool = True
    tier_tau_decay: bool = False

    def __post_init__(self):
        if not math.isfinite(self.tau) or self.tau < 0:
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")


@dataclass(frozen=True)
class PrunedBox:
    """One tau-pruned cuboid of the (i, j, k) product space.

    Coordinates are element offsets into the padded index cube; the cuboid
    spans [i_lo, i_lo + edge) x [j_lo, j_lo + edge) x [k_lo, k_lo + edge),
    with edge = padded_dim / 2**tier.
    """

    i_lo: int
    j_lo: int
    k_lo: int
    edge: int
    tier: int


@dataclass
class ProductStats:
    """Work and truncation accounting for one multiply.

    ``pruned_calls`` counts every short-circuited recursion call, whether
    skipped for an Empty operand or rejected by the norm test; only the
    latter contribute to ``omitted_budget``, ``boxes`` and
    ``pruned_volume``.  Volumes are in elements of the padded index cube.
    """

    leaf_matmuls: int = 0
    pruned_calls: int = 0
    omitted_budget: float = 0.0
    max_depth_reached: int = 0
    boxes: list[PrunedBox] | None = None
    pruned_volume: int = 0
    empty_skip_volume: int = 0

    def covered_volume(self, leaf_size):
        """Total product-space volume accounted for by this multiply:
        visited leaf cells + tau-pruned boxes + Empty-operand skips.
        Equals padded_dim**3 for any complete multiply."""
        return (self.leaf_matmuls * leaf_size ** 3
                + self.pruned_volume + self.empty_skip_volume)


def _merge_contributions(prod, groups, slots, levels):
    """Accumulate leaf products that share a C block (group) over the inner
    index, pairwise over aligned binary intervals: slots 2m and 2m+1 merge
    (first + second) when both present, singletons pass through bit-intact.

    Arrays must be sorted by (group, slot).  Returns (blocks, groups) with
    one entry per group.
    """
    for _ in range(levels):
        if len(prod) > 1:
            left = ((groups[:-1] == groups[1:])
                    & (slots[:-1] + 1 == slots[1:])
                    & (slots[:-1] & 1 == 0))
            idx = np.flatnonzero(left)
            if idx.size:
                prod[idx] += prod[idx + 1]
                keep = np.ones(len(prod), dtype=bool)
                keep[idx + 1] = False
                prod = prod[keep]
                groups = groups[keep]
                slots = slots[keep]
        slots = slots >> 1
    return prod, groups


def spamm(a, b, config=None):
    """Multiply two quadtree matrices with norm-product pruning.

    Parameters
    ----------
    a, b : QuadTreeMatrix
        Conformable operands (same logical_dim, leaf_size and dtype).
    config : SpammConfig, optional
        Defaults to an exact multiply (tau = 0).

    Returns
    -------
    (QuadTreeMatrix, ProductStats)
    """
    _require_conformable(a, b)
    if config is None:
        config = SpammConfig()
    tau = float(config.tau)
    counting = config.count_stats

    n_pad = a.padded_dim
    leaf = a.leaf_size
    depth = a.depth
    nb = a.block_grid
    stats = ProductStats(boxes=[] if config.collect_boxes else None)
    box_batches = []

    keys = np.zeros(0, dtype=np.intp)
    blocks = np.zeros((0, leaf, leaf), dtype=a.dtype)

    ia = np.zeros(1, dtype=np.intp)
    ja = np.zeros(1, dtype=np.intp)
    ka = np.zeros(1, dtype=np.intp)

    for tier in range(depth + 1):
        if ia.size == 0:
            break
        stats.max_depth_reached = tier
        edge = n_pad >> tier

        alive = a._occupied[tier][ia, ka] & b._occupied[tier][ka, ja]
        norm_prod = np.sqrt(a._norm_sq[tier][ia, ka]) * np.sqrt(b._norm_sq[tier][ka, ja])
        tau_tier = tau * 0.125 ** tier if config.tier_tau_decay else tau
        pruned = alive & (norm_prod < tau_tier)
        active = alive & ~pruned

        if counting:
            n_skip = int(ia.size - np.count_nonzero(alive))
            n_pruned = int(np.count_nonzero(pruned))
            stats.pruned_calls += n_skip + n_pruned
            stats.empty_skip_volume += n_skip * edge ** 3
            stats.pruned_volume += n_pruned * edge ** 3
            if n_pruned:
                stats.omitted_budget += float(norm_prod[pruned].sum())
        if config.collect_boxes and pruned.any():
            box_batches.append((tier, edge, ia[pruned] * edge,
                                ja[pruned] * edge, ka[pruned] * edge))

        if tier == depth:
            ia, ja, ka = ia[active], ja[active], ka[active]
            if counting:
                stats.leaf_matmuls += int(ia.size)
            if ia.size:
                keys, blocks = _leaf_stage(a, b, ia, ja, ka, nb, depth)
            break

        ia = ia[active]
        ja = ja[active]
        ka = ka[active]
        ia = (ia[:, None] * 2 + _DI).ravel()
        ja = (ja[:, None] * 2 + _DJ).ravel()
        ka = (ka[:, None] * 2 + _DK).ravel()

    if config.collect_boxes:
        for tier, edge, bi, bj, bk in box_batches:
            stats.boxes.extend(
                PrunedBox(int(x), int(y), int(z), edge, tier)
                for x, y, z in zip(bi, bj, bk))

    c = _from_blocks(keys, blocks, a.logical_dim, leaf)
    return c, stats


def _leaf_stage(a, b, ia, ja, ka, nb, depth):
    """Compute the surviving leaf products (at least one) and merge them per
    C block.  Returns the C block keys ``i * nb + j`` in increasing order
    and the (m, b, b) stack of merged blocks in that order."""
    m = ia.size
    leaf = a.leaf_size
    # The (i, j, k) triples are unique, so sorting their row-major key gives
    # the same permutation as a lexicographic sort; nb**3 fits in intp for
    # any nb whose operands fit in memory.
    order = np.argsort((ia * nb + ja) * nb + ka, kind="stable")
    ia, ja, ka = ia[order], ja[order], ka[order]
    groups = ia * nb + ja
    rows_a = a._index[ia, ka]
    rows_b = b._index[ka, ja]

    chunk_triples = max(1, _CHUNK_ELEMENTS // (leaf * leaf))
    # Chunk boundaries must not split a group, or the pairwise merge would
    # run on a partial contribution set.
    starts = [0]
    while starts[-1] + chunk_triples < m:
        cut = starts[-1] + chunk_triples
        g = groups[cut]
        while cut > starts[-1] and groups[cut - 1] == g:
            cut -= 1
        if cut == starts[-1]:  # one group larger than a chunk; take it whole
            cut = starts[-1] + chunk_triples
            while cut < m and groups[cut] == g:
                cut += 1
        starts.append(cut)
    starts.append(m)

    keys, blocks = [], []
    for s, e in zip(starts[:-1], starts[1:]):
        if s == e:
            continue
        prod = np.matmul(np.take(a._stack, rows_a[s:e], axis=0),
                         np.take(b._stack, rows_b[s:e], axis=0))
        merged, gg = _merge_contributions(prod, groups[s:e], ka[s:e].copy(), depth)
        keys.append(gg)
        blocks.append(merged)
    if len(keys) == 1:
        return keys[0], blocks[0]
    return np.concatenate(keys), np.concatenate(blocks)


def exact_multiply(a, b):
    """The exact product (tau = 0); Empty blocks still short-circuit."""
    c, _ = spamm(a, b, SpammConfig(tau=0.0, count_stats=False))
    return c


def multiply_error(a, b, config):
    """Run the truncated multiply and measure it against the exact product.

    Returns ``(abs_err, omitted_budget)`` where abs_err is the Frobenius norm
    of the dense difference.  The error contract guarantees
    abs_err <= omitted_budget + 1e-12 * ||a|| * ||b||.
    """
    if config.tau > 0 and not config.count_stats:
        config = replace(config, count_stats=True)
    approx, stats = spamm(a, b, config)
    exact = exact_multiply(a, b)
    abs_err = float(np.linalg.norm(approx.to_dense() - exact.to_dense()))
    return abs_err, stats.omitted_budget


def norm_submultiplicativity_check(a, b):
    """Verify the norm bounds the pruning rule relies on, on actual data:
    ||A*B||_F <= ||A||_F * ||B||_F, and at tier 1 that ||A*B||_F is bounded
    by the 2x2 block-norm expansion (sum over quadrant products of child
    norms).  Allows 8 ulp of slack; returns True when both hold.
    """
    _require_conformable(a, b)
    c = exact_multiply(a, b)
    slack = 1.0 + 8 * float(np.finfo(a.dtype).eps)
    nc = node_norm(c)
    bound_root = node_norm(a) * node_norm(b)
    if nc > bound_root * slack:
        return False
    if a.depth >= 1:
        an = np.sqrt(a._norm_sq[1])
        bn = np.sqrt(b._norm_sq[1])
        expansion = 0.0
        for i in range(2):
            for j in range(2):
                expansion += an[i, 0] * bn[0, j] + an[i, 1] * bn[1, j]
        if nc > expansion * slack:
            return False
    return True


def write_box_log(boxes, path, padded_dim):
    """Write a box log: one line per pruned box, ``tier i_lo j_lo k_lo edge``,
    sorted by Morton key of (i_lo, j_lo, k_lo) so nearby cuboids are nearby
    in the file."""
    from .ordering import _interleave3

    ordered = sorted(boxes, key=lambda bx: _interleave3(bx.i_lo, bx.j_lo, bx.k_lo))
    with open(path, "w") as fh:
        for bx in ordered:
            fh.write(f"{bx.tier} {bx.i_lo} {bx.j_lo} {bx.k_lo} {bx.edge}\n")


def read_box_log(path):
    """Parse a box log written by write_box_log."""
    boxes = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            tier, i_lo, j_lo, k_lo, edge = (int(tok) for tok in line.split())
            boxes.append(PrunedBox(i_lo, j_lo, k_lo, edge, tier))
    return boxes
