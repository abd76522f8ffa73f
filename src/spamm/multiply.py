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
absent contributions passed through untouched.  The leaf stage reproduces
exactly that summation tree, so results are bit-reproducible run to run.
Each call builds ``quadtree._grids`` once per distinct operand: the block
index and the pyramids of squared norms, occupancy and smallest leaf
squared norms.  The traversal (``_traverse``) reads the pyramids; they
and its last tier's arrays are freed before the leaf stage allocates its
scratch.  The leaf stage finds every operand block, a leaf triple's or a
whole subcube's, through the block index.

Flagged operands: a tree flagged ``symmetric`` stores its blocks with
i <= j alone; every gather reads an operand's blocks through
``quadtree._gather`` (see ``quadtree``), so each GEMM sees the values and
layout a fully stored operand would give it and keeps its bits.

A triple leaves the traversal in one of four ways: skipped (Empty), pruned,
as a whole subcube, or at the leaf tier.  A tier depth - L, for L = 4, 3,
2, 1, is tried when its block-column GEMM (below) fits the size cap
``_COLUMN_GEMM_MAX``.  There a triple whose
two operand tiles of 2**L x 2**L leaf blocks are fully stored, and whose
smallest leaf norms have a product ``>= tau``, is a whole subcube: a
node's norm is never below any of its leaves' (float sums and square roots
are monotone), so no call below it would be skipped or pruned.  A triple
that is not whole at one tier, or whose tier is not tried, is tried again
as 8 children at the next.  For each inner block k, one GEMM of A's block
column (the cube's 2**L blocks at column k stacked, K = leaf) by B's block
row makes all of the cube's leaf products at that k: block (i, j) of it is
A_ik B_kj, summed over the same K terms as that leaf product's own GEMM.
L slab adds then sum the products over k; on a complete aligned window of
2**L that is the pairwise tree itself, and the last add stores each sum
as one whole block.  Cubes run in batches of about
``quadtree._SCRATCH_ELEMENTS`` leaf products (a larger cube runs alone),
so one batch's GEMM scratch is at most max(_SCRATCH_ELEMENTS, 2**(3L)
leaf**2) product elements plus two gathered operand stacks 1/2**L that
size, whatever the multiply's size.  Each sum is one block of the leaf
stage's buffer, and enters its merge in place as a level-L node beside
the leaf products, so each C block still has one summation tree and one
order.

The leaf stage sorts one entry list, the leaf triples and the cube sums,
once by the key ``(i*nb + j)*nb + k`` (a cube's lowest k) and merges it in
chunks of whole C-block groups.  Every leaf product comes from one GEMM
path: a leaf triple that no whole subcube holds is a subcube of edge 1,
whose product is its sum.  One buffer per multiply holds [cube sums | one
chunk's leaf products], the latter at most ``_CHUNK_ELEMENTS + nb *
leaf**2`` elements.  Beside it are the output, one GEMM batch (at edge 1
only its two gathered operand stacks, each at most ``_SCRATCH_ELEMENTS``
elements, as its products go straight to the buffer) and one add's
slice, at most ``_SCRATCH_ELEMENTS`` elements, since each merge level,
level 0 included, adds its pairs in slices.  Every level adds buffer
rows by index; the nodes left stay in key order, so no level sorts, and
the merge stops once every C block has one node.  A final gather puts
the merged blocks in key order.  Nothing copies the product stack or a
cube sum.

Symmetric square: when ``a is b`` has the ``symmetric`` flag, the traversal
keeps only triples with i <= j (the children of a strict-upper triple are
all strict-upper), and the product is the flagged tree of the C blocks
with i <= j, stored as every flagged tree is.  A diagonal triple (i == j)
that is whole runs the same full GEMMs and merges only its leaf blocks
with i <= j, for every k.  Triple (j, i, k) multiplies the transposes of
the blocks of (i, j, k) in swapped order; each C element is summed over
the inner index in order, as the leaf GEMMs do, so its leaf product is
that product's transpose, merged in the same order: each C_ji that the
product stands for is C_ij transposed, bit for bit.  Cached norms are
transpose-invariant, so the pruning test of (i, j, k) is that of
(j, i, k): the product is the full one by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadtree
from .quadtree import _check_tau, _from_blocks, _gather, _grids, _require_conformable

# Child offset enumeration for one tier of expansion: (di, dj, dk).
_DI = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.intp)
_DJ = np.array([0, 0, 1, 1, 0, 0, 1, 1], dtype=np.intp)
_DK = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.intp)

# Leaf products are multiplied and merged in chunks of about this many
# elements, a cap apart from quadtree._SCRATCH_ELEMENTS since each chunk
# pays a fixed merge overhead: chunks of 2**16 ran the gapped n=1024 purify
# 1.02-1.06x and the n=1024 multiply 1.08x as long, with equal outputs
# (calls alternated in one process, 2-core x86-64, BLAS on 1 thread).
_CHUNK_ELEMENTS = 1 << 23

# A triple at tier depth - L, for each L here, may leave the traversal as a
# whole subcube of 2**L leaf blocks along each axis.
_CUBE_LEVELS = (4, 3, 2, 1)

# Largest M*N*K of the GEMM that multiplies a cube's block column by its
# block row.  Each element of it is one dot product over the K = leaf terms
# of its leaf GEMM, but a BLAS may pick its kernel by M, N and K: OpenBLAS's
# SkylakeX kernels switch from their small-matrix path, whose sums of -0.0
# terms give -0.0, to the blocked one, which starts them from +0.0, above
# M*N*K = 10**6.  A tier whose GEMM would pass the cap is not tried.
_COLUMN_GEMM_MAX = 1 << 19


@dataclass(frozen=True)
class SpammConfig:
    """Knobs for one multiply.

    tau
        Truncation threshold on the product of subtree Frobenius norms;
        0 disables pruning entirely (exact product).
    collect_boxes
        Record a PrunedBox for every tau-pruned call (off by default;
        box lists can be large).
    """

    tau: float = 0.0
    collect_boxes: bool = False

    def __post_init__(self):
        _check_tau(self.tau)


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
    """Work and truncation accounting for one multiply, over the whole
    (i, j, k) product cube.

    ``pruned_calls`` counts every short-circuited recursion call, whether
    skipped for an Empty operand or rejected by the norm test; only the
    latter contribute to ``omitted_budget``, ``boxes`` and
    ``pruned_volume``.  Volumes are in elements of the padded index cube.
    A symmetric square (see the module note) visits only triples with
    i <= j, but counts each off-diagonal one twice and lists its mirrored
    box (j, i, k): ``leaf_matmuls`` counts leaf products of the cube, not
    GEMMs run.  Its ``omitted_budget`` adds off-diagonal norm products
    times 2, so it may differ in the last bits from the full traversal's.
    """

    leaf_matmuls: int = 0
    pruned_calls: int = 0
    omitted_budget: float = 0.0
    boxes: list[PrunedBox] | None = None
    pruned_volume: int = 0
    empty_skip_volume: int = 0

    def covered_volume(self, leaf_size):
        """Total product-space volume accounted for by this multiply:
        visited leaf cells + tau-pruned boxes + Empty-operand skips.
        Equals padded_dim**3 for any complete multiply."""
        return (self.leaf_matmuls * leaf_size ** 3
                + self.pruned_volume + self.empty_skip_volume)


def spamm(a, b, config=None):
    """Multiply two quadtree matrices with norm-product pruning.

    Parameters
    ----------
    a, b : QuadTreeMatrix
        Conformable operands (same logical_dim and leaf_size).
    config : SpammConfig, optional
        Defaults to an exact multiply (tau = 0); anything else, a bare tau
        included, is a TypeError.

    Returns
    -------
    (QuadTreeMatrix, ProductStats)
    """
    _require_conformable(a, b)
    if config is None:
        config = SpammConfig()
    elif not isinstance(config, SpammConfig):
        raise TypeError(f"config must be a SpammConfig or None, got {config!r}")
    symmetric = a is b and a.symmetric
    stats = ProductStats(boxes=[] if config.collect_boxes else None)
    # The traversal's arrays and the operands' pyramids are gone by the
    # time the leaf stage allocates its scratch.
    leaves, cubes, indexes = _traverse(a, b, float(config.tau), symmetric, stats)
    if leaves.size or cubes:
        keys, blocks = _leaf_stage(a, b, leaves, cubes, a.depth, symmetric, indexes)
    else:
        keys, blocks = leaves, np.zeros((0, a.leaf_size, a.leaf_size))
    # The product of a symmetric square is its blocks with i <= j.
    return _from_blocks(keys, blocks, a.logical_dim, a.leaf_size, symmetric), stats


def _traverse(a, b, tau, symmetric, stats):
    """Walk the tiers of the product space from the root, counting every
    skipped, pruned and computed triple in ``stats``.  Returns the keys
    ``(i*nb + j)*nb + k`` of the leaf triples left at the leaf tier, the
    whole subcubes as ``(level, i, j, k)`` per tier, and the operands'
    block indexes from ``_grids`` (the pyramids are dropped here)."""
    depth = a.depth
    nb = a.block_grid
    cubes = []  # (level, i, j, k) of the whole subcubes, per tier
    index_a, norm_a, occ_a, low_a = _grids(a)
    index_b, norm_b, occ_b, low_b = (_grids(b) if b is not a
                                     else (index_a, norm_a, occ_a, low_a))

    ia = ja = ka = np.zeros(1, dtype=np.intp)

    for tier in range(depth + 1):
        edge = a.padded_dim >> tier

        # Flat positions of the operand blocks in this tier's pyramids.
        fa = (ia << tier) + ka
        fb = (ka << tier) + ja
        alive = np.take(occ_a[tier], fa) & np.take(occ_b[tier], fb)
        norm_prod = (np.sqrt(np.take(norm_a[tier], fa))
                     * np.sqrt(np.take(norm_b[tier], fb)))
        pruned = alive & (norm_prod < tau)
        active = alive & ~pruned
        # A strict-upper triple of a symmetric square also stands for (j, i, k).
        mirrored = (ia < ja) if symmetric else np.zeros(ia.size, dtype=bool)
        weight = 1 + mirrored

        n_skip = int(weight[~alive].sum())
        n_pruned = int(weight[pruned].sum())
        stats.pruned_calls += n_skip + n_pruned
        stats.empty_skip_volume += n_skip * edge ** 3
        stats.pruned_volume += n_pruned * edge ** 3
        if n_pruned:
            stats.omitted_budget += float((norm_prod * weight)[pruned].sum())
        if stats.boxes is not None and n_pruned:
            back = pruned & mirrored
            stats.boxes.extend(
                PrunedBox(int(x) * edge, int(y) * edge, int(z) * edge, edge, tier)
                for x, y, z in zip(np.r_[ia[pruned], ja[back]],
                                   np.r_[ja[pruned], ia[back]],
                                   np.r_[ka[pruned], ka[back]]))

        if tier == depth:
            stats.leaf_matmuls += int(weight[active].sum())
            leaves = ((ia[active] * nb + ja[active]) << depth) + ka[active]
            return leaves, cubes, (index_a, index_b)

        level = depth - tier
        # A tier is tried only if its block-column GEMM fits its cap.
        if (level in _CUBE_LEVELS and active.any()
                and (a.leaf_size << level) ** 2 * a.leaf_size <= _COLUMN_GEMM_MAX):
            # Every leaf triple below a triple whose operand tiles have all
            # leaves stored, with smallest norms whose product is >= tau,
            # is computed: a node's norm is never below one of its leaves'.
            # A diagonal triple of a symmetric square stands for its leaf
            # triples with i <= j alone, weight 1 for the whole cube.
            low = (np.sqrt(np.take(low_a[tier], fa))
                   * np.sqrt(np.take(low_b[tier], fb)))
            whole = active & (low >= tau) & (low > 0)
            stats.leaf_matmuls += (1 << 3 * level) * int(weight[whole].sum())
            if whole.any():
                cubes.append((level, ia[whole], ja[whole], ka[whole]))
            active &= ~whole

        ia = (ia[active, None] * 2 + _DI).ravel()
        ja = (ja[active, None] * 2 + _DJ).ravel()
        ka = (ka[active, None] * 2 + _DK).ravel()
        if symmetric:
            upper = ia <= ja
            ia, ja, ka = ia[upper], ja[upper], ka[upper]


def _leaf_stage(a, b, keys, cubes, depth, symmetric, indexes):
    """Compute the surviving leaf products and the whole subcubes and merge
    them per C block.  ``keys`` are the leaf triples' keys
    ``(i*nb + j)*nb + k``; ``cubes`` lists the whole subcubes of each tier
    as ``(level, i, j, k)``, see ``_subcube_sums``; ``indexes`` are the
    operands' block indexes, which find the blocks of both.  One entry
    list holds the leaf triples and the cube sums, sorted once by key, and
    one buffer holds [cube sums | one chunk's leaf products]: the sums, the
    leaf products of a chunk, at most ``_CHUNK_ELEMENTS + nb * leaf**2``
    elements, and the merged output are the leaf stage's scratch beside
    the GEMM batches and merge slices of ``_SCRATCH_ELEMENTS``.  Every
    leaf product, a cube's or a leaf triple's (an edge-1 cube), is made
    by ``_subcube_sums``.
    Returns the C block keys ``i * nb + j`` in increasing order and the
    (m, b, b) stack of merged blocks in that order."""
    leaf, m, nb = a.leaf_size, keys.size, a.block_grid
    # A chunk holds the groups that start within one span of chunk_entries
    # entries, so it never splits a group (the pairwise merge needs the
    # whole contribution set) and ends within one group, at most nb
    # entries, of the span.
    chunk_entries = max(1, _CHUNK_ELEMENTS // (leaf * leaf))
    sizes = [cube[1].size << 2 * cube[0] for cube in cubes]
    head = sum(sizes)
    buf = np.empty((head + min(m, chunk_entries + nb), leaf, leaf))
    # Each entry, a leaf triple or a cube's merge node, has a key and the
    # buffer row ``at`` of its sum (-1 for a leaf triple).  The keys are
    # unique (a cube covers its k-window), so any sort gives the same
    # order; nb**3 fits in intp for any nb whose operands fit in memory.
    keys, at = [keys], [np.full(m, -1, dtype=np.intp)]
    for (level, ci, cj, ck), start in zip(cubes, np.cumsum([0] + sizes)):
        _subcube_sums(a, b, level, ci, cj, ck, indexes, buf, start)
        # Cube c's block (i, j) is the level-``level`` node at key
        # (i*nb + j)*nb + k_lo and buffer row start + c*e*e + i*e + j; a
        # diagonal cube of a symmetric square keeps its blocks with i <= j.
        e = 1 << level
        pi, pj = np.divmod(np.arange(e * e, dtype=np.intp), e)
        node_keys = ((((ci * e * nb + cj * e) << depth) + ck * e)[:, None]
                     + ((pi * nb + pj) << depth))
        node = np.flatnonzero((ci != cj)[:, None] | (pi <= pj) | (not symmetric))
        keys.append(node_keys.reshape(-1)[node])
        at.append(start + node)
    keys, at = np.concatenate(keys), np.concatenate(at)
    order = np.argsort(keys)
    keys, at = keys[order], at[order]
    group_starts = np.flatnonzero(np.diff(keys >> depth, prepend=-1))
    cuts = group_starts[np.diff(group_starts // chunk_entries, prepend=-1) > 0]
    cuts = np.append(cuts, keys.size)
    parts = [_merge_chunk(a, b, keys[s:e], at[s:e], buf, head, depth, indexes)
             for s, e in zip(cuts, cuts[1:])]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(part) for part in zip(*parts))


def _subcube_sums(a, b, level, ci, cj, ck, indexes, sums, start):
    """Multiply the whole subcubes at (ci, cj, ck) in tier depth - level,
    each of edge e = 2**level leaf blocks found by the operands' block
    ``indexes``, and write the sums over k of their leaf blocks to
    ``sums`` from block ``start`` on: cube c's block (i, j) is block
    ``start + c*e*e + i*e + j``.  Each inner block k takes one GEMM of A's
    block column by B's block row.  The sum over k then follows the
    merge's pairwise tree, which on a complete aligned window has no lone
    nodes.  An edge-1 cube (level 0) is one leaf triple, whose GEMM is
    its stacked leaf GEMM and whose product is its sum, written straight
    to ``sums``.  Cubes run in batches whose e**3 leaf products per cube
    total at most ``_SCRATCH_ELEMENTS`` elements, or one cube if that is
    larger: a batch's scratch is those products (none at edge 1) plus
    A's and B's gathered blocks (``quadtree._gather``), 1/e of them each,
    their gather indexes and the leaf-row order that lays out B's block
    rows."""
    e, leaf, nb = 1 << level, a.leaf_size, a.block_grid
    span = np.arange(e, dtype=np.intp)
    # From a cube's corner blocks of A and B in the block grid, the
    # [k, 1, i] and [k, 1, j] offsets of its tiles' blocks
    offsets_a = (span * nb + span[:, None])[:, None, :]
    offsets_b = (span[:, None] * nb + span)[:, None, :]
    blocks = sums[start:start + ci.size * e * e]
    # The GEMM leaves each cube as (i, r, j, c); the last add writes it as
    # (i, j, r, c), one block per (i, j).
    out = blocks.reshape(-1, e, e, leaf, leaf).swapaxes(2, 3)
    batch = max(1, quadtree._SCRATCH_ELEMENTS // (e ** 3 * leaf * leaf))
    b_rows = None
    for lo in range(0, ci.size, batch):
        run = slice(lo, lo + batch)
        corner_a = ((ci[run] * nb + ck[run]) * e)[:, None]
        corner_b = ((ck[run] * nb + cj[run]) * e)[:, None]
        tile_a = _gather(a._stack, np.take(indexes[0], corner_a + offsets_a))  # [k, cube, i, r, t]
        tile_b = _gather(b._stack, np.take(indexes[1], corner_b + offsets_b))  # [k, cube, j, t, c]
        if e > 1:
            # B's block row: leaf row t of every block j, one after another,
            # taken as leaf rows in [k, cube, t, j] order
            if b_rows is None or b_rows.size != tile_b.size // leaf:
                b_rows = ((np.arange(tile_b.size // (e * leaf * leaf))[:, None, None] * e
                           + span) * leaf + np.arange(leaf)[:, None]).ravel()
            tile_b = np.take(tile_b.reshape(-1, leaf), b_rows, axis=0)   # [k, cube, t, j, c]
        tile_a = tile_a.reshape(e, -1, e * leaf, leaf)
        tile_b = tile_b.reshape(e, -1, leaf, e * leaf)
        if e == 1:  # a lone leaf triple: its product is its sum
            np.matmul(tile_a, tile_b, out=blocks[None, run])
            continue
        prod = np.matmul(tile_a, tile_b).reshape(e, -1, e, leaf, e, leaf)
        # Merge level l: each node at k = 0 mod 2**(l + 1) absorbs k + 2**l.
        step = 1
        while step < e // 2:
            np.add(prod[::2 * step], prod[step::2 * step], out=prod[::2 * step])
            step *= 2
        np.add(prod[0], prod[step], out=out[run])


def _merge_chunk(a, b, keys, at, buf, head, depth, indexes):
    """Multiply and merge one chunk of whole groups: the entries of
    ``_leaf_stage`` at sorted ``keys``, a cube sum's at buffer row ``at``.
    The chunk's leaf triples are edge-1 subcubes: ``_subcube_sums`` writes
    their products to ``buf`` from row ``head`` on, and every merge adds
    rows of ``buf`` in place.  At merge level l, nodes whose keys agree
    above bit l are siblings, and the first (lower k) absorbs the second;
    the sum of a subcube of edge 2**L is a node from level L on.  The nodes
    left after each level stay in key order."""
    node_keys, node_rows = keys, at.copy()
    lone = np.flatnonzero(at < 0)
    # Leaf triple (i, j, k), key (i*nb + j)*nb + k, multiplies A_ik by B_kj;
    # its coordinates are freed with the call.
    _subcube_sums(a, b, 0, *np.unravel_index(keys[lone], (a.block_grid,) * 3),
                  indexes, buf, head)
    node_rows[lone] = np.arange(head, head + lone.size)
    n_groups = 1 + int(np.count_nonzero(np.diff(keys >> depth)))
    # The pairs of a level are added in slices, so the gathered blocks and
    # their sum are bounded by the scratch cap, not by the level.
    pairs = max(1, quadtree._SCRATCH_ELEMENTS // (a.leaf_size * a.leaf_size))
    for level in range(depth):
        if node_keys.size == n_groups:
            break
        up = node_keys >> (level + 1)
        same = up[:-1] == up[1:]
        first = np.flatnonzero(same)
        for lo in range(0, first.size, pairs):
            pair = first[lo:lo + pairs]
            buf[node_rows[pair]] += np.take(buf, node_rows[pair + 1], axis=0)
        keep = np.concatenate(([True], ~same))
        node_keys, node_rows = node_keys[keep], node_rows[keep]
    return node_keys >> depth, np.take(buf, node_rows, axis=0)


def _interleave3(i, j, k):
    """Morton (Z-order) key: the bits of three non-negative ints
    interleaved, i-major."""
    key = 0
    t = 0
    while i or j or k:
        key |= (((i & 1) << 2) | ((j & 1) << 1) | (k & 1)) << (3 * t)
        i >>= 1
        j >>= 1
        k >>= 1
        t += 1
    return key


def write_box_log(boxes, path):
    """Write a box log: one line per pruned box, ``tier i_lo j_lo k_lo edge``,
    sorted by Morton key of (i_lo, j_lo, k_lo) so nearby cuboids are nearby
    in the file."""
    ordered = sorted(boxes, key=lambda bx: _interleave3(bx.i_lo, bx.j_lo, bx.k_lo))
    with open(path, "w") as fh:
        for bx in ordered:
            fh.write(f"{bx.tier} {bx.i_lo} {bx.j_lo} {bx.k_lo} {bx.edge}\n")
