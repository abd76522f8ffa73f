"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths: the
triple-loop multiply is pure Python over lists, the reference projector
comes from a dense eigensolver, and the plain-array purification recurrence
uses numpy matmul directly, as does the falling-gap McWeeny loop that
defined the projector energy.  Agreement between library output and these
implementations is what the tests mean by "correct".  The one exception,
``every_sweep_tc2``, reuses ``tc2_step`` on purpose: it is a reference for
the bookkeeping of ``purify``'s sweep loop, not for the algebra.
"""

import math

import numpy as np
import pytest

from spamm import purification
from spamm.generators import ModelHamiltonian, gen_model_hamiltonian
from spamm.multiply import spamm
from spamm.purification import SpammMode, purify
from spamm.quadtree import _grids, distance, trace


def oracle_matmul(a, b):
    """Triple-loop dense multiply, pure Python over list rows."""
    n, m = len(a), len(b[0])
    inner = len(b)
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik == 0.0:
                continue
            bk = b[k]
            for j in range(m):
                oi[j] += aik * bk[j]
    return np.array(out)


def norm_submultiplicativity_check(a, b):
    """Verify the norm bounds the pruning rule relies on, on actual data:
    ||A*B||_F <= ||A||_F * ||B||_F, and at tier 1 that ||A*B||_F is bounded
    by the 2x2 block-norm expansion (sum over quadrant products of child
    norms).  Allows 8 ulp of slack; returns True when both hold.
    """
    c = spamm(a, b)[0]
    slack = 1.0 + 8 * float(np.finfo(a.dtype).eps)
    nc = c.norm()
    if nc > a.norm() * b.norm() * slack:
        return False
    if a.depth >= 1:
        an = np.sqrt(_grids(a)[1][1])
        bn = np.sqrt(_grids(b)[1][1])
        expansion = 0.0
        for i in range(2):
            for j in range(2):
                expansion += an[i, 0] * bn[0, j] + an[i, 1] * bn[1, j]
        if nc > expansion * slack:
            return False
    return True


def sum_of_squares(blocks):
    """Squared Frobenius norm of each b x b block of ``blocks`` (any leading
    shape), in the library's one order: one einsum over a C-contiguous
    (m, b, b) copy, which sums each block by its values alone (see
    ``fsum_of_squares`` for a check of its accuracy)."""
    b = blocks.shape[-1]
    flat = np.ascontiguousarray(blocks, dtype=np.float64).reshape(-1, b, b)
    return np.einsum("kij,kij->k", flat, flat).reshape(blocks.shape[:-2])


def fsum_of_squares(blocks):
    """Each b x b block's float squares summed exactly rounded by
    ``math.fsum``: an accuracy reference that shares no summation order
    with the library."""
    b = blocks.shape[-1]
    return np.array([math.fsum(row) for row in
                     np.square(np.asarray(blocks).reshape(-1, b * b)).tolist()])


def mirrored_child_sum(fine):
    """One tier of norm aggregation in the library's one order:
    (11 + 22) + (12 + 21)."""
    return ((fine[0::2, 0::2] + fine[1::2, 1::2])
            + (fine[0::2, 1::2] + fine[1::2, 0::2]))


def full_blocks(m):
    """Keys and stack of every nonzero block the tree ``m`` represents, in
    key order, whatever it stores.  A tree flagged ``symmetric`` stores
    its blocks with i <= j alone (asserted here), each strict-upper block
    (i, j) also standing for its transpose at (j, i)."""
    keys, stack = m._keys, m._stack
    if not m.symmetric:
        return keys, stack
    nb = m.block_grid
    i, j = np.divmod(keys, nb)
    assert (i <= j).all(), "a tree flagged symmetric stores a block with i > j"
    strict = i < j
    full = np.concatenate((keys, j[strict] * nb + i[strict]))
    order = np.argsort(full)
    return full[order], np.concatenate((stack, stack[strict].swapaxes(1, 2)))[order]


def audit_norm_cache(m):
    """Recompute every norm of ``m``'s pyramid (``_grids``, built from the
    tree's per-block squared norms) from its stored blocks, summing
    each block's squares and each node's children in the library's one
    order (``sum_of_squares``, ``mirrored_child_sum``); return the largest
    relative discrepancy over all nodes.  The norm-cache invariant
    requires at most 4 * machine epsilon; a tree built along the library's
    one construction path gives 0.0.  A flagged tree's mirrored blocks
    take their stored mirrors' sums.  Every stored block's squared norm is
    also asserted to lie within b**2 * eps (relative) of its
    ``fsum_of_squares``."""
    nb, b = m.block_grid, m.leaf_size
    exact = fsum_of_squares(m._stack)
    cached = m._block_norm_sq
    assert (np.abs(cached - exact) <= b * b * np.finfo(np.float64).eps * exact).all()
    i, j = np.divmod(m._keys, nb)
    fresh = np.zeros((nb, nb))
    fresh[i, j] = sum_of_squares(m._stack)
    if m.symmetric:
        fresh[j, i] = fresh[i, j]
    worst = 0.0
    norm_sq = _grids(m)[1]
    for k in range(m.depth, -1, -1):
        stored = norm_sq[k]
        rel = np.abs(fresh - stored) / np.where(stored > 0, stored, 1.0)
        worst = max(worst, float(rel.max()))
        if k > 0:
            fresh = mirrored_child_sum(fresh)
    return worst


def is_bitwise_symmetric(m):
    """True iff the tree ``m`` equals its transpose bit for bit (so -0.0 is
    not +0.0): a symmetric pattern of the blocks it represents
    (``full_blocks``), each its mirror's transpose."""
    keys, stack = full_blocks(m)
    i, j = np.divmod(keys, m.block_grid)
    mirror = np.searchsorted(keys, j * m.block_grid + i)
    if not np.array_equal(keys[np.minimum(mirror, keys.size - 1)], j * m.block_grid + i):
        return False
    bits = stack.view(f"u{m.dtype.itemsize}")
    return np.array_equal(np.take(bits, mirror, axis=0), bits.swapaxes(1, 2))


def jittered_grid_positions(count, spacing=1.0, jitter=0.25, seed=0):
    """``count`` atoms on a cubic lattice with seeded uniform jitter (a
    molecular-cluster-like geometry); deterministic for a fixed seed."""
    side = 1
    while side ** 3 < count:
        side += 1
    ii, jj, kk = np.meshgrid(range(side), range(side), range(side),
                             indexing="ij")
    lattice = np.stack([ii, jj, kk], axis=-1).reshape(-1, 3)[:count] * spacing
    rng = np.random.default_rng(seed)
    return lattice + rng.uniform(-jitter, jitter, size=(count, 3))


def dense_initial_guess(fd):
    """The TC2 initial guess over the whole dense array:
    X0 = (eps_max I - F) / (eps_max - eps_min), with the Gershgorin bounds
    from numpy's row sums of |F|, and I/2 when the bounds meet.  The
    library builds X0 from F's blocks and must match ``from_dense`` of this
    array bit for bit, its ``symmetric`` flag included."""
    n = fd.shape[0]
    centers = np.diag(fd)
    radii = np.abs(fd).sum(axis=1) - np.abs(centers)
    lo = float((centers - radii).min())
    hi = float((centers + radii).max())
    if hi == lo:
        return 0.5 * np.eye(n)
    return (hi * np.eye(n) - fd) / (hi - lo)


def dense_tc2(fd, n_occ, sweeps=50):
    """Plain-array trace-correcting purification: Gershgorin linear map
    (``dense_initial_guess``), trace-threshold branch, one squaring per
    sweep, early exit once the idempotency gap reaches the machine floor.
    Used as a fast fixture for density matrices at sizes where the tree
    driver would be wasteful."""
    n = fd.shape[0]
    x = dense_initial_guess(fd)
    floor = 16.0 * np.finfo(x.dtype).eps * n
    for _ in range(sweeps):
        x2 = x @ x
        if np.linalg.norm(x2 - x, "fro") <= floor:
            break
        x = x2 if np.trace(x) >= n_occ else 2.0 * x - x2
    return x


def every_sweep_tc2(f, n_occ, mode, max_iter=50):
    """``purify``'s sweep loop without its shortcuts: ``tc2_step`` (looked
    up in ``spamm.purification`` at call time, so a patched step is used)
    runs on every one of the ``max_iter`` sweeps, also past a fixed point
    and on the held iterate, and every leaf count and trace is measured.
    The stopping tests are the same: the iterate is kept from the first
    sweep whose displacement |X_{k+1} - X_k|_F is at most
    16 * eps * n (``fixed_at``), and the latch holds the smallest-gap
    iterate once the gap is non-finite or above 4x its running minimum.
    Returns the final iterate, the per-sweep counts and traces,
    ``held_at`` and ``fixed_at``."""
    x = purification.tc2_initial_guess(f)
    floor = 16.0 * np.finfo(x.dtype).eps * x.logical_dim
    traces, counts = [trace(x)], []
    best_x, best_gap, held_at, fixed_at = x, math.inf, None, None
    for sweep in range(1, max_iter + 1):
        nxt, stats = purification.tc2_step(x, n_occ, mode)
        counts.append(stats.leaf_matmuls)
        if held_at is None and fixed_at is None:
            gap = distance(nxt, x)
            if gap <= floor:
                fixed_at = sweep
            elif gap < best_gap:
                best_x, best_gap, x = x, gap, nxt
            elif not math.isfinite(gap) or gap > 4.0 * best_gap:
                x, held_at = best_x, sweep
            else:
                x = nxt
        traces.append(trace(x))
    return {"density": x, "step_leaf_matmuls": counts, "trace_history": traces,
            "held_at": held_at, "fixed_at": fixed_at}


def falling_gap_mcweeny(p, f_dense):
    """The projector energy as first defined: dense McWeeny steps
    P <- 3P**2 - 2P**3 from P = ``p`` for as long as |P**2 - P|_F keeps
    falling, then Tr(P F) of the P with the smallest gap.  Returns the
    energy and every gap it measured, the first being that of ``p``."""
    best, best_gap, gaps = p, math.inf, []
    while best_gap > 0:
        p2 = p @ p
        gaps.append(float(np.linalg.norm(p2 - p)))
        if not gaps[-1] < best_gap:
            break
        best, best_gap = p, gaps[-1]
        p = 3.0 * p2 - 2.0 * (p2 @ p)
    return float(np.einsum("ij,ji->", best, f_dense)), gaps


def mcweeny_gap_bound(g):
    """The largest |P'**2 - P'|_F one exact McWeeny step can leave from a
    symmetric P with gap g <= 1/4, derived through the eigenvalue distance:
    d = 2g / (1 + sqrt(1 - 4g)) is how far an eigenvalue with gap g sits
    from {0, 1}, the step leaves it d' = d**2 (3 - 2d) away, with gap
    d'(1 - d')."""
    d = 2.0 * g / (1.0 + math.sqrt(1.0 - 4.0 * g))
    d_next = d * d * (3.0 - 2.0 * d)
    return d_next * (1.0 - d_next)


def padded_dense(m):
    """``m.to_dense()`` zero-padded to ``m.padded_dim``: the square array the
    flat-reference oracles recurse over."""
    out = np.zeros((m.padded_dim, m.padded_dim), dtype=m.dtype)
    out[:m.logical_dim, :m.logical_dim] = m.to_dense()
    return out


def eig_projector(fd, n_occ):
    """Spectral projector onto the n_occ lowest eigenvectors."""
    _, vecs = np.linalg.eigh(fd)
    occ = vecs[:, :n_occ]
    return occ @ occ.T


@pytest.fixture(scope="session")
def gapped256():
    """The workhorse model: gapped chain at n=256 with its dense form,
    eigenprojector, and exact-algebra purification shared across tests."""
    n = 256
    f = gen_model_hamiltonian(ModelHamiltonian(n=n, kind="gapped"))
    fd = f.to_dense()
    exact = purify(f, n // 2, SpammMode(0.0))
    return {
        "n": n,
        "n_occ": n // 2,
        "tree": f,
        "dense": fd,
        "projector": eig_projector(fd, n // 2),
        "exact": exact,
    }


@pytest.fixture(scope="session")
def gapless256():
    n = 256
    f = gen_model_hamiltonian(ModelHamiltonian(n=n, kind="gapless"))
    exact = purify(f, n // 2, SpammMode(0.0))
    return {"n": n, "n_occ": n // 2, "tree": f, "exact": exact}
