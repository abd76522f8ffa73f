"""Trace-correcting density-matrix purification (TC2) over quadtree algebra.

Starting from a linear map of the Hamiltonian whose spectrum lies in [0, 1],
each sweep applies X <- X**2 when Tr(X) >= n_occ and X <- 2X - X**2
otherwise; the iterates converge to the spectral projector onto the n_occ
lowest states.  One matrix multiply per sweep is the entire cost of the
sweeps, which is what makes the multiply's truncation policy measurable end
to end.

Two truncation policies are compared on equal footing:

* SpammMode: the multiply itself prunes in product space at threshold tau.
* DroppingMode: the multiply is exact, then blocks of the *resultant* with
  Frobenius norm below tau are dropped (classic element dropping).

The reported energy is Tr(P F) in exact dense algebra, where P is the
projector that the run's final iterate X purifies to: McWeeny steps
P <- 3P**2 - 2P**3 from P = X, until the idempotency gap |P**2 - P| stops
falling or falls less than exact arithmetic guarantees (a step from a gap
g < 1/4 leaves at most 4 g**2), that is, until float64's rounding floor.  A
truncated run ends at a noise floor where the eigenvalues of X sit off 0
and 1 by about tau; Tr(X F) would read that noise as a first-order energy
error, while Tr(P F) measures only the occupied subspace the run computed.
The McWeeny steps are not counted as sweep work, and ``density`` stays the
iterate X itself.

Memory: no n x n array exists before the energy.  The initial guess reads F
in dense strips of whole block rows, at most ``quadtree._SCRATCH_ELEMENTS``
elements each, for its Gershgorin sums, then reads F's strips again and
turns each, in place, into a strip of X0 for the tree builder; the sweeps
are tree algebra.  The McWeeny steps run in four n x n buffers,
updated in place, one of them ``to_dense`` of X, and F is made dense
only after the other three are released, for the final trace, so at most
four n x n arrays are alive at once.  Every output has the bits of the
dense forms these replace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multiply import SpammConfig, spamm
from .quadtree import (
    _check_tau,
    _from_row_strips,
    _row_strips,
    add,
    distance,
    filter_drop,
    scale,
    trace,
)


@dataclass(frozen=True)
class SpammMode:
    """Truncate inside the multiply: product-space pruning at tau."""

    tau: float


@dataclass(frozen=True)
class DroppingMode:
    """Multiply exactly, then drop resultant blocks with norm < tau."""

    tau: float


def _check_mode(mode):
    """Reject a mode that is not a SpammMode or DroppingMode (TypeError),
    then one whose tau is negative or not finite (ValueError)."""
    if not isinstance(mode, (SpammMode, DroppingMode)):
        raise TypeError(f"mode must be SpammMode or DroppingMode, got {mode!r}")
    _check_tau(mode.tau)


class ThresholdMatchError(RuntimeError):
    """No truncation threshold can reach the requested energy error."""


@dataclass
class PurificationResult:
    """Outcome of ``purify``.  ``held_at`` is the sweep (1-based, as in the
    report) at which the convergence latch engaged and the run started
    holding its smallest-gap iterate, or None when it never did;
    ``idempotency_gap`` is |X**2 - X|_F of the returned iterate X in exact
    dense algebra."""

    density: "object"            # QuadTreeMatrix
    iterations: int
    total_leaf_matmuls: int
    avg_leaf_matmuls: float
    energy: float
    delta_e_rel: float
    reference_energy: float
    trace_history: list
    step_leaf_matmuls: list
    held_at: "int | None"
    idempotency_gap: float


@dataclass
class MatchResult:
    """Outcome of a threshold search; ``converged`` means delta_e_rel landed
    inside the requested band around the target."""

    tau: float
    delta_e_rel: float
    converged: bool
    hit_boundary: bool
    result: PurificationResult


def tc2_initial_guess(f):
    """Map the spectrum of ``f`` linearly into [0, 1], highest state first:
    X0 = (eps_max I - F) / (eps_max - eps_min) with Gershgorin bounds.
    A matrix whose Gershgorin interval collapses to a point maps to I/2.
    An F holding NaN or inf is rejected, and so is one whose bounds
    overflow: their width is not finite.

    No n x n array is made.  The Gershgorin centres and radii come from
    dense strips of whole block rows of F (``_row_strips``), each row's
    absolute values summed as numpy sums a row of the whole array; a second
    pass turns each strip of F, in its own buffer, into that strip of X0,
    which ``_from_row_strips`` builds the tree from.  So X0's bits, and its
    ``symmetric`` flag, are those of ``from_dense`` on the dense X0.
    """
    n = f.logical_dim
    centers, abs_sums = np.empty(n), np.empty(n)
    with np.errstate(over="ignore"):
        for lo, rows in _row_strips(f):
            rows_abs = np.abs(rows)
            if not np.isfinite(rows_abs).all():
                raise ValueError("F must be finite: it holds NaN or inf")
            centers[lo:lo + rows.shape[0]] = rows.diagonal(lo)
            abs_sums[lo:lo + rows.shape[0]] = rows_abs.sum(axis=1)
        rows = rows_abs = None  # the strip buffer goes before the next pass
        radii = abs_sums - np.abs(centers)
        eps_min = float((centers - radii).min())
        eps_max = float((centers + radii).max())
        width = eps_max - eps_min
    if not math.isfinite(width):
        raise ValueError(f"the Gershgorin bounds [{eps_min}, {eps_max}] of F "
                         "overflow: their width is not finite")

    def x0_strips():
        for lo, rows in _row_strips(f):
            r = np.arange(rows.shape[0])
            if width == 0:
                diagonal = 0.5
                rows.fill(0.0)
            else:
                diagonal = (eps_max - rows[r, lo + r]) / width
                # off the diagonal, eps_max I holds eps_max * 0.0, -0.0 if < 0
                np.subtract(eps_max * 0.0, rows, out=rows)
                rows /= width
            rows[r, lo + r] = diagonal
            yield lo, rows

    return _from_row_strips(x0_strips(), n, f.leaf_size)


# Fixed-point floor of a sweep's displacement, in units of (machine epsilon
# * matrix dim).  Sits orders of magnitude above the noise floor of one
# multiply and orders of magnitude below any unconverged idempotency gap.
_FIXED_POINT_FACTOR = 16.0


def tc2_step(x, n_occ, mode):
    """One purification sweep: X**2 when Tr(X) >= n_occ, else 2X - X**2,
    with X**2 computed once under the truncation of ``mode``.  Returns
    (next_x, multiply_stats); deciding when to stop sweeping is left to
    ``purify``."""
    _check_mode(mode)
    tr = trace(x)
    if isinstance(mode, DroppingMode):
        x2, stats = spamm(x, x, SpammConfig(tau=0.0))
        x2 = filter_drop(x2, mode.tau)
    else:
        x2, stats = spamm(x, x, SpammConfig(tau=mode.tau))
    if tr >= n_occ:
        return x2, stats
    return add(scale(x, 2.0), scale(x2, -1.0)), stats


def _projector_energy(x, f):
    """Tr(P F) in exact dense algebra for the projector P that ``x`` purifies
    to: McWeeny steps P <- 3P**2 - 2P**3 from P = X, stopping at the first
    P whose gap |P**2 - P|_F does not fall below the gap g of the P before
    it, or exceeds 4 g**2.  Exact arithmetic cannot exceed 4 g**2, so such
    a step ended on float64's rounding floor and another would only stir
    the noise; the P with the smaller gap of the last two is used.  Stopping
    on the gap rather than at a fixed tolerance keeps the result finite when
    X is too far from idempotent for McWeeny to converge.

    The bound: an eigenvalue with gap g_i = |l**2 - l| leaves the step with
    gap g_i**2 (3 + 4 g_i) if l lies in [0, 1], and g_i**2 |3 - 4 g_i| if
    not.  Every g_i is at most g, so the new gap is at most
    h(g) = g**2 (3 + 4g), which is below 4 g**2 while g < 1/4; for
    g >= 1/4 the test cannot fire, since then 4 g**2 >= g.  One eigenvalue
    carrying the whole gap attains h(g), where rounding alone would trip a
    test against h(g) one step early; 4 g**2 keeps a margin of
    (1 - 4g) g**2 above it.

    Memory: the steps run in four n x n buffers made up front, the current
    P (``x.to_dense()``, made first), the one before it, P**2 and a scratch;
    each product is written with ``out=`` and each sum in place, so a step
    allocates no array and the P and previous-P roles swap from step to
    step.  The tree ``f`` is made dense only after the last step, once
    every buffer but the best P is released, for the trace.  Every
    operation is the one a fresh-array form would run, so the bits are
    the same.

    Returns (energy, |X**2 - X|), the second being the gap of ``x`` itself
    that the first step measures."""
    n = x.logical_dim
    p = x.to_dense()  # first, so its strip reader's index words are gone
    q, p2, scratch = (np.empty((n, n)) for _ in range(3))
    best, best_gap = p, math.inf
    x_gap = None
    while best_gap > 0:
        np.matmul(p, p, out=p2)
        gap = float(np.linalg.norm(np.subtract(p2, p, out=scratch)))
        if x_gap is None:
            x_gap = gap
        if not gap < best_gap:
            break
        at_floor = gap > 4.0 * best_gap * best_gap
        best, best_gap = p, gap
        if at_floor:
            break
        # The next P goes to q, which holds no P still needed; p stays as
        # the best so far.
        np.matmul(p2, p, out=scratch)
        np.multiply(p2, 3.0, out=q)
        np.multiply(scratch, 2.0, out=scratch)
        np.subtract(q, scratch, out=q)
        p, q = q, p
    p = q = p2 = scratch = None  # only best keeps its buffer
    return float(np.einsum("ij,ji->", best, f.to_dense())), x_gap


def _check_max_iter(max_iter):
    """Reject a sweep count below one."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def purify(f, n_occ, mode, max_iter=50, reference_energy=None):
    """Run a fixed number of TC2 sweeps under the given truncation mode.

    Each sweep measures one gap, the displacement |X_{k+1} - X_k|_F, and it
    alone decides when the run stops: at or below the fixed-point floor the
    iterate X_k is frozen there, and the convergence latch holds the
    smallest-gap iterate once the gap turns around.  A frozen run stops
    multiplying, but its per-sweep records still cover all ``max_iter``
    sweeps: each remaining sweep gets the frozen iterate's trace and the
    leaf-multiply count its square was measured at, which is what
    multiplying it again would give.

    ``density`` is the final iterate X (the held one once the convergence
    latch engages, recorded in ``held_at``); ``energy`` is Tr(P F) for the
    projector P that X purifies to (see the module docstring), and
    ``idempotency_gap`` is |X**2 - X|_F, so a run held far from idempotency
    shows as one.  ``delta_e_rel`` is |energy - reference| / |reference|
    against a tau = 0 run of this same driver (supply ``reference_energy``
    to reuse one across a sweep); it is 0 for a tau = 0 run with a finite
    energy and NaN for one without.  Rejects out-of-range ``n_occ``, and an
    ``f`` whose ``symmetric`` flag is unset, even when it is symmetric in
    value (-0.0 facing +0.0, or a product ``spamm(a, b)``), and a ``mode``
    that is not a SpammMode or DroppingMode (TypeError).
    """
    _check_max_iter(max_iter)
    _check_mode(mode)
    if not f.symmetric:
        raise ValueError("purification requires f flagged symmetric: equal "
                         "to its transpose bit for bit, -0.0 unequal to +0.0")
    if not 0 <= n_occ <= f.logical_dim:
        raise ValueError(f"n_occ must be in [0, {f.logical_dim}], got {n_occ}")

    x = tc2_initial_guess(f)
    trace_history = [trace(x)]
    step_counts = []
    # Fixed point.  Once the sweep displacement is under the floor, both
    # branches equal X up to roundoff, but re-rounding the product every
    # sweep slowly amplifies that roundoff (each branch map has slope 2 at
    # the eigenvalue it does not fix, so spectral noise doubles per sweep).
    # X itself is then the correctly rounded sweep result, and the run
    # freezes it at this sweep.
    floor = _FIXED_POINT_FACTOR * np.finfo(x.dtype).eps * x.logical_dim
    # Convergence latch.  The sweep displacement equals the idempotency gap
    # |X^2 - X| on either branch, so it tracks convergence.  A truncated
    # run bottoms out at a noise floor whose level depends on tau and on
    # the problem (3e-2 on the gapless chain at n = 256 and tau = 1e-4);
    # past it further sweeps can only amplify the noise, and a run left
    # going overflows to inf and then NaN.  One exact sweep can at most
    # double the gap, so once it has turned around -- grown to 4x its
    # running minimum -- or stopped being finite, the run holds the iterate
    # with the smallest gap, whatever its level.  Before the first sweep
    # that iterate is the initial guess, entering sweep 1.
    # A held iterate, like one at the fixed point, is frozen: the kernel is
    # deterministic, so every later sweep would square it again with the
    # leaf count measured at the sweep it entered (``frozen``) and leave its
    # trace as recorded then.  The run stops and fills the remaining sweeps
    # with those two values.
    best_x, best_gap, best_sweep = x, math.inf, 1
    held_at = frozen = None
    for sweep in range(1, max_iter + 1):
        nxt, stats = tc2_step(x, n_occ, mode)
        step_counts.append(stats.leaf_matmuls)
        gap = distance(nxt, x)
        if gap <= floor:
            frozen = sweep
            break
        if gap < best_gap:
            best_x, best_gap, best_sweep = x, gap, sweep
        elif not math.isfinite(gap) or gap > 4.0 * best_gap:
            x, held_at, frozen = best_x, sweep, best_sweep
            break
        x = nxt
        trace_history.append(trace(x))
    if frozen is not None:
        step_counts += [step_counts[frozen - 1]] * (max_iter - len(step_counts))
        trace_history += ([trace_history[frozen - 1]]
                          * (max_iter + 1 - len(trace_history)))

    energy, idempotency_gap = _projector_energy(x, f)
    if mode.tau == 0:
        reference = energy
        delta = 0.0 if math.isfinite(energy) else math.nan
    else:
        if reference_energy is None:
            reference = purify(f, n_occ, SpammMode(0.0), max_iter=max_iter).energy
        else:
            reference = float(reference_energy)
        diff = abs(energy - reference)
        if reference == 0:
            delta = 0.0 if diff == 0 else math.inf
        else:
            delta = diff / abs(reference)

    total = int(sum(step_counts))
    return PurificationResult(
        density=x,
        iterations=max_iter,
        total_leaf_matmuls=total,
        avg_leaf_matmuls=total / max_iter,
        energy=energy,
        delta_e_rel=delta,
        reference_energy=reference,
        trace_history=trace_history,
        step_leaf_matmuls=step_counts,
        held_at=held_at,
        idempotency_gap=idempotency_gap,
    )


# The tau range of match_error_threshold and its band around the target.
_TAU_LO = 1e-14
_TAU_HI = 1e-1
_BAND_FACTOR = 2.0


def _check_target(target_delta_e):
    """Reject a ``match_error_threshold`` target that is not finite and
    > 0 (ValueError), or whose band lies below float64 resolution
    (ThresholdMatchError)."""
    if not math.isfinite(target_delta_e) or target_delta_e <= 0:
        raise ValueError(f"target_delta_e must be finite and > 0, got {target_delta_e}")
    eps = np.finfo(np.float64).eps
    if target_delta_e * _BAND_FACTOR < eps:
        raise ThresholdMatchError(
            f"target band [{target_delta_e / _BAND_FACTOR:.3e}, "
            f"{target_delta_e * _BAND_FACTOR:.3e}] lies below float64 "
            f"resolution {eps:.3e}")


def match_error_threshold(f, n_occ, target_delta_e, mode, max_iter=50,
                          max_steps=40, reference_energy=None):
    """Find tau such that delta_e_rel lands within a band around the target.

    Bisection on log tau over [_TAU_LO, _TAU_HI] = [1e-14, 1e-1], accepting
    any tau whose delta_e_rel falls in [target/2, target*2], for the
    truncation family of ``mode`` (a mode ``purify`` accepts, whose own
    tau is ignored); at most ``max_steps`` bisection steps.  A target that
    is not finite and > 0 raises ValueError, and a mode ``purify`` rejects
    raises as there, before any purification runs.  Boundary outcomes:

    * error at _TAU_HI still below the target band: returns _TAU_HI with
      ``hit_boundary`` set (the target is too coarse to reach);
    * target band wholly below float64 resolution
      (``target_delta_e * 2 < eps``): no run can resolve it;
      raises ThresholdMatchError before any purification runs;
    * error at _TAU_LO above the band: no threshold can be that accurate;
      raises ThresholdMatchError reporting the floor;
    * a non-finite delta_e_rel at any tau: raises ThresholdMatchError
      naming that tau, since such a run cannot be ranked against the band.

    ``reference_energy`` skips the tau=0 reference run, which the first
    purification makes otherwise, when the caller already has one (e.g.
    shared across a sweep).
    """
    _check_target(target_delta_e)
    _check_mode(mode)
    mode_type = type(mode)
    reference = reference_energy
    lo_band = target_delta_e / _BAND_FACTOR
    hi_band = target_delta_e * _BAND_FACTOR

    def run(tau):
        res = purify(f, n_occ, mode_type(tau), max_iter=max_iter,
                     reference_energy=reference)
        if not math.isfinite(res.delta_e_rel):
            raise ThresholdMatchError(
                f"non-finite delta_e_rel {res.delta_e_rel} at tau={tau:.3e} "
                f"(energy {res.energy})")
        return res

    # Without a supplied reference the first run makes the tau=0 one, and
    # every later run reuses its energy.
    res_hi = run(_TAU_HI)
    reference = res_hi.reference_energy
    if lo_band <= res_hi.delta_e_rel <= hi_band:
        return MatchResult(_TAU_HI, res_hi.delta_e_rel, True, False, res_hi)
    if res_hi.delta_e_rel < lo_band:
        return MatchResult(_TAU_HI, res_hi.delta_e_rel, False, True, res_hi)

    res_lo = run(_TAU_LO)
    if lo_band <= res_lo.delta_e_rel <= hi_band:
        return MatchResult(_TAU_LO, res_lo.delta_e_rel, True, False, res_lo)
    if res_lo.delta_e_rel > hi_band:
        raise ThresholdMatchError(
            f"error floor {res_lo.delta_e_rel:.3e} at tau={_TAU_LO:.3e} exceeds "
            f"target band [{lo_band:.3e}, {hi_band:.3e}]")

    def log_distance(delta):
        if delta == 0:
            return math.inf
        return abs(math.log(delta) - math.log(target_delta_e))

    lo, hi = _TAU_LO, _TAU_HI
    best = (log_distance(res_lo.delta_e_rel), _TAU_LO, res_lo)
    for _ in range(max_steps):
        mid = math.sqrt(lo * hi)
        mid_res = run(mid)
        if lo_band <= mid_res.delta_e_rel <= hi_band:
            return MatchResult(mid, mid_res.delta_e_rel, True, False, mid_res)
        cand = (log_distance(mid_res.delta_e_rel), mid, mid_res)
        if cand[0] < best[0]:
            best = cand
        if mid_res.delta_e_rel < lo_band:
            lo = mid
        else:
            hi = mid
    # The band was never hit (delta jumps over it as tau crosses a block
    # threshold, or the target sits beyond a stability cliff); report the
    # closest evaluation instead of the last midpoint.
    _, best_tau, best_res = best
    return MatchResult(best_tau, best_res.delta_e_rel, False, False, best_res)


def write_purify_report(result, path):
    """Per-sweep report CSV: iteration, trace, leaf_matmuls, cumulative
    matmuls; a final summary row carries energy (Tr(P F) of the purified
    projector, as in ``purify``), delta_e_rel, avg_leaf_matmuls, held_at
    (the sweep at which the latch engaged, or ``none``) and
    idempotency_gap."""
    with open(path, "w") as fh:
        fh.write("iteration,trace,leaf_matmuls,cumulative_matmuls\n")
        cum = 0
        for i, count in enumerate(result.step_leaf_matmuls, start=1):
            cum += count
            fh.write(f"{i},{result.trace_history[i]:.17g},{count},{cum}\n")
        fh.write(f"summary,energy={result.energy:.17g},"
                 f"delta_e_rel={result.delta_e_rel:.17g},"
                 f"avg_leaf_matmuls={result.avg_leaf_matmuls:.17g},"
                 f"held_at={_held_token(result)},"
                 f"idempotency_gap={result.idempotency_gap:.17g}\n")


def _held_token(result):
    """``held_at`` as printed in reports: the sweep number, or ``none``."""
    return "none" if result.held_at is None else str(result.held_at)
