"""TC2 purification driver: initial guess, sweeps, matched-error search."""

import tracemalloc
import warnings

import numpy as np
import pytest

from spamm import purification, quadtree
from spamm.generators import ModelHamiltonian, gen_model_hamiltonian
from spamm.multiply import spamm
from spamm.purification import (
    DroppingMode,
    SpammMode,
    ThresholdMatchError,
    match_error_threshold,
    purify,
    tc2_initial_guess,
    tc2_step,
    write_purify_report,
)
from spamm.quadtree import _grids, add, filter_drop, from_dense, scale, trace

from conftest import (
    dense_initial_guess,
    eig_projector,
    every_sweep_tc2,
    falling_gap_mcweeny,
    is_bitwise_symmetric,
    mcweeny_gap_bound,
)


def _gapped(n, gap=1.0, hopping=1.0):
    return gen_model_hamiltonian(ModelHamiltonian(n, "gapped", gap=gap,
                                                  hopping=hopping))


# ------------------------------------------------------------- initial guess

def test_initial_guess_two_level():
    x0 = tc2_initial_guess(from_dense(np.diag([-1.0, 1.0])))
    assert np.array_equal(x0.to_dense(), np.diag([1.0, 0.0]))


def test_initial_guess_degenerate_interval():
    x0 = tc2_initial_guess(from_dense(np.zeros((4, 4))))
    assert np.array_equal(x0.to_dense(), 0.5 * np.eye(4))


def test_initial_guess_spectrum_in_unit_interval():
    rng = np.random.default_rng(0)
    d = rng.standard_normal((32, 32))
    d = d + d.T
    ev = np.linalg.eigvalsh(tc2_initial_guess(from_dense(d)).to_dense())
    eps = np.finfo(np.float64).eps
    assert ev.min() >= -8 * eps
    assert ev.max() <= 1 + 8 * eps


@pytest.mark.parametrize("strip", ["default", "one block row"])
@pytest.mark.parametrize("leaf", [1, 2, 4, 8, 16, 32, 64])
def test_initial_guess_matches_dense_oracle(monkeypatch, leaf, strip):
    """X0 built from F's blocks is ``from_dense`` of the dense oracle's X0
    bit for bit, with the same ``symmetric`` flag, at n that pad and n that
    do not: on a symmetric F with empty blocks and -0.0 entries; on one
    with a -0.0 facing a +0.0 in a stored block, which is not flagged while
    its X0 is; on one whose Gershgorin bounds are all negative, so that X0
    holds -0.0 where F holds +0.0; on an asymmetric F; and on a multiple of
    I, whose bounds meet.  With the default strips and with strips of one
    block row."""
    if strip != "default":
        monkeypatch.setattr(quadtree, "_SCRATCH_ELEMENTS", 1)
    rng = np.random.default_rng(leaf)
    for n in (1, 5, 37, 64, 100, 129):
        d = rng.standard_normal((n, n))
        d[rng.random((n, n)) < 0.6] = 0.0
        d[rng.random((n, n)) < 0.1] = -0.0
        sym = np.where(np.triu(np.ones((n, n), dtype=bool)), d, d.T)
        facing = sym.copy()
        if n > 1:
            facing[0, 0], facing[0, 1], facing[1, 0] = 1.0, -0.0, 0.0
        shifted = sym - (np.abs(sym).sum(axis=1).max() + 1.0) * np.eye(n)
        for fd in (sym, facing, shifted, d, 3.0 * np.eye(n)):
            f = from_dense(fd, leaf_size=leaf)
            want = from_dense(dense_initial_guess(fd), leaf_size=leaf)
            got = tc2_initial_guess(f)
            assert got.structurally_equal(want)
            assert got.symmetric == want.symmetric
        if n > 1:
            assert from_dense(facing, leaf_size=leaf).symmetric == (leaf == 1)
            assert tc2_initial_guess(from_dense(facing, leaf_size=leaf)).symmetric


@pytest.mark.parametrize("entries", [[[1e308, 1e308], [1e308, 1.0]],
                                     [[1e308, 0.0], [0.0, -1e308]]])
def test_overflowing_gershgorin_bounds_are_rejected(entries):
    """A finite F whose Gershgorin bounds overflow, or lie further apart
    than float64 reaches, fails loudly in ``tc2_initial_guess`` and so in
    ``purify``, naming the bounds, with no RuntimeWarning on the way; it
    used to give X0 = NaN and a NaN energy."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = from_dense(np.array(entries))
        assert f.symmetric
        with pytest.raises(ValueError, match="Gershgorin bounds"):
            tc2_initial_guess(f)
        with pytest.raises(ValueError, match="Gershgorin bounds"):
            purify(f, 1, SpammMode(0.0))


def test_purify_holds_no_dense_array_before_the_energy(monkeypatch):
    """tracemalloc over a gapped n=512 purify call (leaf 4, SpammMode(1e-8)).
    The initial guess peaks below one n x n array (its strips are 2**16
    elements), and what the guess and the sweeps leave allocated when the
    energy starts is below one n x n array: no dense F or X0 is held.  The
    whole call peaks within the energy's four n x n buffers, plus what was
    allocated when it started and 64 KiB of small arrays: X is made dense
    before the other three buffers, so its strip, and the index words of
    its strip reader, are freed before they are allocated (the peak is
    9.00 MB; made after them, it is 9.71 MB, over this bound's 9.05 MB).
    A guess made from dense F peaks at 2.2 n x n arrays, and holding a
    dense F through the energy, as purify once did, holds 1.8."""
    n = 512
    f = _gapped(n)
    purify(_gapped(16), 8, SpammMode(1e-8), reference_energy=-1.0)  # imports
    seen = {}
    guess, energy = purification.tc2_initial_guess, purification._projector_energy

    def traced_guess(f):
        x = guess(f)
        seen["guess"] = tracemalloc.get_traced_memory()[1]
        return x

    def traced_energy(x, f):
        seen["held"] = tracemalloc.get_traced_memory()[0]
        return energy(x, f)

    monkeypatch.setattr(purification, "tc2_initial_guess", traced_guess)
    monkeypatch.setattr(purification, "_projector_energy", traced_energy)
    tracemalloc.start()
    try:
        purify(f, n // 2, SpammMode(1e-8), reference_energy=-1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense = n * n * 8
    assert seen["guess"] < dense
    assert seen["held"] < dense
    assert peak <= 4 * dense + seen["held"] + (64 << 10)


# ------------------------------------------------------------------ tc2_step

def test_step_fixed_point_both_branches():
    x = from_dense(np.diag([1.0, 0.0]))
    for n_occ in (1, 2):  # trace 1: >= branch at 1, < branch at 2
        nxt, _ = tc2_step(x, n_occ, SpammMode(0.0))
        assert np.array_equal(nxt.to_dense(), np.diag([1.0, 0.0]))


def test_step_squares_on_high_trace():
    x = from_dense(0.5 * np.eye(2))
    nxt, _ = tc2_step(x, 1, SpammMode(0.0))  # Tr = 1 >= 1
    assert np.array_equal(nxt.to_dense(), 0.25 * np.eye(2))


def test_step_dropping_filters_resultant_only():
    rng = np.random.default_rng(1)
    idx = np.arange(32)
    d = np.exp(-0.8 * np.abs(idx[:, None] - idx[None, :]))
    d = d * rng.uniform(0.5, 1.0, size=(32, 32))
    x = from_dense(d)
    tau = 1e-3
    nxt, _ = tc2_step(x, 1, DroppingMode(tau))  # Tr >> 1: squaring branch
    expect = filter_drop(spamm(x, x)[0], tau)
    assert np.array_equal(nxt.to_dense(), expect.to_dense())


def test_step_converges_gapped64():
    """Bare steps reach the fixed-point floor within 50 sweeps: a step that
    moves X by at most 16 eps n, from an X with |X**2 - X| <= 1e-10."""
    h = _gapped(64)
    x = tc2_initial_guess(h)
    floor = 16 * np.finfo(np.float64).eps * 64
    for _ in range(50):
        nxt, _ = tc2_step(x, 32, SpammMode(0.0))
        if np.linalg.norm(nxt.to_dense() - x.to_dense()) <= floor:
            break
        x = nxt
    else:
        pytest.fail("no step reached the fixed-point floor in 50 sweeps")
    x2 = spamm(x, x)[0]
    gap = np.linalg.norm(x2.to_dense() - x.to_dense())
    assert gap <= 1e-10


# -------------------------------------------------------------------- purify

def test_purify_two_level_analytic():
    f = from_dense(np.diag([-1.0, 1.0]))
    for mode in (SpammMode(0.0), SpammMode(1e-8), DroppingMode(1e-8)):
        res = purify(f, 1, mode)
        assert np.array_equal(res.density.to_dense(), np.diag([1.0, 0.0]))
        assert res.energy == -1.0
        assert res.delta_e_rel == 0.0


def test_purify_matches_eigensolver_projector(gapped256):
    p = gapped256["exact"].density.to_dense()
    assert np.linalg.norm(p - gapped256["projector"]) <= 1e-8


def test_purify_idempotency_and_trace(gapped256):
    p = gapped256["exact"].density
    n = gapped256["n"]
    p2 = spamm(p, p)[0]
    assert np.linalg.norm(p2.to_dense() - p.to_dense()) <= 1e-8 * n
    assert abs(trace(p) - gapped256["n_occ"]) <= 1e-6


def test_purify_commutes_with_generator(gapped256):
    p = gapped256["exact"].density.to_dense()
    f = gapped256["dense"]
    comm = np.linalg.norm(p @ f - f @ p)
    assert comm <= 1e-6 * np.linalg.norm(f)


def test_error_monotone_in_tau(gapped256):
    ref = gapped256["exact"].energy
    for mode_cls in (SpammMode, DroppingMode):
        tight = purify(gapped256["tree"], 128, mode_cls(1e-12),
                       reference_energy=ref)
        loose = purify(gapped256["tree"], 128, mode_cls(1e-4),
                       reference_energy=ref)
        assert tight.delta_e_rel <= loose.delta_e_rel


@pytest.mark.parametrize("tau", [6e-5, 1e-4, 3e-4])
def test_purify_holds_diverging_gapless_run(gapless256, tau):
    """Past its noise floor a pruned gapless run grows its idempotency gap
    until the trace overflows; the latch must hold a finite iterate."""
    n = gapless256["n"]
    res = purify(gapless256["tree"], gapless256["n_occ"], SpammMode(tau),
                 reference_energy=gapless256["exact"].energy)
    assert np.isfinite(res.energy)
    assert np.isfinite(res.delta_e_rel)
    assert 0.0 <= trace(res.density) <= n


def test_purify_flags_held_run(gapless256):
    """A run held far from idempotency says so: the sweep at which the latch
    engaged, and the gap of the held iterate."""
    res = purify(gapless256["tree"], gapless256["n_occ"], SpammMode(1e-4),
                 reference_energy=gapless256["exact"].energy)
    assert res.held_at is not None and 1 <= res.held_at < res.iterations
    held = res.trace_history[res.held_at]
    assert all(t == held for t in res.trace_history[res.held_at:])
    assert res.trace_history[res.held_at - 1] != held
    p = res.density.to_dense()
    assert res.idempotency_gap == float(np.linalg.norm(p @ p - p))
    assert 2e-2 <= res.idempotency_gap <= 5e-2


def test_purify_converged_gap_at_fixed_point_floor():
    res = purify(_gapped(64), 32, SpammMode(0.0))
    assert res.held_at is None
    assert res.idempotency_gap <= 16 * np.finfo(np.float64).eps * 64


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: the 4x turnaround latch holds this exact run at sweep "
    "14 (trace 31.79), so it reports the 32-state energy; with the latch "
    "off it reaches trace 31 and the 31-state energy"))
def test_exact_run_reports_its_occupation_energy():
    """An exact run of the gapped n=64 chain with 31 states occupied (a
    Fermi-level gap of 0.018) reports the sum of the 31 lowest eigenvalues.
    Its sweep gap legitimately rises 4x on the way to the projector."""
    f = _gapped(64)
    res = purify(f, 31, SpammMode(0.0))
    want = float(np.linalg.eigvalsh(f.to_dense())[:31].sum())
    assert abs(res.energy - want) <= 1e-12 * abs(want)


def test_energy_is_that_of_purified_projector(gapped256):
    """The reported energy belongs to the projector onto the eigenvectors of
    the final iterate with eigenvalue above 1/2, not to the iterate."""
    res = purify(gapped256["tree"], gapped256["n_occ"], SpammMode(1e-4),
                 reference_energy=gapped256["exact"].energy)
    vals, vecs = np.linalg.eigh(res.density.to_dense())
    occ = vecs[:, vals > 0.5]
    energy = float(np.trace(occ.T @ gapped256["dense"] @ occ))
    assert abs(res.energy - energy) <= 1e-12 * abs(energy)
    raw = float(np.trace(res.density.to_dense() @ gapped256["dense"]))
    assert abs(raw - energy) > 1e-12 * abs(energy)


# case: (fixture, mode)
_ENERGY_STOP_RUNS = {
    "gapped256-exact": ("gapped256", SpammMode(0.0)),
    "gapped256-spamm": ("gapped256", SpammMode(1e-8)),
    "gapped256-drop": ("gapped256", DroppingMode(1e-5)),
    "gapless256-held": ("gapless256", SpammMode(1e-4)),
}


@pytest.mark.parametrize("case", sorted(_ENERGY_STOP_RUNS))
def test_projector_energy_stops_at_rounding_floor(case, request, monkeypatch):
    """The McWeeny steps behind ``energy`` end at float64's rounding floor:
    the energy is the falling-gap loop's to 1e-13, ``idempotency_gap`` is
    that loop's first gap bit for bit, and no more gaps are measured (fewer
    on the gapped chain, where the falling-gap loop idles on the floor)."""
    name, mode = _ENERGY_STOP_RUNS[case]
    data = request.getfixturevalue(name)
    res = purify(data["tree"], data["n_occ"], mode,
                 reference_energy=data["exact"].energy)
    fd = data["tree"].to_dense()
    want, gaps = falling_gap_mcweeny(res.density.to_dense(), fd)
    norm, calls = np.linalg.norm, []

    def counted(*args, **kwargs):
        calls.append(None)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    got = purification._projector_energy(res.density, data["tree"])
    monkeypatch.undo()
    assert got == (res.energy, res.idempotency_gap)
    assert abs(res.energy - want) <= 1e-13 * abs(want)
    assert res.idempotency_gap == gaps[0]
    assert len(calls) <= len(gaps)
    if name == "gapped256":
        assert len(calls) < len(gaps)


@pytest.mark.parametrize("chain, sweeps", [("gapped", 3), ("gapless", 5)])
def test_projector_energy_lone_eigenvalue_near_bound(chain, sweeps):
    """A run cut after a few sweeps leaves eigenvalues near 1/2; as McWeeny
    moves them out, the one nearest 1/2 comes to carry the whole gap, and a
    step then leaves almost exactly the gap g**2 (3 + 4g) that exact
    arithmetic allows.  The loop must not take that for the rounding floor,
    and must reach the falling-gap loop's energy."""
    f = gen_model_hamiltonian(ModelHamiltonian(128, chain))
    res = purify(f, 64, SpammMode(0.0), max_iter=sweeps)
    want, _ = falling_gap_mcweeny(res.density.to_dense(), f.to_dense())
    assert abs(res.energy - want) <= 1e-13 * abs(want)


def test_mcweeny_gap_bound():
    """One exact McWeeny step from gap g <= 1/4 leaves a gap of at most
    h(g) = g**2 (3 + 4g), for eigenvalues in [-0.2, 1.2]; one eigenvalue
    deviating by d in [0, 1/2] attains it; and h(g) stays below the 4 g**2
    that the projector energy stops on, except at g = 1/4."""
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(5)

    def gaps_across_step(lam):
        p = np.diag(lam)
        p2 = p @ p
        q = 3.0 * p2 - 2.0 * (p2 @ p)
        return float(np.linalg.norm(p2 - p)), float(np.linalg.norm(q @ q - q))

    checked = 0
    while checked < 500:
        m = int(rng.integers(1, 9))
        if checked % 2:
            lam = rng.uniform(-0.2, 1.2, m)
        else:  # clustered near 0 and 1, as a converging iterate is
            dev = 10.0 ** rng.uniform(-6, np.log10(0.2), m)
            lam = rng.integers(0, 2, m) + dev * rng.choice([-1.0, 1.0], m)
        g, g_next = gaps_across_step(lam)
        if g > 0.25:
            continue
        assert g_next <= mcweeny_gap_bound(g) + 8 * eps
        checked += 1

    for d in np.linspace(0.0, 0.5, 51):
        for lone in (d, 1.0 - d):
            g, g_next = gaps_across_step(np.array([0.0, 1.0, lone, 1.0]))
            h = mcweeny_gap_bound(g)
            assert abs(g_next - h) <= 8 * eps
            assert abs(h - g * g * (3.0 + 4.0 * g)) <= 8 * eps
            if 0.0 < g < 0.24:
                assert g_next < 4.0 * g * g


def test_matmul_accounting():
    res = purify(_gapped(64), 32, SpammMode(1e-6), max_iter=12)
    assert res.iterations == 12
    assert len(res.step_leaf_matmuls) == 12
    assert len(res.trace_history) == 13
    assert res.total_leaf_matmuls == sum(res.step_leaf_matmuls)
    assert res.avg_leaf_matmuls == res.total_leaf_matmuls / 12


def test_purify_tau0_reference_is_self():
    res = purify(_gapped(64), 32, SpammMode(0.0))
    assert res.delta_e_rel == 0.0
    assert res.reference_energy == res.energy


def test_purify_tau0_delta_is_nan_for_nan_energy(monkeypatch):
    """At tau 0 the run is its own reference, and its delta_e_rel is 0 only
    when its energy is finite: a NaN-filled iterate gives a NaN energy and
    a NaN delta_e_rel.  ``purify`` rejects a NaN F up front, so the
    NaN-filled initial guess is patched in."""
    nan_guess = from_dense(np.full((16, 16), np.nan))
    assert nan_guess.symmetric  # its NaNs have their mirrors' bits
    monkeypatch.setattr(purification, "tc2_initial_guess", lambda f: nan_guess)
    res = purify(_gapped(16), 8, SpammMode(0.0))
    assert np.isnan(res.energy)
    assert not np.isfinite(res.delta_e_rel)


def test_purify_squares_match_full_traversal_gapped64(monkeypatch):
    """Every square a purify run takes from the upper block triangle has
    the bytes of the full traversal, at a tau that prunes."""
    n, mode = 64, SpammMode(1e-6)
    squares = []

    def checked_spamm(a, b, config):
        c, stats = spamm(a, b, config)
        twin = from_dense(a.to_dense(), leaf_size=a.leaf_size)
        assert a is b and a.symmetric and is_bitwise_symmetric(a)
        assert c.structurally_equal(spamm(a, twin, config)[0])
        squares.append(stats.pruned_calls)
        return c, stats

    monkeypatch.setattr(purification, "spamm", checked_spamm)
    res = purify(_gapped(n), n // 2, mode, reference_energy=-1.0)
    # The run neither freezes nor holds, so it squares all 50 iterates.
    assert res.held_at is None
    assert len(squares) == 50
    assert max(squares) > 0
    assert np.isfinite(res.energy)


def _non_finite_first(step):
    """``step`` whose first result is all NaN (with the real stats of that
    sweep's multiply), so the latch holds the initial guess at sweep 1."""
    calls = []

    def stepped(x, n_occ, mode):
        nxt, stats = step(x, n_occ, mode)
        calls.append(None)
        if len(calls) == 1:
            nxt = from_dense(np.full((x.logical_dim,) * 2, np.nan),
                             leaf_size=x.leaf_size)
        return nxt, stats
    return stepped


# case: (chain, n, mode, tc2_step calls of purify, held_at)
_FROZEN_RUNS = {
    "gapped64-exact": ("gapped", 64, SpammMode(0.0), 19, None),
    "gapless256-spamm": ("gapless", 256, SpammMode(1e-4), 33, 33),
    "gapless64-drop": ("gapless", 64, DroppingMode(1e-5), 29, None),
    "non-finite-first": ("gapped", 64, SpammMode(0.0), 1, 1),
}


@pytest.mark.parametrize("case", sorted(_FROZEN_RUNS))
def test_purify_matches_every_sweep_driver(case, monkeypatch):
    """Stopping once the iterate is frozen changes no output: density bytes,
    counts, traces and held_at equal a driver that squares on every sweep;
    and tc2_step runs once per distinct iterate (to the fixed point, or to
    the sweep at which the latch holds), with one gap measured per sweep."""
    chain, n, mode, want_calls, want_held = _FROZEN_RUNS[case]
    f = gen_model_hamiltonian(ModelHamiltonian(n, chain))
    real = purification.tc2_step
    wrap = _non_finite_first if case == "non-finite-first" else (lambda s: s)
    monkeypatch.setattr(purification, "tc2_step", wrap(real))
    want = every_sweep_tc2(f, n // 2, mode)
    step, calls = wrap(real), []
    real_distance, gaps = purification.distance, []

    def counted(x, n_occ, mode):
        calls.append(None)
        return step(x, n_occ, mode)

    def counted_distance(a, b):
        gaps.append(None)
        return real_distance(a, b)

    monkeypatch.setattr(purification, "tc2_step", counted)
    monkeypatch.setattr(purification, "distance", counted_distance)
    res = purify(f, n // 2, mode, reference_energy=-1.0)
    assert res.density.structurally_equal(want["density"])
    assert res.step_leaf_matmuls == want["step_leaf_matmuls"]
    assert res.trace_history == want["trace_history"]
    assert res.held_at == want["held_at"] == want_held
    assert len(calls) == want_calls == (want_held or want["fixed_at"])
    assert len(gaps) == len(calls)


# ------------------------------------------------------------ matched error

def test_match_returns_boundary_for_coarse_target():
    h = _gapped(64)
    res = match_error_threshold(h, 32, 1e3, SpammMode(0.0))
    assert res.hit_boundary
    assert not res.converged
    assert res.tau == 1e-1


def test_match_raises_below_error_floor():
    h = _gapped(64)
    with pytest.raises(ThresholdMatchError):
        match_error_threshold(h, 32, 1e-17, SpammMode(0.0))


def test_match_raises_on_non_finite_error():
    # Against a zero reference every nonzero energy error is infinite.
    h = _gapped(64)
    with pytest.raises(ThresholdMatchError, match="non-finite.*tau=1.000e-01"):
        match_error_threshold(h, 32, 1e-6, SpammMode(0.0),
                              reference_energy=0.0)


@pytest.mark.parametrize("target", [float("nan"), float("inf"), -1e-6])
def test_match_rejects_target_before_purifying(monkeypatch, target):
    """A target that is not finite and > 0 raises ValueError before any
    purification runs."""
    runs = []
    monkeypatch.setattr(purification, "purify", lambda *args, **kw: runs.append(args))
    with pytest.raises(ValueError, match="finite and > 0"):
        match_error_threshold(_gapped(8), 4, target, SpammMode(0.0))
    assert runs == []


def test_match_verifies_on_rerun_gapped128():
    h = _gapped(128)
    ref = purify(h, 64, SpammMode(0.0)).energy
    target = 1e-7
    res = match_error_threshold(h, 64, target, SpammMode(0.0),
                                reference_energy=ref)
    assert res.converged
    check = purify(h, 64, SpammMode(res.tau), reference_energy=ref)
    assert 0.5e-7 <= check.delta_e_rel <= 2e-7


# ------------------------------------------------------------------- reports

def test_purify_report_schema(tmp_path):
    res = purify(_gapped(64), 32, SpammMode(1e-7), max_iter=9)
    path = tmp_path / "report.csv"
    write_purify_report(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,trace,leaf_matmuls,cumulative_matmuls"
    assert len(lines) == 11  # header + 9 sweeps + summary
    cum = 0
    for i, line in enumerate(lines[1:-1], start=1):
        it, tr, count, cumulative = line.split(",")
        cum += int(count)
        assert int(it) == i
        assert float(tr) == res.trace_history[i]
        assert int(count) == res.step_leaf_matmuls[i - 1]
        assert int(cumulative) == cum
    assert cum == res.total_leaf_matmuls
    summary = lines[-1].split(",")
    assert summary[0] == "summary"
    fields = dict(tok.split("=") for tok in summary[1:])
    assert float(fields["energy"]) == res.energy
    assert float(fields["delta_e_rel"]) == res.delta_e_rel
    assert float(fields["avg_leaf_matmuls"]) == res.avg_leaf_matmuls
    held = "none" if res.held_at is None else str(res.held_at)
    assert fields["held_at"] == held
    assert float(fields["idempotency_gap"]) == res.idempotency_gap


# ---------------------------------------------------------------- validation

def test_purify_validation():
    rng = np.random.default_rng(2)
    asym = from_dense(rng.standard_normal((8, 8)))
    with pytest.raises(ValueError):
        purify(asym, 4, SpammMode(0.0))
    h = _gapped(8)
    with pytest.raises(ValueError):
        purify(h, -1, SpammMode(0.0))
    with pytest.raises(ValueError):
        purify(h, 9, SpammMode(0.0))
    with pytest.raises(ValueError):
        purify(h, 4, SpammMode(0.0), max_iter=0)
    with pytest.raises(ValueError):
        purify(h, 4, SpammMode(-1e-8))
    with pytest.raises(TypeError):
        tc2_step(tc2_initial_guess(h), 4, "spamm")
    with pytest.raises(ValueError):
        match_error_threshold(h, 4, 0.0, SpammMode(0.0))
    # a mode that is not a mode is a TypeError, before any work
    for mode in ("spamm", None):
        with pytest.raises(TypeError, match="mode must be SpammMode or DroppingMode"):
            purify(h, 4, mode)
    with pytest.raises(TypeError, match="mode must be SpammMode or DroppingMode"):
        match_error_threshold(h, 4, 1e-6, "spamm")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_f_is_rejected(value):
    """An F holding NaN or inf fails loudly in ``tc2_initial_guess`` and so
    in ``purify``, with no RuntimeWarning on the way."""
    f = from_dense(np.array([[value, 0.0], [0.0, 1.0]]))
    assert f.symmetric
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="F must be finite"):
            tc2_initial_guess(f)
        with pytest.raises(ValueError, match="F must be finite"):
            purify(f, 1, SpammMode(0.0))


def test_huge_finite_f_still_purifies():
    huge = from_dense(np.array([[1e200, 0.0], [0.0, 1.0]]))
    assert purify(huge, 1, SpammMode(0.0)).energy == 1.0


def test_purify_requires_symmetric_flag():
    """purify accepts f exactly when f.symmetric is set.  A -0.0 facing a
    +0.0 inside a stored block is symmetric to ``==`` but not bit for bit,
    and a product of two trees is never flagged, even when it equals its
    transpose bit for bit; sums and scalings of flagged trees keep the flag."""
    h = _gapped(8)
    d = h.to_dense()
    d[0, 2], d[2, 0] = -0.0, 0.0
    signed = from_dense(d)
    assert np.array_equal(d, d.T) and _grids(signed)[2][signed.depth][0, 0]
    product = spamm(h, from_dense(np.eye(8)))[0]
    assert is_bitwise_symmetric(product)
    for f in (signed, product):
        assert not f.symmetric
        with pytest.raises(ValueError, match="bit for bit"):
            purify(f, 4, SpammMode(0.0))
    for f in (add(h, scale(h, 0.5)), scale(h, -1.0)):
        assert f.symmetric
        assert np.isfinite(purify(f, 4, SpammMode(0.0)).energy)
