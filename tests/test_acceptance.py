"""Top-level acceptance checks, one per headline property of the library.

Each test prints a single PASS line with its measured numbers (run with
``pytest tests/test_acceptance.py -v -s`` to see them); failures carry the
full measurement table in the assertion output.
"""

import itertools
import math
import time

import numpy as np
import pytest

from spamm.cli import main as cli_main
from spamm.generators import (
    ModelHamiltonian,
    gen_algebraic,
    gen_exponential,
    gen_model_hamiltonian,
)
from spamm.multiply import SpammConfig, spamm
from spamm.ordering import _cells_to_hilbert, apply_ordering
from spamm.purification import DroppingMode, SpammMode, match_error_threshold
from spamm.quadtree import from_dense, trace

from conftest import dense_tc2, oracle_matmul
from test_ordering import _all_cells


def test_exact_product_matches_oracle():
    """200 random pairs across sizes and leaf sizes against a pure-Python
    triple-loop multiply: relative Frobenius error at most 1e-13."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    sizes = [(i % 40) + 1 for i in range(188)] + [64] * 8 + [128] * 4
    leaves = itertools.cycle((1, 2, 4))
    worst = 0.0
    for pair_no, (n, leaf) in enumerate(zip(sizes, leaves)):
        ad = rng.standard_normal((n, n))
        bd = rng.standard_normal((n, n))
        got = spamm(from_dense(ad, leaf_size=leaf),
                    from_dense(bd, leaf_size=leaf))[0].to_dense()
        ref = oracle_matmul(ad.tolist(), bd.tolist())
        scale = np.linalg.norm(ref)
        err = np.linalg.norm(got - ref) / (scale if scale > 0 else 1.0)
        assert err <= 1e-13, f"pair {pair_no} (n={n}, leaf={leaf}): {err:.3e}"
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS oracle equivalence: 200 pairs, max rel err {worst:.3e}, "
          f"{elapsed:.1f}s")


def test_truncation_error_bounded():
    """Exponential- and algebraic-decay pairs at n=512: the measured error
    never exceeds the omitted budget (plus roundoff), and tightening tau
    from 1e-2 to 1e-10 strictly reduces it."""
    t0 = time.perf_counter()
    pairs = {
        "exponential": (gen_exponential(512, 1.0), gen_exponential(512, 2.0)),
        "algebraic": (gen_algebraic(512, 3.0), gen_algebraic(512, 3.0)),
    }
    taus = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
    summary = []
    for label, (a, b) in pairs.items():
        exact = spamm(a, b)[0].to_dense()
        roundoff = 1e-12 * a.norm() * b.norm()
        errs = {}
        for tau in taus:
            approx, stats = spamm(a, b, SpammConfig(tau=tau))
            errs[tau] = float(np.linalg.norm(approx.to_dense() - exact))
            assert errs[tau] <= stats.omitted_budget + roundoff, (
                f"{label} tau={tau}: err {errs[tau]:.3e} > "
                f"budget {stats.omitted_budget:.3e} + {roundoff:.1e}")
        assert errs[1e-10] < errs[1e-2], f"{label}: {errs}"
        summary.append(f"{label} err {errs[1e-2]:.3e}..{errs[1e-10]:.3e}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"PASS error bound: {'; '.join(summary)}, {elapsed:.1f}s")


def test_product_space_tiling():
    """At n=512, tau=1e-8 on the exponential pair, pruned boxes plus visited
    leaf cells tile the index cube [0,512)^3 exactly."""
    a = gen_exponential(512, 1.0)
    b = gen_exponential(512, 2.0)
    _, stats = spamm(a, b, SpammConfig(tau=1e-8, collect_boxes=True))
    cube = 512 ** 3
    box_volume = sum(bx.edge ** 3 for bx in stats.boxes)
    visited = stats.leaf_matmuls * 4 ** 3
    assert stats.empty_skip_volume == 0
    assert box_volume == stats.pruned_volume
    assert visited + box_volume == cube, (
        f"visited {visited} + pruned {box_volume} != {cube}")
    for bx in stats.boxes:
        assert bx.edge == 512 >> bx.tier
        assert bx.i_lo % bx.edge == bx.j_lo % bx.edge == bx.k_lo % bx.edge == 0
    print(f"PASS product-space tiling: {stats.leaf_matmuls} leaf cells + "
          f"{len(stats.boxes)} boxes cover 512^3 exactly")


def test_near_linear_scaling_gapped_density():
    """Self-products of purified gapped-model density matrices: at tau=1e-8
    the work per size doubling approaches linear (last ratio <= 2.5), while
    tau=0 grows exactly 8x per doubling, i.e. (n/4)^3 leaf multiplies.

    The tau=0 count is asserted at n <= 1024.  The full-enumeration run at
    n=2048 completes (about 14 s and a 2.2 GiB peak on a 2-core x86-64 VM),
    but it would add that time and memory to the tier-1 suite, and its count
    is fixed by the same closed form the smaller sizes verify.
    """
    t0 = time.perf_counter()
    sizes = (256, 512, 1024, 2048)
    mm_pruned = {}
    mm_full = {}
    for n in sizes:
        f = gen_model_hamiltonian(ModelHamiltonian(n=n, kind="gapped"))
        p = from_dense(dense_tc2(f.to_dense(), n // 2))
        mm_pruned[n] = spamm(p, p, SpammConfig(tau=1e-8))[1].leaf_matmuls
        if n <= 1024:
            mm_full[n] = spamm(p, p, SpammConfig(tau=0.0))[1].leaf_matmuls
            assert mm_full[n] == (n // 4) ** 3
        del p, f
    ratios = [mm_pruned[b] / mm_pruned[a] for a, b in zip(sizes, sizes[1:])]
    assert mm_full[512] / mm_full[256] == 8.0
    assert mm_full[1024] / mm_full[512] == 8.0
    assert ratios[-1] <= 2.5, (
        f"largest-doubling ratio {ratios[-1]:.3f} > 2.5; "
        f"counts {mm_pruned}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"PASS near-linear scaling: tau=1e-8 counts "
          f"{[mm_pruned[n] for n in sizes]}, doubling ratios "
          f"{[f'{r:.3f}' for r in ratios]} (tau=0 ratios exactly 8.0 up to "
          f"n=1024; the n=2048 full enumeration is left out for suite time "
          f"and memory and follows the verified (n/4)^3 form), {elapsed:.1f}s")


def test_matched_error_work_comparison(gapped256, gapless256):
    """Work comparison at matched energy error between in-multiply pruning
    and drop-then-multiply: gapped model at targets 1e-6 and 1e-8, gapless
    at 1e-5; the pruning kernel should need no more leaf multiplies."""
    cases = [
        ("gapped", gapped256, 1e-6),
        ("gapped", gapped256, 1e-8),
        ("gapless", gapless256, 1e-5),
    ]
    rows = []
    for label, fx, target in cases:
        ref = fx["exact"].energy
        found = {}
        for name, mode in (("spamm", SpammMode(0.0)),
                           ("drop", DroppingMode(0.0))):
            found[name] = match_error_threshold(
                fx["tree"], fx["n_occ"], target, mode,
                max_steps=16, reference_energy=ref)
        rows.append((label, target, found["spamm"], found["drop"]))

    lines = ["case      target   mode   tau         delta_e_rel  avg_matmuls"
             "  matched"]
    for label, target, s, d in rows:
        for name, res in (("spamm", s), ("drop", d)):
            lines.append(
                f"{label:<9} {target:<8.0e} {name:<6} {res.tau:<11.3e} "
                f"{res.delta_e_rel:<12.3e} {res.result.avg_leaf_matmuls:<12.1f}"
                f" {res.converged}")
    table = "\n".join(lines)
    print(table)

    problems = []
    for label, target, s, d in rows:
        if not (s.converged and d.converged):
            problems.append(
                f"{label} target {target:.0e}: threshold search did not land "
                f"both modes within a factor 2 of the target "
                f"(spamm {s.delta_e_rel:.3e}, drop {d.delta_e_rel:.3e})")
        if s.result.avg_leaf_matmuls > d.result.avg_leaf_matmuls:
            problems.append(
                f"{label} target {target:.0e}: spamm used "
                f"{s.result.avg_leaf_matmuls:.1f} avg leaf matmuls vs "
                f"{d.result.avg_leaf_matmuls:.1f} for dropping")
    if problems:
        pytest.fail("matched-error comparison failed:\n" + table + "\n\n"
                    + "\n".join(problems))
    print("PASS matched-error comparison: pruning never used more leaf "
          "multiplies than dropping")


def test_purified_density_correctness(gapped256):
    """Exact-algebra purification at n=256 against the dense eigensolver."""
    p = gapped256["exact"].density.to_dense()
    proj_err = float(np.linalg.norm(p - gapped256["projector"]))
    trace_err = abs(trace(gapped256["exact"].density) - gapped256["n_occ"])
    f = gapped256["dense"]
    comm = float(np.linalg.norm(p @ f - f @ p))
    f_norm = float(np.linalg.norm(f))
    assert proj_err <= 1e-8, f"projector distance {proj_err:.3e}"
    assert trace_err <= 1e-6, f"trace error {trace_err:.3e}"
    assert comm <= 1e-6 * f_norm, f"commutator {comm:.3e}"
    print(f"PASS purified density: |P - Pref| {proj_err:.3e}, "
          f"trace err {trace_err:.3e}, commutator {comm:.3e}")


def test_sfc_invariants():
    """Hilbert bijection exhaustively at orders 1..6 (every cell gets its
    own index in [0, 8**order)); symmetric block permutations round-trip
    bit-exactly and preserve trace and norm on 20 random symmetric
    matrices."""
    checked = 0
    for order in range(1, 7):
        total = 8 ** order
        idx = _cells_to_hilbert(_all_cells(order), order)
        assert np.array_equal(np.sort(idx), np.arange(total)), (
            f"order {order} not bijective")
        checked += total

    rng = np.random.default_rng(7)
    worst_trace = worst_norm = 0.0
    for _ in range(20):
        d = rng.standard_normal((48, 48))
        d = d + d.T
        m = from_dense(d)
        perm = rng.permutation(12)
        out = apply_ordering(m, perm, 4)
        back = apply_ordering(out, np.argsort(perm), 4)
        assert np.array_equal(back.to_dense(), d)
        dt = abs(trace(out) - np.trace(d))
        dn = abs(out.norm() - np.linalg.norm(d))
        assert dt <= 1e-13 * max(1.0, abs(np.trace(d)))
        assert dn <= 1e-13 * np.linalg.norm(d)
        worst_trace = max(worst_trace, dt)
        worst_norm = max(worst_norm, dn)
    print(f"PASS sfc invariants: {checked} curve cells bijective, 20 "
          f"permutations round-trip (trace dev {worst_trace:.1e}, norm dev "
          f"{worst_norm:.1e})")


def test_cli_determinism(tmp_path, monkeypatch, capsys):
    """Two identical command-line sessions, run from identical relative
    paths, must produce byte-identical files and stdout."""
    recipe = [
        ["generate", "--kind", "exp", "--n", "128", "--alpha", "1",
         "--out", "a.mtx"],
        ["generate", "--kind", "exp", "--n", "128", "--alpha", "2",
         "--out", "b.mtx"],
        ["multiply", "--a", "a.mtx", "--b", "b.mtx", "--tau", "1e-8",
         "--out-c", "c.mtx", "--stats", "stats.csv", "--with-error"],
        ["boxes", "--a", "a.mtx", "--b", "b.mtx", "--tau", "1e-8",
         "--out", "boxes.log"],
        ["generate", "--kind", "gapped", "--n", "64", "--out", "h.mtx"],
        ["purify", "--f", "h.mtx", "--n-occ", "32", "--mode", "spamm",
         "--tau", "1e-7", "--max-iter", "20", "--report", "report.csv",
         "--out-p", "p.mtx"],
        ["sweep", "--kind", "gapped", "--sizes", "16,32",
         "--modes", "spamm,drop", "--taus", "1e-8", "--out", "sweep.csv"],
        ["boxes", "--a", "a.mtx", "--b", "b.mtx", "--tau", "1e-6",
         "--out", "boxmap.log", "--summary", "boxsummary.txt"],
    ]
    outputs = ["a.mtx", "b.mtx", "c.mtx", "stats.csv", "boxes.log", "h.mtx",
               "p.mtx", "report.csv", "sweep.csv", "boxmap.log",
               "boxsummary.txt"]
    runs = []
    for tag in ("first", "second"):
        run_dir = tmp_path / tag
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        for argv in recipe:
            assert cli_main(argv) == 0
        stdout = capsys.readouterr().out
        runs.append((stdout, {name: (run_dir / name).read_bytes()
                              for name in outputs}))
    assert runs[0][0] == runs[1][0], "stdout differs between runs"
    for name in outputs:
        assert runs[0][1][name] == runs[1][1][name], f"{name} differs"
    print(f"PASS determinism: {len(outputs)} files and stdout byte-identical "
          f"across two sessions")
