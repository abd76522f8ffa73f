"""End-to-end command-line tests; every invocation runs in process."""

import inspect
import math
import os
import warnings

import numpy as np
import pytest

from spamm import cli, purification
from spamm.cli import main
from spamm.generators import (ModelHamiltonian, gen_algebraic, gen_exponential,
                              gen_model_hamiltonian)
from spamm.matrixmarket import read_matrix_market, write_matrix_market
from spamm.multiply import spamm
from spamm.purification import match_error_threshold, purify
from spamm.quadtree import from_dense

from conftest import padded_dense
from test_matrixmarket import NON_SQUARE_SYMMETRIC
from test_multiply import _flat_reference


def _write_pair(tmp_path, n=64, alphas=(1.0, 2.0)):
    a = gen_exponential(n, alphas[0])
    b = gen_exponential(n, alphas[1])
    pa, pb = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix_market(a, pa, fmt="array")
    write_matrix_market(b, pb, fmt="array")
    return a, b, str(pa), str(pb)


def _read_stats(path):
    header, row = path.read_text().splitlines()
    return header, row.split(",")


# ----------------------------------------------------------------- generate

def test_generate_exponential_matches_library(tmp_path):
    out = tmp_path / "a.mtx"
    assert main(["generate", "--kind", "exp", "--n", "32", "--alpha", "1",
                 "--out", str(out)]) == 0
    ref = tmp_path / "ref.mtx"
    write_matrix_market(gen_exponential(32, 1.0), ref, fmt="array")
    assert out.read_bytes() == ref.read_bytes()
    # a second run writes the identical file
    out2 = tmp_path / "a2.mtx"
    assert main(["generate", "--kind", "exp", "--n", "32", "--alpha",
                 "1", "--out", str(out2)]) == 0
    assert out2.read_bytes() == out.read_bytes()


def test_generate_algebraic_and_models(tmp_path):
    out = tmp_path / "g.mtx"
    assert main(["generate", "--kind", "alg", "--n", "24", "--p", "3",
                 "--out", str(out)]) == 0
    got = read_matrix_market(out)
    assert got[0, 1] == 1.0 and got[0, 0] == 0.0

    assert main(["generate", "--kind", "gapped", "--n", "16", "--gap", "1",
                 "--hopping", "2", "--out", str(out)]) == 0
    ref = gen_model_hamiltonian(ModelHamiltonian(16, "gapped", gap=1.0,
                                                 hopping=2.0))
    assert np.array_equal(read_matrix_market(out), ref.to_dense())

    assert main(["generate", "--kind", "gapless", "--n", "16",
                 "--out", str(out)]) == 0
    assert read_matrix_market(out)[0, 0] == 0.0


# ----------------------------------------------------------------- multiply

def test_multiply_exact_error_column(tmp_path):
    a, b, pa, pb = _write_pair(tmp_path)
    stats = tmp_path / "stats.csv"
    assert main(["multiply", "--a", pa, "--b", pb, "--tau", "0",
                 "--stats", str(stats), "--with-error"]) == 0
    header, row = _read_stats(stats)
    assert header == "n,tau,leaf_matmuls,pruned_calls,omitted_budget,abs_err"
    assert float(row[5]) <= 1e-13 * a.norm() * b.norm()
    assert float(row[4]) == 0.0
    assert int(row[0]) == 64


def test_multiply_writes_product(tmp_path):
    a, b, pa, pb = _write_pair(tmp_path)
    out_c = tmp_path / "c.mtx"
    assert main(["multiply", "--a", pa, "--b", pb, "--tau", "0",
                 "--out-c", str(out_c)]) == 0
    ref = spamm(a, b)[0].to_dense()
    assert np.array_equal(read_matrix_market(out_c), ref)


def test_multiply_monotone_work(tmp_path):
    _, _, pa, pb = _write_pair(tmp_path)
    counts = {}
    for tau in ("1e-2", "1e-8"):
        stats = tmp_path / f"s{tau}.csv"
        assert main(["multiply", "--a", pa, "--b", pb, "--tau", tau,
                     "--stats", str(stats)]) == 0
        header, row = _read_stats(stats)
        assert header == "n,tau,leaf_matmuls,pruned_calls,omitted_budget"
        counts[tau] = int(row[2])
    assert counts["1e-2"] <= counts["1e-8"]


def test_multiply_deterministic_outputs(tmp_path):
    _, _, pa, pb = _write_pair(tmp_path)
    blobs = []
    for tag in ("one", "two"):
        stats = tmp_path / f"stats.{tag}.csv"
        boxes = tmp_path / f"boxes.{tag}.log"
        out_c = tmp_path / f"c.{tag}.mtx"
        assert main(["multiply", "--a", pa, "--b", pb, "--tau", "1e-6",
                     "--stats", str(stats), "--out-c", str(out_c)]) == 0
        assert main(["boxes", "--a", pa, "--b", pb, "--tau", "1e-6",
                     "--out", str(boxes)]) == 0
        blobs.append((stats.read_bytes(), boxes.read_bytes(),
                      out_c.read_bytes()))
    assert blobs[0] == blobs[1]


def test_one_file_for_both_operands_is_squared_symmetrically(tmp_path, monkeypatch):
    """--a and --b naming one file (by the same path or through a link) load
    one tree, so multiply and boxes each run the symmetric square, whose
    product is flagged and stores its blocks with i <= j alone; a copy
    under a second name loads two trees and runs the full traversal, whose
    product stores every block.  Both give the same bytes but for
    omitted_budget, which the square sums with off-diagonal norm products
    doubled."""
    a = gen_exponential(64, 0.5)
    path, copy, link = (tmp_path / f"{name}.mtx" for name in ("a", "copy", "link"))
    write_matrix_market(a, path, fmt="array")
    write_matrix_market(a, copy, fmt="array")
    os.symlink(path, link)
    products = []

    def recorded(*args):
        c, stats = spamm(*args)
        products.append(c)
        return c, stats

    def storage():
        """How the one product made since the last call stores its blocks:
        "half" if flagged with i <= j alone, "full" if unflagged with blocks
        below the diagonal too."""
        (c,) = products
        del products[:]
        i, j = np.divmod(c._keys, c.block_grid)
        if c.symmetric and (i <= j).all():
            return "half"
        return "full" if not c.symmetric and (i > j).any() else None

    monkeypatch.setattr(cli, "spamm", recorded)
    outputs = {}
    for tag, other, kind in (("same", path, "half"), ("link", link, "half"),
                             ("copy", copy, "full")):
        files = [tmp_path / f"out-{tag}.{ext}"
                 for ext in ("csv", "mtx", "log", "txt")]
        operands = ["--a", str(path), "--b", str(other), "--tau", "1e-6"]
        assert main(["multiply", *operands, "--stats", str(files[0]),
                     "--out-c", str(files[1])]) == 0
        assert storage() == kind
        assert main(["boxes", *operands, "--out", str(files[2]),
                     "--summary", str(files[3])]) == 0
        assert storage() == kind
        outputs[tag] = [f.read_bytes() for f in files[1:]]
        outputs[tag].append(_read_stats(files[0])[1])
    assert outputs["copy"][1] != b""  # the comparison covers pruned boxes
    for tag in ("same", "link"):
        *blobs, row = outputs[tag]
        *copy_blobs, copy_row = outputs["copy"]
        assert blobs == copy_blobs
        assert row[:4] == copy_row[:4]
        assert math.isclose(float(row[4]), float(copy_row[4]), rel_tol=1e-14)


# -------------------------------------------------------------------- boxes

def test_boxes_tau0_empty(tmp_path):
    _, _, pa, pb = _write_pair(tmp_path, n=32)
    out = tmp_path / "boxes.log"
    summary = tmp_path / "summary.txt"
    assert main(["boxes", "--a", pa, "--b", pb, "--tau", "0",
                 "--out", str(out), "--summary", str(summary)]) == 0
    assert out.read_text() == ""
    assert "boxes 0" in summary.read_text()
    assert "pruned_volume_fraction 0" in summary.read_text()


def test_boxes_root_rejection(tmp_path):
    a, b, pa, pb = _write_pair(tmp_path, n=32)
    big = a.norm() * b.norm() * 2
    out = tmp_path / "boxes.log"
    summary = tmp_path / "summary.txt"
    assert main(["boxes", "--a", pa, "--b", pb, "--tau", f"{big:.17g}",
                 "--out", str(out), "--summary", str(summary)]) == 0
    assert out.read_text() == f"0 0 0 0 {a.padded_dim}\n"
    text = summary.read_text()
    assert "boxes 1" in text
    assert "pruned_volume_fraction 1\n" in text


def test_boxes_per_tier_counts_match_flat_reference(tmp_path):
    a, b, pa, pb = _write_pair(tmp_path, n=64)
    out = tmp_path / "boxes.log"
    summary = tmp_path / "summary.txt"
    assert main(["boxes", "--a", pa, "--b", pb, "--tau", "1e-4",
                 "--out", str(out), "--summary", str(summary)]) == 0
    _, ref_boxes, _ = _flat_reference(padded_dense(a), padded_dense(b), 4, 1e-4)
    per_tier = {}
    for tier, *_ in ref_boxes:
        per_tier[tier] = per_tier.get(tier, 0) + 1
    text = summary.read_text()
    for tier, count in sorted(per_tier.items()):
        assert f"tier {tier} boxes {count} " in text
    logged = [tuple(map(int, ln.split())) for ln in out.read_text().splitlines()]
    assert {(t, i, j, k, e) for t, i, j, k, e in logged} == ref_boxes


# ------------------------------------------------------------------- purify

def test_purify_report_consistency(tmp_path, capsys):
    h = tmp_path / "h.mtx"
    assert main(["generate", "--kind", "gapped", "--n", "64",
                 "--out", str(h)]) == 0
    report = tmp_path / "report.csv"
    out_p = tmp_path / "p.mtx"
    assert main(["purify", "--f", str(h), "--n-occ", "32", "--mode", "spamm",
                 "--tau", "1e-8", "--max-iter", "20", "--report", str(report),
                 "--out-p", str(out_p)]) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "iteration,trace,leaf_matmuls,cumulative_matmuls"
    assert len(lines) == 22  # header + 20 sweeps + summary
    last = lines[-2].split(",")
    total = int(last[3])
    summary = dict(tok.split("=") for tok in lines[-1].split(",")[1:])
    avg = float(summary["avg_leaf_matmuls"])
    assert math.isclose(avg * 20, total, rel_tol=1e-12)
    printed = dict(tok.split("=", 1) for tok in capsys.readouterr().out.split()
                   if "=" in tok)
    for key in ("held_at", "idempotency_gap"):
        assert printed[key] == summary[key]
    p = read_matrix_market(out_p)
    assert abs(np.trace(p) - 32) <= 1e-6


# -------------------------------------------------------------------- sweep

def test_sweep_table_schema_and_consistency(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--kind", "gapped", "--sizes", "16,32",
                 "--modes", "spamm,drop", "--taus", "1e-8,1e-4",
                 "--max-iter", "30", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("n,mode,tau,target,iterations,avg_leaf_matmuls,"
                        "total_leaf_matmuls,delta_e_rel")
    assert len(lines) == 1 + 2 * 2 * 2
    for line in lines[1:]:
        n, mode, tau, target, iters, avg, total, delta = line.split(",")
        assert int(n) in (16, 32)
        assert mode in ("spamm", "drop")
        assert target == ""
        assert math.isclose(float(avg) * int(iters), int(total), rel_tol=1e-12)
        assert math.isfinite(float(delta))


def test_sweep_matched_targets(tmp_path):
    out = tmp_path / "match.csv"
    assert main(["sweep", "--kind", "gapped", "--sizes", "64",
                 "--modes", "spamm", "--match-targets", "1e-5",
                 "--max-iter", "30", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    n, mode, tau, target, iters, avg, total, delta = lines[1].split(",")
    assert float(target) == 1e-5
    assert float(tau) > 0
    assert math.isfinite(float(delta))


# ------------------------------------------------------ defaults, spellings

def _library_defaults():
    """The library's defaults of the settings the command line shares with
    it, each checked to be one value across the signatures that take it."""
    def default(func, name):
        return inspect.signature(func).parameters[name].default

    leaf_sizes = {default(f, "leaf_size") for f in
                  (from_dense, gen_exponential, gen_algebraic, gen_model_hamiltonian)}
    max_iters = {default(f, "max_iter") for f in (purify, match_error_threshold)}
    assert len(leaf_sizes) == len(max_iters) == 1
    return {"leaf_size": leaf_sizes.pop(), "max_iter": max_iters.pop(),
            "gap": default(ModelHamiltonian, "gap"),
            "hopping": default(ModelHamiltonian, "hopping")}


@pytest.mark.parametrize("argv, settings", [
    (["generate", "--kind", "exp", "--n", "8", "--out", "x.mtx"],
     ("leaf_size", "gap", "hopping")),
    (["multiply", "--a", "a.mtx", "--b", "b.mtx"], ("leaf_size",)),
    (["purify", "--f", "f.mtx", "--n-occ", "1"], ("leaf_size", "max_iter")),
    (["sweep", "--sizes", "16", "--out", "s.csv"],
     ("leaf_size", "max_iter", "gap", "hopping")),
    (["boxes", "--a", "a.mtx", "--b", "b.mtx", "--tau", "0", "--out", "b.log"],
     ("leaf_size",)),
])
def test_flag_defaults_are_the_library_defaults(argv, settings):
    """A subcommand given only its required flags parses each setting it
    shares with the library to the library's default."""
    library = _library_defaults()
    args = cli.build_parser().parse_args(argv)
    assert {name for name in library if hasattr(args, name)} == set(settings)
    for name in settings:
        assert getattr(args, name) == library[name], name


@pytest.mark.parametrize("argv", [
    ["generate", "--kind", "exponential", "--n", "8", "--out", "x.mtx"],
    ["generate", "--kind", "algebraic", "--n", "8", "--out", "x.mtx"],
    ["generate", "--kind", "gapped", "--n", "8", "--hop", "2", "--out", "x.mtx"],
    ["sweep", "--sizes", "16", "--taus", "0", "--hop", "2", "--out", "s.csv"],
    ["multiply", "--a", "a.mtx", "--b", "a.mtx", "--boxes", "boxes.log"],
])
def test_removed_spellings_are_usage_errors(tmp_path, monkeypatch, argv):
    """The kind names exponential and algebraic, the flag --hop (no longer
    taken as a prefix of --hopping either) and multiply --boxes are gone:
    exit status 2, and no file written."""
    monkeypatch.chdir(tmp_path)
    write_matrix_market(gen_exponential(8, 1.0), tmp_path / "a.mtx")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert [p.name for p in tmp_path.iterdir()] == ["a.mtx"]


# --------------------------------------------------------------- exit codes

def test_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["multiply", "--a", "only-one-side.mtx"])
    assert exc.value.code == 2

    assert main(["multiply", "--a", str(tmp_path / "missing.mtx"),
                 "--b", str(tmp_path / "missing.mtx")]) == 1
    assert "error:" in capsys.readouterr().err

    assert main(["generate", "--kind", "exp", "--n", "8", "--alpha", "-1",
                 "--out", str(tmp_path / "x.mtx")]) == 1
    assert "error:" in capsys.readouterr().err

    out = tmp_path / "s.csv"
    assert main(["sweep", "--sizes", "16", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err

    # a 0 index used to wrap round to the last row, giving diag(1, 0, 5)
    zero_index = tmp_path / "zero.mtx"
    zero_index.write_text("%%MatrixMarket matrix coordinate real general\n"
                          "3 3 2\n1 1 1.0\n0 0 5.0\n")
    assert main(["purify", "--f", str(zero_index), "--n-occ", "1"]) == 1
    assert "error:" in capsys.readouterr().err

    for fmt, text in NON_SQUARE_SYMMETRIC.items():
        rect = tmp_path / f"rect-{fmt}.mtx"
        rect.write_text(text)
        assert main(["purify", "--f", str(rect), "--n-occ", "1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    assert main(["sweep", "--sizes", "16", "--modes", "spamm", "--match-targets", "nan",
                 "--out", str(out)]) == 1
    assert "finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--kind", "exp", "--alpha", "nan"], "alpha must be finite"),
    (["--kind", "exp", "--alpha", "inf"], "alpha must be finite"),
    (["--kind", "alg", "--p", "nan"], "p must be finite"),
    (["--kind", "gapped", "--gap", "nan"], "gap must be finite"),
    (["--kind", "gapless", "--hopping", "inf"], "hopping must be finite"),
])
def test_generate_rejects_non_finite_parameters(tmp_path, capsys, flags, message):
    """A NaN or infinite generator parameter is a rejected input: exit
    status 1, an error line naming it, and no file written."""
    out = tmp_path / "x.mtx"
    assert main(["generate", "--n", "8", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--taus", "1e-6", "--match-targets", "nan"], "finite and > 0"),
    (["--taus", "1e-6", "--match-targets", "1e-17"], "below float64 resolution"),
    (["--modes", "spamm,bogus", "--taus", "1e-6"], "unknown mode 'bogus'"),
    (["--taus", "-1"], "finite and >= 0"),
    (["--taus", "1e-6,inf"], "finite and >= 0"),
    (["--sizes", "16,1", "--taus", "1e-6", "--modes", "spamm"], "n must be >= 2"),
    (["--taus", "1e-6", "--max-iter", "0"], "max_iter must be >= 1"),
])
def test_sweep_rejects_bad_input_before_any_purification(tmp_path, capsys,
                                                         monkeypatch, flags, message):
    """A bad mode name, tau, match target, size (one after a good size) or
    sweep count is rejected before the tau=0 reference run and every --taus
    row: exit status 1, an error line, and no purification."""
    def no_purify(*args, **kwargs):
        raise AssertionError("purify ran before the sweep's inputs were checked")

    monkeypatch.setattr(cli, "purify", no_purify)
    monkeypatch.setattr(purification, "purify", no_purify)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--sizes", "16", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_purify_rejects_non_finite_input(tmp_path, capsys, value):
    """A gapped n=16 file with one nan or inf on the diagonal is a rejected
    input: exit status 1, an error line naming the entry, and no energy
    printed."""
    f = tmp_path / "f.mtx"
    assert main(["generate", "--kind", "gapped", "--n", "16", "--out", str(f)]) == 0
    d = read_matrix_market(f)
    d[3, 3] = float(value)
    write_matrix_market(d, f)
    capsys.readouterr()
    assert main(["purify", "--f", str(f), "--n-occ", "8"]) == 1
    out, err = capsys.readouterr()
    assert "energy=" not in out
    assert err.startswith("error:") and "(4, 4)" in err


def test_purify_rejects_overflowing_gershgorin_bounds(tmp_path, capsys):
    """A finite F whose Gershgorin bounds overflow is a rejected input: exit
    status 1, an error line naming the bounds, and no energy printed (it
    used to print a NaN energy)."""
    f = tmp_path / "overflow.mtx"
    f.write_text("%%MatrixMarket matrix array real symmetric\n"
                 "2 2\n1e308\n1e308\n1.0\n")
    assert main(["purify", "--f", str(f), "--n-occ", "1"]) == 1
    out, err = capsys.readouterr()
    assert "energy=" not in out
    assert err.startswith("error:") and "Gershgorin bounds" in err


def test_overflowing_norms_warn_nothing(tmp_path, capsys):
    """A finite matrix whose squares overflow builds a tree with inf norms
    and no RuntimeWarning, and its purify run ends in the one error line,
    with warnings raised as errors throughout."""
    entries = [[1e308, 1e308], [1e308, 1.0]]
    f = tmp_path / "overflow.mtx"
    write_matrix_market(np.array(entries), f)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert from_dense(entries).norm() == math.inf
        assert main(["purify", "--f", str(f), "--n-occ", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
