"""Benchmark command line: flops-vs-error experiments end to end.

Subcommands
-----------
generate   write a decay matrix or model Hamiltonian as MatrixMarket
multiply   truncated product of two MatrixMarket files; stats CSV, box log
purify     TC2 purification under a truncation mode; per-sweep report CSV
sweep      work/error table over sizes x modes x thresholds (or matched
           error targets)
boxes      pruned product-space cuboids of one multiply + occupancy summary

All runs are deterministic: every step is closed-form or fixed-order, so a
repeated invocation reproduces its outputs byte for byte.
Exit status is 0 on success, 1 on a rejected input, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .generators import (ModelHamiltonian, gen_algebraic, gen_exponential,
                         gen_model_hamiltonian)
from .matrixmarket import read_matrix_market, write_matrix_market
from .multiply import SpammConfig, spamm, write_box_log
from .purification import (DroppingMode, SpammMode, _check_max_iter,
                           _check_target, _held_token, match_error_threshold,
                           purify, write_purify_report)
from .quadtree import _check_tau, from_dense


def _load_tree(path, leaf_size):
    return from_dense(read_matrix_market(path), leaf_size=leaf_size)


def _multiply_files(args, collect_boxes):
    """(a, b, c, stats) of spamm(a, b) at --tau for the files --a and --b;
    paths naming one file load one tree, so spamm takes the symmetric square."""
    a = _load_tree(args.a, args.leaf_size)
    same = os.path.realpath(args.a) == os.path.realpath(args.b)
    b = a if same else _load_tree(args.b, args.leaf_size)
    return (a, b, *spamm(a, b, SpammConfig(args.tau, collect_boxes)))


def _generate_tree(args):
    if args.kind in ("exp", "exponential"):
        return gen_exponential(args.n, args.alpha, leaf_size=args.leaf_size)
    if args.kind in ("alg", "algebraic"):
        return gen_algebraic(args.n, args.p, leaf_size=args.leaf_size)
    model = ModelHamiltonian(n=args.n, kind=args.kind, gap=args.gap,
                             hopping=args.hopping)
    return gen_model_hamiltonian(model, leaf_size=args.leaf_size)


def cmd_generate(args):
    tree = _generate_tree(args)
    write_matrix_market(tree, args.out, fmt=args.format)
    print(f"wrote {args.kind} n={args.n} to {args.out}")
    return 0


def cmd_multiply(args):
    a, b, c, stats = _multiply_files(args, collect_boxes=args.boxes is not None)
    if args.out_c:
        write_matrix_market(c, args.out_c, fmt=args.format)
    if args.boxes:
        write_box_log(stats.boxes, args.boxes)
    header = "n,tau,leaf_matmuls,pruned_calls,omitted_budget"
    row = (f"{a.logical_dim},{args.tau:.17g},{stats.leaf_matmuls},"
           f"{stats.pruned_calls},{stats.omitted_budget:.17g}")
    if args.with_error:
        exact, _ = spamm(a, b)
        abs_err = float(np.linalg.norm(c.to_dense() - exact.to_dense()))
        header += ",abs_err"
        row += f",{abs_err:.17g}"
    if args.stats:
        with open(args.stats, "w") as fh:
            fh.write(header + "\n" + row + "\n")
    print(header)
    print(row)
    return 0


def _parse_mode(name, tau):
    if name == "spamm":
        return SpammMode(tau)
    if name == "drop":
        return DroppingMode(tau)
    raise ValueError(f"unknown mode {name!r} (expected 'spamm' or 'drop')")


def cmd_purify(args):
    f = _load_tree(args.f, args.leaf_size)
    mode = _parse_mode(args.mode, args.tau)
    result = purify(f, args.n_occ, mode, max_iter=args.max_iter)
    if args.report:
        write_purify_report(result, args.report)
    if args.out_p:
        write_matrix_market(result.density, args.out_p, fmt=args.format)
    print(f"mode={args.mode} tau={args.tau:.17g} iterations={result.iterations}")
    print(f"energy={result.energy:.17g} delta_e_rel={result.delta_e_rel:.17g}")
    print(f"total_leaf_matmuls={result.total_leaf_matmuls} "
          f"avg_leaf_matmuls={result.avg_leaf_matmuls:.17g}")
    print(f"held_at={_held_token(result)} "
          f"idempotency_gap={result.idempotency_gap:.17g}")
    return 0


def cmd_sweep(args):
    sizes = [int(t) for t in args.sizes.split(",") if t]
    modes = [t.strip() for t in args.modes.split(",") if t.strip()]
    if args.taus is None and args.match_targets is None:
        raise ValueError("sweep needs --taus or --match-targets")
    taus = ([float(t) for t in args.taus.split(",") if t]
            if args.taus else [])
    targets = ([float(t) for t in args.match_targets.split(",") if t]
               if args.match_targets else [])
    # Every input is checked before the first purification runs.
    models = [ModelHamiltonian(n=n, kind=args.kind, gap=args.gap,
                               hopping=args.hopping) for n in sizes]
    _check_max_iter(args.max_iter)
    for mode_name in modes:
        _parse_mode(mode_name, 0.0)
    for tau in taus:
        _check_tau(tau)
    for target in targets:
        _check_target(target)

    lines = ["n,mode,tau,target,iterations,avg_leaf_matmuls,"
             "total_leaf_matmuls,delta_e_rel"]
    for model in models:
        f = gen_model_hamiltonian(model, leaf_size=args.leaf_size)
        reference = purify(f, model.n_occ, SpammMode(0.0),
                           max_iter=args.max_iter).energy
        for mode_name in modes:
            for tau in taus:
                mode = _parse_mode(mode_name, tau)
                res = purify(f, model.n_occ, mode, max_iter=args.max_iter,
                             reference_energy=reference)
                lines.append(
                    f"{model.n},{mode_name},{tau:.17g},,{res.iterations},"
                    f"{res.avg_leaf_matmuls:.17g},{res.total_leaf_matmuls},"
                    f"{res.delta_e_rel:.17g}")
            for target in targets:
                match = match_error_threshold(
                    f, model.n_occ, target, _parse_mode(mode_name, 0.0),
                    max_iter=args.max_iter, reference_energy=reference)
                res = match.result
                lines.append(
                    f"{model.n},{mode_name},{match.tau:.17g},{target:.17g},"
                    f"{res.iterations},{res.avg_leaf_matmuls:.17g},"
                    f"{res.total_leaf_matmuls},{res.delta_e_rel:.17g}")
    text = "\n".join(lines) + "\n"
    with open(args.out, "w") as fh:
        fh.write(text)
    print(text, end="")
    return 0


def cmd_boxes(args):
    a, _, _, stats = _multiply_files(args, collect_boxes=True)
    write_box_log(stats.boxes, args.out)
    cube = a.padded_dim ** 3
    per_tier = {}
    for box in stats.boxes:
        per_tier[box.tier] = per_tier.get(box.tier, 0) + 1
    summary = [f"padded_dim {a.padded_dim}", f"tau {args.tau:.17g}",
               f"boxes {len(stats.boxes)}"]
    for tier in sorted(per_tier):
        edge = a.padded_dim >> tier
        summary.append(f"tier {tier} boxes {per_tier[tier]} edge {edge} "
                       f"volume {per_tier[tier] * edge ** 3}")
    summary.append(f"pruned_volume_fraction {stats.pruned_volume / cube:.17g}")
    summary.append(f"leaf_matmuls {stats.leaf_matmuls}")
    text = "\n".join(summary) + "\n"
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def _add_model_flags(p):
    p.add_argument("--gap", type=float, default=1.0,
                   help="spectral gap of the gapped chain (default 1.0)")
    p.add_argument("--hopping", "--hop", type=float, default=1.0,
                   help="nearest-neighbour hopping (default 1.0)")


def _add_common(p):
    p.add_argument("--leaf-size", type=int, default=4,
                   help="dense leaf block side, power of two (default 4)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spamm-bench",
        description="flops-vs-error benchmarks for norm-pruned quadtree "
                    "matrix multiplication")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a test matrix as MatrixMarket")
    p.add_argument("--kind", required=True,
                   choices=["exp", "exponential", "alg", "algebraic",
                            "gapped", "gapless"])
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="exponential decay rate (default 1.0)")
    p.add_argument("--p", type=float, default=3.0,
                   help="algebraic decay power (default 3.0)")
    _add_model_flags(p)
    p.add_argument("--format", choices=["array", "coordinate"],
                   default="array")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("multiply", help="truncated product of two matrices")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--out-c", help="write the product as MatrixMarket")
    p.add_argument("--format", choices=["array", "coordinate"],
                   default="array")
    p.add_argument("--stats", help="write a one-row stats CSV")
    p.add_argument("--boxes", help="write the pruned-box log")
    p.add_argument("--with-error", action="store_true",
                   help="also compute the exact product and report abs_err")
    _add_common(p)
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser(
        "purify", help="TC2 purification of a Hamiltonian",
        description="TC2 purification of a Hamiltonian.  Prints energy = "
                    "Tr(P F) for the projector P that the final iterate "
                    "purifies to, delta_e_rel = its relative error "
                    "against a tau = 0 run, held_at = the sweep at which "
                    "the run started holding its best iterate (none if it "
                    "never did) and idempotency_gap = |X^2 - X|_F of the "
                    "final iterate X.")
    p.add_argument("--f", required=True, help="Hamiltonian MatrixMarket file")
    p.add_argument("--n-occ", type=float, required=True)
    p.add_argument("--mode", choices=["spamm", "drop"], default="spamm")
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--report", help="write the per-sweep report CSV")
    p.add_argument("--out-p", help="write the density matrix as MatrixMarket")
    p.add_argument("--format", choices=["array", "coordinate"],
                   default="array")
    _add_common(p)
    p.set_defaults(func=cmd_purify)

    p = sub.add_parser("sweep", help="work/error table over a model family")
    p.add_argument("--kind", choices=["gapped", "gapless"], default="gapped")
    _add_model_flags(p)
    p.add_argument("--sizes", required=True, help="comma-separated dims")
    p.add_argument("--modes", default="spamm,drop")
    p.add_argument("--taus", help="comma-separated thresholds")
    p.add_argument("--match-targets",
                   help="comma-separated delta_e_rel targets to match")
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("boxes", help="pruned product-space map of a multiply")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--out", required=True, help="box log path")
    p.add_argument("--summary", help="also write the occupancy summary here")
    _add_common(p)
    p.set_defaults(func=cmd_boxes)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
