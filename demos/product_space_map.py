"""Map where a truncated multiply spends and saves its work.

Multiplies the two exponential-decay test matrices at n = 512 and prints,
tier by tier, how much of the 512^3 product-space cube the norm test pruned.
The box log written alongside is the raw material for a 3-D rendering of the
truncation structure: one cuboid per line, ``tier i_lo j_lo k_lo edge``.
"""

import argparse

from spamm.generators import gen_exponential
from spamm.multiply import SpammConfig, spamm, write_box_log


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=512)
    ap.add_argument("--tau", type=float, default=1e-8)
    ap.add_argument("--out", default="product_space_boxes.log")
    args = ap.parse_args()

    a = gen_exponential(args.n, 1.0)
    b = gen_exponential(args.n, 2.0)
    c, stats = spamm(a, b, SpammConfig(tau=args.tau, collect_boxes=True))

    cube = a.padded_dim ** 3
    visited = stats.leaf_matmuls * a.leaf_size ** 3
    print(f"n = {args.n}, tau = {args.tau:g}")
    print(f"leaf multiplies      {stats.leaf_matmuls:>12}  "
          f"({visited / cube:7.2%} of the cube)")
    print(f"pruned boxes         {len(stats.boxes):>12}  "
          f"({stats.pruned_volume / cube:7.2%})")
    print(f"error budget         {stats.omitted_budget:>12.3e}")

    per_tier = {}
    for bx in stats.boxes:
        per_tier[bx.tier] = per_tier.get(bx.tier, 0) + 1
    for tier in sorted(per_tier):
        edge = a.padded_dim >> tier
        frac = per_tier[tier] * edge ** 3 / cube
        print(f"  tier {tier}: {per_tier[tier]:>6} boxes of edge {edge:<4} "
              f"pruning {frac:7.2%} of the cube")

    write_box_log(stats.boxes, args.out)
    print(f"box log written to {args.out}")


if __name__ == "__main__":
    main()
