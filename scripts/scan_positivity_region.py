#!/usr/bin/env python3
"""Scan a tensor-weight plane for positive-definite combined Hamiltonians.

Writes the region CSV (same format as `pu6 scan`) and prints a coarse ASCII
picture of the positive region, so parameter choices can be explored quickly
before committing to a fine grid.
"""
import argparse
import sys

import numpy as np

import pu6


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omegas", type=float, nargs=3, default=(3.0, 2.0, 1.0))
    ap.add_argument("--fixed", default="c1")
    ap.add_argument("--fixed-value", type=float, default=1.0)
    ap.add_argument("--lo", type=float, nargs=2, default=(-30.0, 0.0), help="axis minima")
    ap.add_argument("--hi", type=float, nargs=2, default=(0.0, 150.0), help="axis maxima")
    ap.add_argument("--n", type=int, default=120)
    ap.add_argument("--out", default="region.csv")
    args = ap.parse_args()

    axes = [n for n in ("c1", "c2", "c3") if n != args.fixed]
    grid = pu6.GridSpec(
        axis1=pu6.AxisSpec(axes[0], args.lo[0], args.hi[0], args.n),
        axis2=pu6.AxisSpec(axes[1], args.lo[1], args.hi[1], args.n),
        fixed_name=args.fixed,
        fixed_value=args.fixed_value,
    )
    f = pu6.frequency_triple(*args.omegas)
    result = pu6.region_scan(grid, f)
    with open(args.out, "w") as fh:
        result.write_csv(fh)
    print(f"wrote {args.out}: {result.positive_count()} positive of {result.verdict.size} cells")

    # coarse ASCII rendering, axis1 horizontal
    w = min(args.n, 72)
    stride = max(1, args.n // w)
    verdicts = (result.verdict == "positive").reshape(args.n, args.n)
    for row in range(args.n - 1, -1, -stride):
        print("".join("#" if verdicts[col, row] else "." for col in range(0, args.n, stride)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
