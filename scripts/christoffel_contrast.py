#!/usr/bin/env python3
"""Pointwise-bound constant experiments.

Two questions, both answered with tables:

1. Growth contrast: how fast does the grid bound constant c_N grow with
   the section size for square exponents (summable reciprocal sums)
   versus linear exponents (non-summable)?  The linear family explodes;
   the square family creeps.

2. Shape dependence: fixing the total measure of the domain, how much
   does c_N move when the same mass is split into different interval
   unions?  The constant is expected to track measure far more than
   shape.
"""

import argparse
import sys

from mpmath import mp

from muntz import build_weighted_domain, christoffel_remez, gram, power_exponents, workbits


def growth_table(bits: int, rho: str, grid: int):
    domain = build_weighted_domain([("0.5", "1")], [(1, 0)], bits)
    print(f"growth contrast on [0.5,1], rho={rho}, grid={grid}")
    print(f"{'family':>10}  {'N':>3}  {'c_N':>14}")
    for label, beta in (("squares", 2), ("linear", 1)):
        lam = power_exponents(1, beta, 20, bits)
        for section in (5, 10, 15, 20):
            c = christoffel_remez(gram(domain, lam, section, bits), rho, grid)
            print(f"{label:>10}  {section:>3}  {float(c):>14.6e}")
    print()


def shape_table(bits: int, rho: str, grid: int):
    # equal measure 0.4, pushed into different unions inside [0.5, 1.02]:
    # the four-block union ends at 1.02, the other two at 1
    shapes = {
        "one-block": [("0.6", "1.0")],
        "two-block": [("0.5", "0.7"), ("0.8", "1.0")],
        "four-block": [("0.5", "0.6"), ("0.65", "0.75"), ("0.8", "0.9"), ("0.92", "1.02")],
    }
    lam = power_exponents(1, 2, 10, bits)
    print(f"shape dependence at equal measure 0.4, rho={rho}, grid={grid}")
    print(f"{'shape':>10}  {'measure':>8}  {'c_10':>14}")
    for label, intervals in shapes.items():
        wd = build_weighted_domain(intervals, [(1, 0)] * len(intervals), bits)
        c = christoffel_remez(gram(wd, lam, 10, bits), rho, grid)
        print(f"{label:>10}  {float(wd.total_measure):>8.3f}  {float(c):>14.6e}")
    print()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rho", default="0.5")
    ap.add_argument("--grid", type=int, default=201)
    ap.add_argument("--bits", type=int, default=256)
    args = ap.parse_args()
    with workbits(args.bits):
        growth_table(args.bits, args.rho, args.grid)
        shape_table(args.bits, args.rho, args.grid)
    return 0


if __name__ == "__main__":
    sys.exit(main())
