#!/usr/bin/env python3
"""Mixed-system margin trend.

Every mixed system (powers on one index set, duals on the complement) is
nonsingular section by section; the open question is whether the margin
survives as sections grow.  The margin is the L2 smallest singular value
of the normalized mixed system (each function scaled to unit norm): the
square root of its lower Riesz constant, which does not depend on how
the powers are scaled.  For each section size this prints the worst
margin over all partitions, the smallest over ``hereditary_sweep``'s
head/tail rows (by Cauchy interlacing, the smaller of the all-powers
and all-duals margins), and the margin of two fixed partition
patterns, N2 = the even indices and N2 = every third index, on domains
with and without a gap below the right endpoint.
"""

import argparse
import sys

from muntz import build_weighted_domain, gram, hereditary_check, hereditary_sweep, power_exponents


DOMAINS = {
    "unit": [("0", "1")],
    "gap-interior": [("0", "0.5"), ("0.6", "1")],
    "gap-at-top": [("0", "0.4"), ("0.5", "0.9")],
}

# pattern name -> whether 1-based index i is a dual (in N2)
PATTERNS = {
    "N2=even": lambda i: i % 2 == 0,
    "N2=every3rd": lambda i: i % 3 == 0,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-N", type=int, default=8)
    ap.add_argument("--bits", type=int, default=256)
    args = ap.parse_args()

    lam = power_exponents(1, 2, args.max_N, args.bits)
    print(f"{'domain':>12}  {'N':>3}  {'partitions':>12}  {'L2 min sv':>14}")
    for label, intervals in DOMAINS.items():
        wd = build_weighted_domain(intervals, [(1, 0)] * len(intervals), args.bits)
        for section in range(2, args.max_N + 1):
            g = gram(wd, lam, section, args.bits)
            worst = min(rep.min_singular_value for rep in hereditary_sweep(g))
            rows = [(f"all {2 ** section}", worst)]
            for name, is_dual in PATTERNS.items():
                n2 = [i for i in range(1, section + 1) if is_dual(i)]
                n1 = [i for i in range(1, section + 1) if not is_dual(i)]
                rows.append((name, hereditary_check(g, (n1, n2)).min_singular_value))
            for name, value in rows:
                print(f"{label:>12}  {section:>3}  {name:>12}  {float(value):>14.6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
