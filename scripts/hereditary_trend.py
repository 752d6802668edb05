#!/usr/bin/env python3
"""Mixed-system margin trend.

Every mixed system (powers on one index set, duals on the complement) is
nonsingular section by section; the open question is whether the margin
survives as sections grow.  This sweeps all partitions per section size
and reports the worst minimum singular value, including domains with a
gap below the right endpoint, where the margin behavior is exploratory.
"""

import argparse
import sys

from muntz import build_weighted_domain, gram, hereditary_sweep, power_exponents


DOMAINS = {
    "unit": [("0", "1")],
    "gap-interior": [("0", "0.5"), ("0.6", "1")],
    "gap-at-top": [("0", "0.4"), ("0.5", "0.9")],
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-N", type=int, default=8)
    ap.add_argument("--bits", type=int, default=256)
    args = ap.parse_args()

    lam = power_exponents(1, 2, args.max_N, args.bits)
    print(f"{'domain':>12}  {'N':>3}  {'partitions':>10}  {'worst min sv':>14}")
    for label, intervals in DOMAINS.items():
        wd = build_weighted_domain(intervals, [(1, 0)] * len(intervals), args.bits)
        for section in range(2, args.max_N + 1):
            g = gram(wd, lam, section, args.bits)
            worst = min(rep.min_singular_value for rep in hereditary_sweep(g))
            print(
                f"{label:>12}  {section:>3}  {2 ** section:>10}  {float(worst):>14.6e}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
