#!/usr/bin/env python3
"""Distance lower-bound experiment.

For the square-exponent system on [0,1], tabulate D_n across section
sizes, the per-exponent decay slopes, and the fitted lower-bound
constant u(N) = min_n D_n^(N) / (r_w - eps)**lam_n.  The table makes the
drift of u(N) visible: the minimizing index migrates outward as sections
grow, so the fitted constant keeps shrinking at desk scale even though
it stays strictly positive.
"""

import argparse
import json
import sys

from mpmath import mp

from muntz import (
    build_weighted_domain,
    distance,
    fmt,
    gram,
    power_exponents,
    workbits,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-N", type=int, default=12)
    ap.add_argument("--epsilon", default="0.1")
    ap.add_argument("--beta", default="2", help="exponent growth power")
    ap.add_argument("--bits", type=int, default=256)
    ap.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    args = ap.parse_args()

    wd = build_weighted_domain([(0, 1)], [(1, 0)], args.bits)
    lam = power_exponents(1, args.beta, args.max_N, args.bits)

    rows = []
    with workbits(args.bits):
        base = wd.r_a - mp.mpf(args.epsilon)
        for section in range(2, args.max_N + 1):
            g = gram(wd, lam, section, args.bits)
            ratios = [
                distance(g, n) / base ** lam_n
                for n, lam_n in enumerate(g.lams, 1)
            ]
            u = min(ratios)
            rows.append(
                {
                    "N": section,
                    "u": fmt(u, args.bits),
                    "argmin_n": ratios.index(u) + 1,
                    "step_ratio": fmt(
                        u / mp.mpf(rows[-1]["u"]) if rows else mp.mpf(1), args.bits
                    ),
                }
            )

    if args.json:
        json.dump({"epsilon": args.epsilon, "rows": rows}, sys.stdout, indent=2)
        print()
    else:
        print(f"{'N':>3}  {'u(N)':>14}  {'argmin n':>8}  {'u(N)/u(N-1)':>12}")
        for row in rows:
            print(
                f"{row['N']:>3}  {float(mp.mpf(row['u'])):>14.6e}  "
                f"{row['argmin_n']:>8}  {float(mp.mpf(row['step_ratio'])):>12.4f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
