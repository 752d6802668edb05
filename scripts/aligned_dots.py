#!/usr/bin/env python3
"""The dual family through the aligned readers against a ``_dot``-only one.

``duals.dual_family`` reads each column of G^-1 by a back solve
(``gram._column_reader``) and its part of the residual max |G C - I|
(``gram._residual``); both readers align their operands once
(``precision._aligned``) and take each dot as ``precision._exact_dot``,
one C-level integer sum where the operands fit ``_dot``'s window of
2P bits.  The reference here is the same ``dual_family`` with its
columns read by ``dot_columns``, every dot a ``precision._dot`` over
the raw values, as the readers took it before the aligned form
(``dot_readers``, which the library's tests also check the readers
against).

For each cell, a domain (the unit interval, or the bench's two pieces
[0, 1/2] with weight 1 and [0.6, 1] with weight 2), an exponent family
(n^2, n or sqrt(n)) and a section size N, this prints the width the
section settled at, whether the two families are the same bits, and the
shortest serial time of each over ``--repeats`` interleaved repeats
with their ratio (reference over aligned: above 1 is a gain).  Both run
in this process alone, on a section whose L^-1 is grown before the
timing.  At N = 4 a family takes about 0.2 ms, so a few hundred
repeats steady the ratio there.  The exit status is 1 when a cell's
bits differ.

    python3 scripts/aligned_dots.py [--sizes 4 8 16 28 40] [--repeats 5] [--bits 256]
"""

import argparse
import sys
import time
from contextlib import contextmanager

from mpmath import mp
from mpmath.libmp import fone, fzero, mpf_abs, mpf_div, mpf_neg, round_nearest

from muntz import build_weighted_domain, gram, power_exponents
from muntz.precision import _dot
import muntz.duals as duals

DOMAINS = {"unit": ([("0", "1")], [(1, 0)]),
           "two-piece": ([("0", "0.5"), ("0.6", "1")], [(1, 0), (2, 0)])}
FAMILIES = {"n^2": 2, "n": 1, "sqrt(n)": "1/2"}


def dot_readers(rows, cols, entry_rows, bits):
    """``gram._column_reader(rows, cols, bits)`` (read whole) and
    ``gram._residual(entry_rows, bits)`` as they were with every dot a
    ``_dot`` of raw values: the readers (k) -> the back solve of column k
    of L^-1, and (x, b) -> G x - b."""
    n = len(rows)
    below = [[rows[j][i] for j in range(i + 1, n)] for i in range(n)]
    full = [row + [entry_rows[j][i] for j in range(i + 1, n)] for i, row in enumerate(entry_rows)]

    def column(k):
        rhs, x = [fzero] * k + cols[k], [fzero] * n
        for i in range(n - 1, -1, -1):
            x[i] = mpf_div(_dot(below[i], x[i + 1:], bits, rhs[i]), mpf_neg(rows[i][i]),
                           bits, round_nearest)
        return x

    return column, lambda x, b: [_dot(row, x, bits, b_m) for row, b_m in zip(full, b)]


def dot_columns(rows, cols, entry_rows, bits, spans):
    """``duals._family_columns`` on the readers of ``dot_readers``: for
    each column k of a span, the back solve of column k of L^-1, then
    the largest |G x - e_k|."""
    n = len(rows)
    column, residual = dot_readers(rows, cols, entry_rows, bits)
    for lo, hi in spans:
        out = []
        for k in range(lo, hi):
            x = column(k)
            unit = [fone if m == k else fzero for m in range(n)]
            out.append(x + [max(map(mpf_abs, residual(x, unit)), key=mp.make_mpf)])
        yield out


@contextmanager
def patched(module, name, value):
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, old)


def serial_family(g, columns=None):
    """``dual_family(g)`` in this process alone, its columns read by
    ``columns`` in place of the library's ``_family_columns`` when given."""
    with patched(duals, "_MIN_CHUNK_COLUMNS", g.n + 1), \
            patched(duals, "_family_columns", columns or duals._family_columns):
        return duals.dual_family(g)


def fastest_seconds(calls, repeats: int) -> list:
    """The shortest of ``repeats`` wall times of each call, the calls
    taken in turn within each repeat so that a slow spell of the host
    falls on both."""
    best = [float("inf")] * len(calls)
    for _ in range(repeats):
        for i, call in enumerate(calls):
            start = time.perf_counter()
            call()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", type=int, nargs="+", default=[4, 8, 16, 28, 40])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--bits", type=int, default=256)
    ap.add_argument("--tiny", action="store_true",
                    help="N = 4 on the unit interval, one repeat, to check that the script runs")
    args = ap.parse_args()
    sizes, repeats, domains = args.sizes, args.repeats, DOMAINS
    if args.tiny:
        sizes, repeats, domains = [4], 1, {"unit": DOMAINS["unit"]}

    print(f"{'domain':>9}  {'family':>7}  {'N':>3}  {'bits':>5}  {'same':>5}  "
          f"{'_dot ms':>9}  {'aligned ms':>10}  {'ratio':>6}")
    all_same = True
    for label, (intervals, weights) in domains.items():
        wd = build_weighted_domain(intervals, weights, args.bits)
        for family, beta in FAMILIES.items():
            for n in sizes:
                g = gram(wd, power_exponents(1, beta, n, args.bits), n, args.bits)
                same = serial_family(g) == serial_family(g, dot_columns)
                all_same &= same
                ref, new = fastest_seconds([lambda: serial_family(g, dot_columns),
                                            lambda: serial_family(g)], repeats)
                print(f"{label:>9}  {family:>7}  {n:>3}  {g.precision_bits:>5}  {str(same):>5}  "
                      f"{ref * 1e3:>9.2f}  {new * 1e3:>10.2f}  {ref / new:>6.2f}")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
