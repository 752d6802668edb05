#!/usr/bin/env python3
"""Serial against pooled wall time for each caller of the fork-map helper.

``series._forked_map`` splits a caller's work over the usable cores,
in pieces that this process and the long-lived workers of its pool
claim one at a time, only when each process gets at least a floor of
work: binary64 products
of the bound pass for ``christoffel_remez``, N (N + 1) / 2 for each grid
point past point 0 (``series._MIN_CHUNK_PRODUCTS``), subtree tasks for
``hereditary_sweep`` (``operator._MIN_SWEEP_TASKS``) and columns for
``dual_family`` (``duals._MIN_CHUNK_COLUMNS``).  This first prints the
median round trip of one empty call through a started pool, then, for
sizes around where each floor starts splitting on this host, the median
wall time with every item in this process and with the items split over
all usable cores through the started pool (the floor lowered to one
item), and their ratio, beside the items the caller hands to the
helper.  A floor belongs near the smallest item count whose ratio stays
at or below 1.

The remez cases time the whole call at N = 6 and N = 16, whatever
``--family`` says, for two exponent families at rho = 0.9 and 0.5:
squares, whose bounds leave the kernel a handful of points, and sqrt(n),
whose bounds leave it hundreds on the larger grids.  Their sizes give
each process 2^9 to 2^13 products of the bound pass.

    python3 scripts/fork_floors.py [--family squares|linear|sqrt] [--repeats 5]
"""

import argparse
import statistics
import sys
import time
from contextlib import contextmanager

from muntz import (build_weighted_domain, christoffel_remez, dual_family, gram,
                   hereditary_sweep, power_exponents)
import muntz.duals as duals_module
import muntz.operator as operator_module
import muntz.series as series_module

FAMILIES = {"squares": 2, "linear": 1, "sqrt": "1/2"}
FLOORS = {"remez": (series_module, "_MIN_CHUNK_PRODUCTS"),
          "sweep": (operator_module, "_MIN_SWEEP_TASKS"),
          "duals": (duals_module, "_MIN_CHUNK_COLUMNS")}


@contextmanager
def patched(module, name, value):
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, old)


def forked_items(call, module, name) -> int:
    """How many work items ``call`` hands to the fork-map helper with its
    floor lowered to one item."""
    counts, real = [], module._forked_map

    def record(fn, args, count, min_chunk):
        counts.append(count)
        return real(fn, args, count, min_chunk)

    with patched(module, "_forked_map", record), patched(module, name, 1):
        call()
    return sum(counts)


def empty_pieces(spans):
    """No work: one empty result per index of each span."""
    for lo, hi in spans:
        yield [[] for _ in range(lo, hi)]


def seconds(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--family", choices=sorted(FAMILIES), default="squares")
    ap.add_argument("--bits", type=int, default=256)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--tiny", action="store_true",
                    help="one tiny size per caller, to check that the script runs")
    args = ap.parse_args()

    cores = series_module._usable_cores()
    floors = {key: getattr(module, name) for key, (module, name) in FLOORS.items()}
    wd = build_weighted_domain([("0", "0.5"), ("0.6", "1")], [(1, 0), (2, "0.5")], args.bits)
    beta = FAMILIES[args.family]

    def section(n):
        return gram(wd, power_exponents(1, beta, n, args.bits), n, args.bits)

    # the remez sizes in grid points past point 0, at 2^9..2^13 products
    # of the bound pass a process; the sweep around N = floor, where its
    # 2N tasks split, and the family from a few columns a process up
    if args.tiny:
        sizes = {"remez": [2 ** 9], "sweep": [2], "duals": [2]}
    else:
        sizes = {"remez": [2 ** e for e in range(9, 14)],
                 "sweep": sorted({max(2, floors["sweep"] + d) for d in (-2, -1, 0, 1, 2)}),
                 "duals": [4, 6, 8, 10, 15, 20, 30]}
    cases = []
    for n in (6, 16):
        per_point = n * (n + 1) // 2
        for label, remez_beta in (("squares", 2), ("sqrt(n)", "1/2")):
            g = gram(wd, power_exponents(1, remez_beta, n, args.bits), n, args.bits)
            for rho in ("0.9", "0.5"):
                cases += [("remez", -(-products * max(cores, 2) // per_point),
                           lambda points, g=g, rho=rho: christoffel_remez(g, rho, points + 1),
                           f"grid points past 0, {label} N = {n}, rho = {rho}, "
                           f"2^{products.bit_length() - 1} products a process")
                          for products in sizes["remez"]]
    cases += [("sweep", size, lambda n, g=section(size): hereditary_sweep(g), "N")
              for size in sizes["sweep"]]
    cases += [("duals", size, lambda n, g=section(size): dual_family(g), "N")
              for size in sizes["duals"]]

    print(f"{cores} usable cores; {args.family} exponents on [0, 0.5] u [0.6, 1], "
          f"{args.bits} bits; median of {args.repeats}")
    if cores < 2:
        print("one usable core: the pooled column runs serially too")
    # starts the pool, then times the round trip of one empty call
    series_module._forked_map(empty_pieces, (), 2, 1)
    trips = [seconds(lambda: series_module._forked_map(empty_pieces, (), 2, 1))
             for _ in range(max(50, 10 * args.repeats))]
    print(f"dispatch round trip of an empty call: {1000 * statistics.median(trips):.3f} ms")
    print(f"{'caller':>7}  {'floor':>5}  {'size':>5}  {'items':>5}  {'serial ms':>10}  "
          f"{'pooled ms':>10}  {'ratio':>6}  size is")
    for key, size, call_at, unit in cases:
        module, name = FLOORS[key]
        call = lambda: call_at(size)  # noqa: E731
        # warm: the section, its store entry and the pool exist before timing
        items = forked_items(call, module, name)
        times = {"serial": [], "pooled": []}
        for _ in range(args.repeats):
            # alternated, so a host that drifts in speed moves both alike
            with patched(series_module, "_usable_cores", lambda: 1):
                times["serial"].append(seconds(call))
            with patched(module, name, 1):
                times["pooled"].append(seconds(call))
        serial, pooled = (1000 * statistics.median(t) for t in times.values())
        print(f"{key:>7}  {floors[key]:>5}  {size:>5}  {items:>5}  {serial:>10.2f}  "
              f"{pooled:>10.2f}  {pooled / serial:>6.2f}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
