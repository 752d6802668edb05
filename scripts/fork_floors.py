#!/usr/bin/env python3
"""Serial against forked wall time for each caller of the fork-map helper.

``series._forked_map`` splits a caller's work over the usable cores only
when each process gets at least a floor of work: binary64 products of
the bound pass for ``christoffel_remez``, N (N + 1) / 2 for each grid
point past point 0 (``series._MIN_CHUNK_PRODUCTS``), subtree tasks for
``hereditary_sweep`` (``operator._MIN_SWEEP_TASKS``) and columns for
``dual_family`` (``duals._MIN_CHUNK_COLUMNS``).  For sizes
around where each floor starts forking on this host, this prints the
median wall time with every item in this process and with the items
split over all usable cores (the floor lowered to one item), and their
ratio, beside the items the caller hands to the helper.  A floor belongs
near the smallest item count whose ratio stays below 1.

The remez cases time the whole call on grids of s + 1 points at N = 16,
whatever ``--family`` says, for two exponent families at rho = 0.9 and
0.5: squares, whose bounds leave the kernel a handful of points, and
sqrt(n), whose bounds leave it hundreds on the larger grids.

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

    def record(chunk_fn, count, min_chunk):
        counts.append(count)
        return real(chunk_fn, count, min_chunk)

    with patched(module, "_forked_map", record), patched(module, name, 1):
        call()
    return sum(counts)


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

    # each caller forks once count // floor >= 2: from twice the remez
    # floor in grid points past point 0 (its products over the 136 entries
    # of L^-1 at N = 16), N = floor sweep tasks (2N of them) and 2 * floor
    # columns
    remez_points = -(-floors["remez"] // (16 * 17 // 2))
    if args.tiny:
        sizes = {"remez": [8], "sweep": [2], "duals": [2]}
    else:
        sizes = {"remez": [remez_points * k // 2 for k in (1, 2, 3, 4, 8)],
                 "sweep": [floors["sweep"] + d for d in (-2, -1, 0, 1, 2)],
                 "duals": [floors["duals"] * k // 2 for k in (2, 3, 4, 6, 8)]}
    remez_sections = {
        label: gram(wd, power_exponents(1, remez_beta, 16, args.bits), 16, args.bits)
        for label, remez_beta in (("squares", 2), ("sqrt(n)", "1/2"))}

    def remez(g, rho):
        return lambda size: (lambda: christoffel_remez(g, rho, size + 1))

    cases = [("remez", remez(g, rho), f"grid points past 0, {label} N = 16, rho = {rho}")
             for label, g in remez_sections.items() for rho in ("0.9", "0.5")]
    cases += [("sweep", lambda size: (lambda g=section(size): hereditary_sweep(g)), "N"),
              ("duals", lambda size: (lambda g=section(size): dual_family(g)), "N")]

    print(f"{cores} usable cores; {args.family} exponents on [0, 0.5] u [0.6, 1], "
          f"{args.bits} bits; median of {args.repeats}")
    if cores < 2:
        print("one usable core: the forked column runs serially too")
    print(f"{'caller':>7}  {'floor':>5}  {'size':>5}  {'items':>5}  {'serial ms':>10}  "
          f"{'forked ms':>10}  {'ratio':>6}  size is")
    for key, call_at, unit in cases:
        module, name = FLOORS[key]
        for size in sizes[key]:
            call = call_at(size)
            # warm: the section and its store entry exist before timing
            items = forked_items(call, module, name)
            times = {"serial": [], "forked": []}
            for _ in range(args.repeats):
                # alternated, so a host that drifts in speed moves both alike
                with patched(series_module, "_usable_cores", lambda: 1):
                    times["serial"].append(seconds(call))
                with patched(module, name, 1):
                    times["forked"].append(seconds(call))
            serial, forked = (1000 * statistics.median(t) for t in times.values())
            print(f"{key:>7}  {floors[key]:>5}  {size:>5}  {items:>5}  {serial:>10.2f}  "
                  f"{forked:>10.2f}  {forked / serial:>6.2f}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
