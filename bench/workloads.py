"""Seeded inputs for the three benchmark workloads.

Every workload is an endless sequence of rounds.  A round has a fixed
composition (which subcommands, domains, exponent families and size
strata it holds); the seed chooses the section sizes, partitions, grid
parameters and data inside that composition, and the order of the
reports.  A fixed composition keeps the latency quantiles and the
failure share from jumping between seeds, while every size is still
drawn from its full range.

``muntz`` receives only the config files written by ``write_configs``
and the argv of each report.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from mpmath import mp

WORKLOADS = ("section_sweep", "partition_sweep", "grid")

FAMILIES = {"squares": ("1", "2"), "linear": ("1", "1"), "sqrt": ("1", "0.5")}
DOMAINS = {
    "unit": {
        "intervals": [{"lo": "0", "hi": "1"}],
        "weights": [{"coeff": "1", "power": "0"}],
    },
    "two_piece": {
        "intervals": [{"lo": "0", "hi": "0.5"}, {"lo": "0.6", "hi": "1"}],
        "weights": [{"coeff": "1", "power": "0"}, {"coeff": "2", "power": "0"}],
    },
}
COUNT = 40          # exponents per config; the largest section drawn
VARIANTS = 2        # seeded configs per (domain, family) cell
GRID_POINTS = (201, 501, 1001)

# Expected-exit probes mixed into every section_sweep round.  The last
# three are contract breaks the CLI should reject with exit 2.
PROBES = (
    ("overlap", ["validate"], 2),
    ("max_bits", ["gram", "--N", "40"], 3),
    ("count_abc", ["validate"], 2),
    ("explicit_nan", ["validate"], 2),
    ("target_no_mu", ["expand", "--N", "8"], 2),
)


@dataclass(frozen=True)
class Report:
    """One CLI invocation and what the checks need to judge it."""

    command: str
    argv: Tuple[str, ...]   # without --config
    config: str             # config file stem
    expect: int             # expected exit code
    domain: str = ""
    family: str = ""
    fmt: str = "json"

    def full_argv(self, workdir: Path) -> List[str]:
        return [self.command, *self.argv, "--config", str(workdir / f"{self.config}.json")]


def _cell_configs(rng: random.Random) -> Dict[str, dict]:
    configs = {}
    for dom, block in DOMAINS.items():
        for fam, (c, beta) in FAMILIES.items():
            for v in range(VARIANTS):
                a = mp.mpf(rng.randint(30, 90)) / 100
                scale = mp.mpf(rng.randint(1, 9))
                lams = [mp.mpf(c) * mp.mpf(n) ** mp.mpf(beta) for n in range(1, COUNT + 1)]
                configs[f"{dom}-{fam}-{v}"] = {
                    "domain": block,
                    "exponents": {"kind": "power", "c": c, "beta": beta, "count": COUNT},
                    "precision_bits": 256,
                    "target": {"kind": "pure_power", "mu": f"{rng.randint(5, 400) / 100:.2f}"},
                    "d": [mp.nstr(scale * a ** lam, 30) for lam in lams],
                    "operator": {"kind": "dilation", "rho": f"{rng.randint(30, 80) / 100:.2f}"},
                }
    return configs


def _probe_configs() -> Dict[str, dict]:
    unit = DOMAINS["unit"]
    linear = {"kind": "power", "c": "1", "beta": "1", "count": COUNT}
    return {
        "overlap": {
            "domain": {
                "intervals": [{"lo": "0", "hi": "0.6"}, {"lo": "0.5", "hi": "1"}],
                "weights": [{"coeff": "1", "power": "0"}, {"coeff": "1", "power": "0"}],
            },
            "exponents": linear,
        },
        "max_bits": {"domain": unit, "exponents": linear, "max_precision_bits": 256},
        "count_abc": {
            "domain": unit,
            "exponents": {"kind": "power", "c": "1", "beta": "1", "count": "abc"},
        },
        "explicit_nan": {
            "domain": unit,
            "exponents": {"kind": "explicit", "values": ["1", "2", "x"]},
        },
        "target_no_mu": {"domain": unit, "exponents": linear, "target": {"kind": "pure_power"}},
    }


def write_configs(workdir: Path, seed: int) -> None:
    """Write every config file the workloads reference (same for all three)."""
    workdir.mkdir(parents=True, exist_ok=True)
    with mp.workprec(200):
        configs = _cell_configs(random.Random(f"configs:{seed}"))
    configs.update(_probe_configs())
    for name, cfg in configs.items():
        (workdir / f"{name}.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


def _sizes(rng: random.Random, top: int, lo: int, extra: int) -> List[int]:
    """Strictly increasing section sizes ending at ``top``."""
    below = sorted(rng.sample(range(lo, top), min(extra, top - lo)))
    return below + [top]


def _strata(lo: int, hi: int, k: int) -> List[range]:
    """lo..hi split into k consecutive ranges of near-equal length."""
    size, extra = divmod(hi - lo + 1, k)
    bounds = [lo]
    for j in range(k):
        bounds.append(bounds[-1] + size + (j < extra))
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


class _Latin:
    """Section sizes balanced across cells and rounds.

    Per-report cost grows fast with N and depends on the cell (linear
    and sqrt exponents escalate to 512 bits at large N), so the sizes of
    a round are spread over the range and rotate over the cells, rather
    than being drawn independently: independent draws moved the latency
    quantiles from seed to seed.  The schedule is the same for every
    seed, so runs of a few rounds cover the same (cell, stratum) pairs.

    Cell i of round r draws from stratum (stride * i + r) mod k.
    With k cells and stride 1 every round holds each stratum once; with
    fewer cells a stride spreads them over the range.  Every cell visits
    every stratum once in k rounds.  Inside a stratum the seed fixes an
    order of its sizes, which the rounds walk through, so a run sees
    most sizes of every stratum.
    """

    def __init__(self, rng: random.Random, lo: int, hi: int, k: int, stride: int = 1):
        self.orders = [rng.sample(s, len(s)) for s in _strata(lo, hi, k)]
        self.stride = stride

    def __call__(self, cell: int, rnd: int) -> int:
        order = self.orders[(self.stride * cell + rnd) % len(self.orders)]
        return order[rnd % len(order)]


CELLS = [(d, f) for d in DOMAINS for f in FAMILIES]


def _config(rng: random.Random, cell: int) -> str:
    dom, fam = CELLS[cell % len(CELLS)]
    return f"{dom}-{fam}-{rng.randrange(VARIANTS)}"


def _section_rounds(rng: random.Random) -> Iterator[List[Report]]:
    sized = ("gram", "duals", "distances", "expand", "moments")
    draw = {cmd: _Latin(rng, 8, COUNT, len(CELLS)) for cmd in sized}
    for rnd in itertools.count():
        reports = []
        for cell, (dom, fam) in enumerate(CELLS):
            n = {cmd: draw[cmd](cell, rnd) for cmd in sized}
            argv = {
                "validate": (),
                "gram": ("--N", str(n["gram"])),
                "duals": ("--N", str(n["duals"])),
                "expand": ("--N", str(n["expand"])),
            }
            sizes = _sizes(rng, n["distances"], 2, rng.randint(1, 3))
            argv["distances"] = ("--n", str(rng.randint(1, sizes[0])), "--N-list", _ints(sizes))
            sizes = _sizes(rng, n["moments"], 2, rng.randint(1, 2))
            argv["moments"] = ("--N", str(sizes[-1]), "--N-list", _ints(sizes))
            for cmd, args in argv.items():
                reports.append(Report(cmd, args, _config(rng, cell), 0, dom, fam))
        for name, args, code in PROBES:
            reports.append(Report(args[0], tuple(args[1:]), name, code))
        rng.shuffle(reports)
        yield reports


def _partition_rounds(rng: random.Random) -> Iterator[List[Report]]:
    single = _Latin(rng, 8, 12, 5)
    op = _Latin(rng, 8, 16, 8)
    for rnd in itertools.count():
        reports = []
        for k in range(29):
            dom, fam = CELLS[k % len(CELLS)]
            n = single(k, rnd)
            n2 = sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
            n1 = [i for i in range(1, n + 1) if i not in n2]
            fmt = "csv" if k % 3 == 0 else "json"
            reports.append(Report("hereditary", ("--N", str(n), "--n1", _ints(n1),
                                                 "--n2", _ints(n2), "--format", fmt),
                                  _config(rng, k), 0, dom, fam, fmt))
        for k in range(8):
            cell = (k + rnd) % len(CELLS)
            dom, fam = CELLS[cell]
            reports.append(Report("operator", ("--N", str(op(k, rnd))), _config(rng, cell), 0,
                                  dom, fam))
        # one sweep per size class; every fourth round the largest is N = 8
        for j, n in enumerate((5, 6, 8 if rnd % 4 == 3 else 7)):
            cell = (3 * rnd + j) % len(CELLS)
            dom, fam = CELLS[cell]
            fmt = "json" if n == 5 else "csv"
            reports.append(Report("hereditary", ("--N", str(n), "--sweep", "--format", fmt),
                                  _config(rng, cell), 0, dom, fam, fmt))
        rng.shuffle(reports)
        yield reports


def _grid_rounds(rng: random.Random) -> Iterator[List[Report]]:
    draw = {points: _Latin(rng, 6, 16, 11, stride=2) for points in GRID_POINTS}
    for rnd in itertools.count():
        reports = []
        for cell, (dom, fam) in enumerate(CELLS):
            for points in GRID_POINTS:
                argv = ("--N-list", str(draw[points](cell, rnd)), "--grid-points", str(points),
                        "--rho", f"{rng.randint(30, 100) / 100:.2f}")
                reports.append(Report("remez", argv, _config(rng, cell), 0, dom, fam))
        rng.shuffle(reports)
        yield reports


def rounds(workload: str, seed: int) -> Iterator[List[Report]]:
    """The workload's rounds, in order; the same seed gives the same rounds."""
    make = {"section_sweep": _section_rounds, "partition_sweep": _partition_rounds,
            "grid": _grid_rounds}[workload]
    return make(random.Random(f"{workload}:{seed}"))
