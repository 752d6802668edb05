#!/usr/bin/env python3
"""End-to-end benchmark of the muntz CLI, run in-process through ``cli.run``.

    python3 bench/run.py --workload section_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one table each
    python3 bench/run.py --workload all --trace 1  # per-layer metrics and tracing overhead

One single-threaded closed-loop client sends the next report when the
previous one returns: the library sets the process-global ``mp.prec``
and is not thread-safe.  With ``--trace 0`` it runs a whole number of
rounds, sized so that their busy time is about ``--seconds`` on the
reference host, and prints the end-to-end metrics.  The run's size never
depends on how fast the host is, so a seed and ``--seconds`` fix every
report, and the attempted and failed counts with them.  With
``--trace 1`` it runs a fixed number of rounds per workload, whatever
``--seconds`` says, each report once untraced and once traced, prints the
per-layer metrics and the tracing overhead, and writes the spans to
``bench/out/``.  The last line of
standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional, Set, Tuple

import mpmath
from mpmath import mp

import checks
import workloads
from probe import load_cli, setup

BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
OUT = BENCH / "out"

# An idle core runs slow for its first second or so of work (a fixed
# kernel took 1.5-1.7x its warm time), so every run spins first.
WARM_UP_SECONDS = 1.5
SETUP_SAMPLES = 15
# Host speed is sampled after every HOST_EVERY busy seconds; scaled
# times read as if the kernel took HOST_NOMINAL_MS, its time on an idle
# core of the 2-core x86 host the benchmark was tuned on.
HOST_EVERY = 0.1
HOST_NOMINAL_MS = 7.0
RECHECK_REPORTS = 8
# Rounds of a --trace 0 run per NOMINAL_SECONDS of --seconds: about that
# much busy time on the 2-core x86 host the benchmark was tuned on.
NOMINAL_SECONDS = 30.0
RUN_ROUNDS = {"section_sweep": 5, "partition_sweep": 7, "grid": 6}
# Rounds of the traced pass, so that its counts depend on the seed alone.
TRACE_ROUNDS = {"section_sweep": 2, "partition_sweep": 3, "grid": 2}
# Past this much wall time a run skips its remaining reports, so that it
# ends within its 180 s limit even on a host four times slower than the
# tuning host.
WALL_LIMIT_SECONDS = 140.0


def setup_sample(workload: str, seed: int, i: int) -> Tuple[float, float]:
    """Set-up time of a fresh interpreter, as (raw, scaled).

    ``probe.py`` times its own import of ``muntz`` (with mpmath) and the
    config generation; interpreter start-up is not counted.  The time is
    scaled by the host speed the probe then measures itself, since it
    may run on the other core."""
    workdir = WORK / f"probe-{os.getpid()}-{i}"
    cmd = [sys.executable, str(BENCH / "probe.py"), str(workdir), workload, str(seed)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit("bench: set-up probe failed")
    elapsed, host = map(float, proc.stdout.split())
    return elapsed, elapsed * HOST_NOMINAL_MS / host


def warm_up() -> None:
    end = perf_counter() + WARM_UP_SECONDS
    while perf_counter() < end:
        pass


def kernel_ms() -> float:
    """One run of a fixed pure-mpmath kernel that calls no muntz code:
    the same big-float matrix work the Gram layers do, at a fixed size."""
    start = perf_counter()
    with mp.workprec(256):
        m = mp.hilbert(12) + mp.eye(12)
        mp.cholesky(m)
        mp.lu_solve(m, mp.matrix([1] * 12))
    return (perf_counter() - start) * 1000.0


class HostClock:
    """Host speed, sampled between reports.

    On a shared 2-core x86 VM the host speed swung by up to 1.8x within
    seconds, so every timed sample is scaled by HOST_NOMINAL_MS over the
    mean of the kernel times taken just before and just after it.  In a
    90 s test there the muntz-to-kernel time ratio varied 4% (quartile
    spread) where the raw muntz time varied 27%.
    """

    def __init__(self):
        self.at = []    # busy seconds at each sample
        self.ms = []

    def tick(self, busy: float, force: bool = False) -> None:
        if force or not self.at or busy - self.at[-1] >= HOST_EVERY:
            self.at.append(busy)
            self.ms.append(kernel_ms())

    def scale(self, busy: float) -> float:
        """Factor for a sample that started at ``busy`` seconds."""
        i = bisect.bisect_right(self.at, busy) - 1
        near = self.ms[max(i, 0):i + 2]
        return HOST_NOMINAL_MS * len(near) / sum(near)


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by a beta density peaked at p.  It varies less
    between runs than the one or two order statistics it replaces."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], x))


def host_ref_ms() -> float:
    """Median of three kernel runs."""
    return statistics.median(kernel_ms() for _ in range(3))


@dataclass
class Outcome:
    latency: float
    code: Optional[int]
    raised: Optional[str]
    stdout: str

    def digest(self) -> bytes:
        head = f"{self.code}|{self.raised}\n".encode()
        return hashlib.sha256(head + self.stdout.encode()).digest()


@dataclass
class Record:
    """A judged report; the report bytes are kept only as their digest."""

    rep: workloads.Report
    latency: float
    digest: bytes
    misses: Set[str] = field(default_factory=set)
    wrong: bool = False


def invoke(cli, rep: workloads.Report, workdir: Path) -> Outcome:
    argv = rep.full_argv(workdir)
    out, err = io.StringIO(), io.StringIO()
    raised = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.run(argv)
        except Exception as exc:  # a raise out of run breaks the exit-code contract
            raised = type(exc).__name__
        latency = perf_counter() - start
    return Outcome(latency, code, raised, out.getvalue())


def judged(rep, outcome: Outcome) -> Record:
    misses, wrong = checks.judge(rep, outcome.code, outcome.raised, outcome.stdout)
    return Record(rep, outcome.latency, outcome.digest(), misses, wrong)


def round_digest(records, size: int) -> str:
    """SHA-256 over the report bytes of the first round, in order."""
    if len(records) < size:
        return "incomplete"
    h = hashlib.sha256()
    for rec in records[:size]:
        h.update(rec.digest)
    return h.hexdigest()


def recheck(cli, records, seed: int, workdir: Path) -> int:
    """Re-run a seeded subset and compare report bytes; returns the count re-run."""
    chosen = random.Random(f"recheck:{seed}").sample(records, min(RECHECK_REPORTS, len(records)))
    for rec in chosen:
        if invoke(cli, rec.rep, workdir).digest() != rec.digest:
            rec.misses.add("nondeterministic")
    return len(chosen)


def take(first, rounds, n_rounds: int):
    """The reports of the first ``n_rounds`` rounds, in order."""
    return first + [rep for _ in range(n_rounds - 1) for rep in next(rounds)]


def check_counts(records):
    return {cat: sum(cat in r.misses for r in records) for cat in checks.CATEGORIES}


def print_checks(records, counts) -> None:
    """Failure counts per category, split by subcommand, then every wrong answer."""
    for cat, total in counts.items():
        by_command = collections.Counter(r.rep.command for r in records if cat in r.misses)
        detail = ", ".join(f"{cmd} {n}" for cmd, n in sorted(by_command.items()))
        print(f"check.{cat:<17}{total}" + (f"  ({detail})" if detail else ""))
    wrong = [r for r in records if r.wrong]
    print(f"wrong answers  {len(wrong)}")
    for r in wrong:
        print(f"  wrong: {r.rep.command} {' '.join(r.rep.argv)}  [{r.rep.config}]")


def result_line(records, metrics) -> None:
    print(json.dumps({
        "correct": not any(r.wrong for r in records),
        "attempted": len(records),
        "failed": sum(bool(r.misses) for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def timed(cli, workload, seed, seconds, workdir, first, rounds) -> None:
    n_rounds = max(1, round(RUN_ROUNDS[workload] * seconds / NOMINAL_SECONDS))
    reps = take(first, rounds, n_rounds)
    clock = HostClock()
    records, starts, setup = [], [], []
    busy = 0.0
    wall_start = perf_counter()
    for i, rep in enumerate(reps):
        if perf_counter() - wall_start > WALL_LIMIT_SECONDS:
            break
        clock.tick(busy)
        # set-up samples are spread over the run, so that they see the
        # same host as the reports do
        if len(setup) < SETUP_SAMPLES and len(setup) * len(reps) <= SETUP_SAMPLES * i:
            setup.append(setup_sample(workload, seed, len(setup)))
        outcome = invoke(cli, rep, workdir)
        starts.append(busy)
        busy += outcome.latency
        records.append(judged(rep, outcome))
    clock.tick(busy, force=True)
    rechecked = recheck(cli, records, seed, workdir)

    raw = [r.latency for r in records]
    lat = [t * clock.scale(b) for t, b in zip(raw, starts)]
    failed = sum(bool(r.misses) for r in records)
    metrics = {
        "latency_p50_ms": (quantile(lat, 0.5) * 1000.0, "ms"),
        "latency_p90_ms": (quantile(lat, 0.9) * 1000.0, "ms"),
        "reports_per_s": (len(lat) / sum(lat), "1/s"),
        "ok_frac": (1.0 - failed / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
    }
    print(f"== {workload}  seed={seed}  trace=0  closed loop, 1 client, "
          f"{n_rounds} rounds ({len(reps)} reports, sized for {seconds:g} s busy; "
          f"took {busy:.1f} s)")
    print(f"reports        {len(records)} attempted, {failed} failed "
          f"(failed_frac {failed / len(records):.4f}); latency quantiles over {len(lat)} samples")
    for name, (value, unit) in metrics.items():
        print(f"{name:<15}{value:.6g} {unit}")
    print(f"unscaled       p50 {quantile(raw, 0.5) * 1000.0:.6g} ms  "
          f"p90 {quantile(raw, 0.9) * 1000.0:.6g} ms  {len(raw) / busy:.6g} reports/s  "
          f"setup {statistics.median(t for t, _ in setup):.6g} s")
    print(f"host_ref_ms    start {clock.ms[0]:.2f}  end {clock.ms[-1]:.2f}  "
          f"median {statistics.median(clock.ms):.2f} over {len(clock.ms)} samples")
    print_checks(records, check_counts(records))
    print(f"recheck        {rechecked} reports re-run for byte equality")
    print(f"report_digest  sha256:{round_digest(records, len(first))} "
          f"(first round, {len(first)} reports)")
    result_line(records, metrics)


def traced(cli, workload, seed, workdir, first, rounds) -> None:
    from tracer import Tracer

    tracer = Tracer()
    n_rounds = TRACE_ROUNDS[workload]
    reps = take(first, rounds, n_rounds)
    ref_start = host_ref_ms()
    records = []
    plain_busy = traced_busy = 0.0
    for i, rep in enumerate(reps):
        # alternate which pass goes first so that warm caches favour neither
        for traced_pass in ((False, True) if i % 2 else (True, False)):
            if traced_pass:
                with tracer.tracing(i):
                    seen = invoke(cli, rep, workdir)
                traced_busy += seen.latency
            else:
                plain = invoke(cli, rep, workdir)
                plain_busy += plain.latency
        rec = judged(rep, seen)
        if seen.digest() != plain.digest():
            rec.misses.add("nondeterministic")
        records.append(rec)
    ref_end = host_ref_ms()

    spans = OUT / f"spans-{workload}-seed{seed}.tsv"
    tracer.write(spans)
    metrics = tracer.metrics()
    counts = check_counts(records)
    metrics.update({f"check.{k}": (v, "count") for k, v in counts.items()})
    metrics["trace.overhead"] = (traced_busy / plain_busy - 1.0, "ratio")
    print(f"== {workload}  seed={seed}  trace=1  {len(reps)} reports ({n_rounds} rounds), "
          f"each run untraced and traced")
    for name, (value, unit) in metrics.items():
        print(f"{name:<42}{value:.6g} {unit}")
    print_checks(records, counts)
    print(f"busy_s         untraced {plain_busy:.3f}  traced {traced_busy:.3f}")
    print(f"host_ref_ms    start {ref_start:.2f}  end {ref_end:.2f}")
    print(f"spans          {len(tracer.spans)} written to {spans.relative_to(BENCH.parent)}")
    print(f"report_digest  sha256:{round_digest(records, len(first))} "
          f"(first round, {len(first)} reports)")
    result_line(records, metrics)


def run_all(args) -> None:
    """Each workload in its own fresh process, one table each."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.environ.pop("MUNTZ_PRECISION_BITS", None)

    if args.workload == "all":
        load_cli()
        run_all(args)
        return

    warm_up()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli, first, rounds = setup(args.workload, args.seed, workdir)
        if args.trace:
            traced(cli, args.workload, args.seed, workdir, first, rounds)
        else:
            timed(cli, args.workload, args.seed, args.seconds, workdir, first, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
