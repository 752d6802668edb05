"""Set-up of one benchmark process, and a probe that times it.

    python3 bench/probe.py WORKDIR WORKLOAD SEED

The probe times, from its own first line, the import of ``muntz`` (with
mpmath) and the generation of the seeded configs and first round, and
prints that time in seconds and then the host-speed kernel time in ms.
Interpreter start-up is not counted.  This module imports nothing heavy
at its top, so that the import it times is not done before.
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def load_cli():
    """Import ``muntz.cli`` from the checkout's sources, and from nowhere else."""
    if not (SRC / "muntz" / "__init__.py").is_file():
        raise SystemExit(f"bench: no muntz sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import muntz.cli

    if Path(muntz.cli.__file__).resolve().parent != SRC / "muntz":
        raise SystemExit(f"bench: imported muntz from {muntz.cli.__file__}, not {SRC}")
    return muntz.cli


def setup(workload: str, seed: int, workdir: Path):
    """Everything before the first timed report: import, configs, first round."""
    cli = load_cli()
    import workloads

    workloads.write_configs(workdir, seed)
    rounds = workloads.rounds(workload, seed)
    return cli, next(rounds), rounds


if __name__ == "__main__":
    workdir, workload, seed = sys.argv[1:]
    setup(workload, int(seed), Path(workdir))
    elapsed = perf_counter() - START
    from run import host_ref_ms

    print(elapsed, host_ref_ms())
