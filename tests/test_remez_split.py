"""The fork-map helper ``series._forked_map`` and its pool of forked
workers: results in index order, pieces claimed one at a time, a worker
that stops at an even share and a slow one that leaves the rest to the
caller, raw values crossing from a worker as ``marshal`` bytes bit for
bit, a piece that holds an error, arrives unreadable or meets a dead
worker recomputed in the caller, and no worker, pipe, token or stale
reply left once the pool stops or a call raises; and the remez grid
split over it, each process bounding the points of its own pieces, bit
for bit the serial value.

The piece functions a test hands to the helper are module-level
generator defs, looked up by name in the worker, with their arguments
passed as ``marshal`` values.  Which process claims which piece depends
on timing, so a test that needs a worker to take part slows the
caller's own pieces (``CALLER_DELAY``).  Every test starts with no worker
alive (the ``fresh_pool`` fixture), so the monkeypatches it makes before
its first split call reach the workers that call starts."""

import builtins
import marshal
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath.libmp import MPZ, finf, fnan, fninf, from_int, from_str, fzero

from muntz import build_weighted_domain, christoffel_remez, gram, power_exponents
from muntz.errors import PrecisionExhausted
import muntz.series as series_module

from oracles import remez_every_point

UNIT = build_weighted_domain([(0, 1)], [(1, 0)])
TWO_PIECE = build_weighted_domain([("0", "0.5"), ("0.6", "1")], [(1, 0), (2, "0.5")])
forked_map = series_module._forked_map
stop_pool = series_module._stop_pool
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
# the affinity call itself, before any test replaces it
REAL_AFFINITY = getattr(os, "sched_getaffinity", None)


def use_cores(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def remez_bits(monkeypatch, g, rho, points, cores):
    use_cores(monkeypatch, cores)
    return christoffel_remez(g, rho, points)._mpf_


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_pool_stops_clean(fds):
    """Stopping the pool leaves the fds ``fds`` open, no claim pipe and
    no child."""
    stop_pool()
    assert series_module._POOL == []
    assert series_module._CLAIMS == []
    assert open_fds() == fds
    assert_no_children()


def assert_no_token_left():
    """The claim pipe of a live pool is empty between calls."""
    with pytest.raises(BlockingIOError):
        os.read(series_module._CLAIMS[0], 4)


def record_dispatches(monkeypatch):
    """The number of workers each split call of this process asks the
    pool for, one entry a call that splits."""
    counts, real = [], series_module._workers

    def record(count):
        counts.append(count)
        return real(count)

    monkeypatch.setattr(series_module, "_workers", record)
    return counts


def fail_fork():
    raise OSError("no more processes")


def flat(fn, *args, count):
    """What ``fn`` gives for 0..count-1 as one span, run here."""
    return [r for part in fn(*args, [(0, count)]) for r in part]


def by_worker(results):
    """The indices whose last value says a worker computed them."""
    return [j for j, r in enumerate(results) if r and r[-1] == from_int(1)]


# -- piece functions, each f(*args, spans), a list yielded per span -------------

# a caller that spends this long on each of its pieces lets a worker wake
# and claim some; a worker wakes within a millisecond or so
CALLER_DELAY = 0.2


def squares(spans):
    """One result per index: [j, j**2] as raw mpfs."""
    for lo, hi in spans:
        yield [[from_int(j), from_int(j * j)] for j in range(lo, hi)]


SQUARES = flat(squares, count=201)


def marked(parent, delay, spans):
    """One result per index: [j, j**2, 1 where a worker computed it],
    each piece of the caller ``delay`` seconds long."""
    for lo, hi in spans:
        if os.getpid() == parent:
            time.sleep(delay)
        yield [[from_int(j), from_int(j * j), from_int(os.getpid() != parent)]
               for j in range(lo, hi)]


def unmarked(results):
    return [r[:2] for r in results]


def slow_worker(parent, spans):
    """``marked``, each piece of a worker a second long and each of the
    caller 0.05 s, so that the worker wakes and claims one."""
    for lo, hi in spans:
        time.sleep(1 if os.getpid() != parent else 0.05)
        yield [[from_int(j), from_int(j * j), from_int(os.getpid() != parent)]
               for j in range(lo, hi)]


def where(parent, spans):
    """One result per piece: its bounds and whether a worker computed it."""
    for lo, hi in spans:
        yield [[from_int(lo), from_int(hi), from_int(os.getpid() != parent)]]


def squares_noting(parent, path, spans):
    """``squares``, each index the caller computes appended to the file
    ``path``, one line each."""
    for lo, hi in spans:
        if os.getpid() == parent:
            with open(path, "a") as out:
                out.writelines(f"{j}\n" for j in range(lo, hi))
        yield from squares([(lo, hi)])


def noted(path):
    return [int(line) for line in Path(path).read_text().split()]


def caller_raises(parent, error, spans):
    """Raises the builtin ``error`` in the caller; a worker is still at
    work when it is stopped."""
    if os.getpid() == parent:
        raise getattr(builtins, error)("caller chunk")
    time.sleep(5)
    yield from squares(spans)


def worker_raises(parent, spans):
    """Raises in a worker as it takes its first piece, once the caller has
    taken its own and slept on it."""
    for lo, hi in spans:
        if os.getpid() != parent:
            raise RuntimeError("worker chunk")
        time.sleep(CALLER_DELAY)
        yield from squares([(lo, hi)])


def worker_dies(parent, spans):
    for lo, hi in spans:
        if os.getpid() != parent:
            os._exit(7)
        time.sleep(CALLER_DELAY)
        yield from squares([(lo, hi)])


RAW = [fzero, finf, fninf, fnan, from_str("-1.25e-300", 256), from_int(-(7 ** 200))]


def raw_values(parent, spans):
    """Odd indices give an empty result; the last value is 1 in a worker;
    the caller takes ``CALLER_DELAY`` over each of its pieces."""
    for lo, hi in spans:
        if os.getpid() == parent:
            time.sleep(CALLER_DELAY)
        yield [[] if j % 2 else [*RAW, from_int(os.getpid() != parent)] for j in range(lo, hi)]


def errors_every_fourth(parent, spans):
    """Index j ends in an error where j % 4 == 3, which says where it was
    computed, and the other values say whether a worker computed them;
    the caller takes ``CALLER_DELAY`` over each of its pieces."""
    here = "worker" if os.getpid() != parent else "caller"
    for lo, hi in spans:
        if here == "caller":
            time.sleep(CALLER_DELAY)
        yield [PrecisionExhausted(f"{j} from the {here}") if j % 4 == 3
               else [from_int(j), from_int(here == "worker")] for j in range(lo, hi)]


def cores_of(parent, spans):
    """One result per piece: the cores its process may run on."""
    for _ in spans:
        if os.getpid() == parent:
            time.sleep(CALLER_DELAY)
        yield [[from_int(c) for c in sorted(REAL_AFFINITY(0))]]


def pid_of(parent, spans):
    """One result per index: the pid that computed it."""
    for lo, hi in spans:
        if os.getpid() == parent:
            time.sleep(CALLER_DELAY)
        yield [[from_int(os.getpid())] for _ in range(lo, hi)]


# -- the remez grid -----------------------------------------------------------

@needs_fork
@pytest.mark.parametrize("wd", [UNIT, TWO_PIECE], ids=["unit", "two_piece"])
@pytest.mark.parametrize("beta", ["2", "1", "1/2"])
def test_split_equals_serial_bits(wd, beta, monkeypatch):
    # one point per chunk allowed, so every grid point past 0 can be a
    # process's own, bounded there; rho = 1.5 lies past r_A = 1 on both
    # domains
    monkeypatch.setattr(series_module, "_MIN_CHUNK_PRODUCTS", 1)
    g = gram(wd, power_exponents(1, beta, 6), 6)
    dispatched = record_dispatches(monkeypatch)
    fds = open_fds()
    for points in (2, 3, 31, 201):
        for rho in ("0.9", "1.5"):
            serial = remez_bits(monkeypatch, g, rho, points, 1)
            for cores in (2, 3, 4):
                dispatched.clear()
                assert remez_bits(monkeypatch, g, rho, points, cores) == serial, (points, rho, cores)
                assert sum(dispatched) == max(1, min(cores, points - 1)) - 1
    assert len(series_module._POOL) == 3
    assert_pool_stops_clean(fds)


@needs_fork
@pytest.mark.parametrize("wd, beta, n, workers",
                         [(UNIT, "1/2", 16, [1, 2]), (TWO_PIECE, "1/2", 16, [1, 2]),
                          (UNIT, "1", 24, [1, 2]), (UNIT, "1/2", 20, [1, 2])],
                         ids=["unit-sqrt-16", "two_piece-sqrt-16", "unit-linear-24",
                              "unit-sqrt-20"])
def test_many_survivors_fork_bit_for_bit(wd, beta, n, workers, monkeypatch):
    # at rho = 0.9 on 1001 points the bounds leave the kernel hundreds of
    # points of the sqrt(n) N = 16 and linear N = 24 grids, and nearly
    # every point at sqrt(n) N = 20; each is split at the library's own
    # floor, which gives a process at least 16 points at N = 16, 10 at
    # N = 20 and 7 at N = 24: the workers used on 2 and 3 cores
    g = gram(wd, power_exponents(1, beta, n), n)
    dispatched, fds = record_dispatches(monkeypatch), open_fds()
    use_cores(monkeypatch, 1)
    serial = christoffel_remez(g, "0.9", 1001)
    assert dispatched == []
    assert serial == remez_every_point(g, "0.9", 1001)
    for cores, used in zip((2, 3), workers):
        use_cores(monkeypatch, cores)
        assert christoffel_remez(g, "0.9", 1001) == serial
        assert dispatched == [used]
        dispatched.clear()
    assert_pool_stops_clean(fds)


def test_each_process_bounds_its_own_points(monkeypatch):
    # one bound pass per process, handed the points of each piece it
    # claims: on one core this process bounds points 1..1000 in one piece;
    # on two the points go as the classes 0, 4, 2, 6, 1, 5, 3, 7 modulo 8,
    # in pieces of the classes {0, 4, 2}, {6, 1, 5}, {3} and {7}, each
    # bounded once by whichever process claims it, and with the fork
    # failing at pool start this process bounds all four, in order
    passes, real = [], series_module._kernel_bounds

    def record(inv_rows, lams, rho, grid_points, bits):
        bound_pass, calls = real(inv_rows, lams, rho, grid_points, bits), []
        passes.append(calls)

        def recorded(points):
            calls.append(list(points))
            return bound_pass(calls[-1])
        return recorded

    def classes(*residues):
        return [j for r in residues for j in range(r or 8, 1001, 8)]

    monkeypatch.setattr(series_module, "_kernel_bounds", record)
    g = gram(UNIT, power_exponents(1, 2, 16), 16)
    serial = remez_bits(monkeypatch, g, "0.9", 1001, 1)
    assert passes == [[list(range(1, 1001))]]
    pieces = [classes(0, 4, 2), classes(6, 1, 5), classes(3), classes(7)]
    passes.clear()
    assert remez_bits(monkeypatch, g, "0.9", 1001, 2) == serial
    (here,) = passes
    assert all(piece in pieces for piece in here) and len(set(map(tuple, here))) == len(here)
    passes.clear()
    stop_pool()
    monkeypatch.setattr(os, "fork", fail_fork, raising=False)
    assert remez_bits(monkeypatch, g, "0.9", 1001, 2) == serial
    assert passes == [pieces]
    assert_no_children()


@pytest.mark.parametrize("points", [1001, 2001])
def test_split_runs_few_kernels_where_the_maximum_sits_in_one_share(points, monkeypatch):
    # sqrt(n) at N = 12, rho = 0.9: the serial pass runs one kernel, near
    # x = 0; contiguous halves ran 18 (1001 points) and 35 (2001), the half
    # without that point stopping only at its own best.  Each residue piece
    # holds points near 0, and the best carries from piece to piece, so the
    # four pieces run two kernels at most
    g = gram(TWO_PIECE, power_exponents(1, "1/2", 12), 12)
    kernels, real = [], series_module._powers

    def count(x, lams, bits):
        kernels.append(1)
        return real(x, lams, bits)

    monkeypatch.setattr(series_module, "_powers", count)
    serial = remez_bits(monkeypatch, g, "0.9", points, 1)
    assert len(kernels) == 1
    kernels.clear()
    monkeypatch.setattr(series_module, "_MIN_CHUNK_PRODUCTS", 1)
    monkeypatch.setattr(os, "fork", fail_fork, raising=False)
    assert remez_bits(monkeypatch, g, "0.9", points, 2) == serial
    assert len(kernels) <= 2
    assert serial == remez_every_point(g, "0.9", points)._mpf_


@needs_fork
def test_fork_failure_at_pool_start_gives_the_serial_bits(monkeypatch):
    # sqrt(n) at N = 16 on 1001 points splits at the library's floor
    g = gram(TWO_PIECE, power_exponents(1, "1/2", 16), 16)
    serial = remez_bits(monkeypatch, g, "0.9", 1001, 1)
    fds = open_fds()
    monkeypatch.setattr(os, "fork", fail_fork)
    for cores in (2, 4):
        assert remez_bits(monkeypatch, g, "0.9", 1001, cores) == serial, cores
        assert series_module._POOL == []
    assert open_fds() == fds
    assert_no_children()


@needs_fork
def test_killed_worker_gives_the_serial_bits(monkeypatch):
    # a worker killed between calls is found dead by the next call, which
    # reaps it and computes its chunk here; the call after starts another
    g = gram(TWO_PIECE, power_exponents(1, "1/2", 16), 16)
    serial = remez_bits(monkeypatch, g, "0.9", 1001, 1)
    fds = open_fds()
    assert remez_bits(monkeypatch, g, "0.9", 1001, 2) == serial
    (first,) = series_module._POOL
    os.kill(first[0], signal.SIGKILL)
    assert remez_bits(monkeypatch, g, "0.9", 1001, 2) == serial
    assert first not in series_module._POOL
    with pytest.raises(ChildProcessError):
        os.waitpid(first[0], os.WNOHANG)
    assert remez_bits(monkeypatch, g, "0.9", 1001, 2) == serial
    assert len(series_module._POOL) == 1
    assert_pool_stops_clean(fds)


@needs_fork
def test_split_remez_leaves_no_worker_after_exit():
    # a process that splits a remez call and exits normally reaps its
    # workers at exit: none of their pids is alive afterwards
    code = "\n".join([
        "import os",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "import muntz.series as series",
        "from muntz import build_weighted_domain, christoffel_remez, gram, power_exponents",
        "g = gram(build_weighted_domain([(0, 1)], [(1, 0)]), power_exponents(1, '1/2', 16), 16)",
        "christoffel_remez(g, '0.9', 1001)",
        "print(*[pid for pid, _, _ in series._POOL])",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(series_module.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    pids = [int(pid) for pid in out.split()]
    assert len(pids) == 1
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# -- the helper ---------------------------------------------------------------

def test_pieces_cut_quarters_of_an_even_share():
    pieces = series_module._pieces
    assert pieces(1000, 1) == [0, 1000]
    assert pieces(1000, 2) == [0, 375, 750, 875, 1000]
    assert pieces(201, 3) == [0, 50, 100, 150, 167, 184, 201]
    # no piece is empty
    assert pieces(3, 2) == [0, 1, 2, 3]
    assert pieces(2, 2) == [0, 1, 2]


def test_claims_end_at_the_share_or_an_empty_pipe():
    # whole tokens, read one at a time: the claims stop once the pieces
    # taken hold the share or more, and leave the rest in the pipe
    bounds = [0, 375, 750, 875, 1000]
    read, write = os.pipe()
    try:
        os.set_blocking(read, False)
        os.write(write, b"".join(k.to_bytes(4, "little") for k in range(4)))
        taken = []
        assert list(series_module._claimed(read, bounds, 500, taken)) == [(0, 375), (375, 750)]
        assert taken == [0, 1]
        taken = []
        assert list(series_module._claimed(read, bounds, 1000, taken)) == [(750, 875),
                                                                          (875, 1000)]
        assert taken == [2, 3]
        assert list(series_module._claimed(read, bounds, 1000, [])) == []
    finally:
        os.close(read)
        os.close(write)


@needs_fork
@pytest.mark.parametrize("cores", [2, 3, 4])
@pytest.mark.parametrize("count", [1, 2, 3, 7, 201])
def test_results_come_in_index_order(cores, count, monkeypatch):
    use_cores(monkeypatch, cores)
    fds = open_fds()
    assert forked_map(squares, (), count, 1) == SQUARES[:count]
    assert len(series_module._POOL) == min(cores, count) - 1
    assert forked_map(squares, (), count, 1) == SQUARES[:count]
    if series_module._POOL:
        assert_no_token_left()
    assert_pool_stops_clean(fds)


def test_chunk_floor_caps_the_processes(monkeypatch):
    # 201 indices hold three processes of at least 64 and so six pieces,
    # 100 indices one process and one piece
    use_cores(monkeypatch, 4)
    parent = os.getpid()
    got = forked_map(where, (parent,), 201, 64)
    assert [piece[:2] for piece in got] == [
        [from_int(lo), from_int(hi)]
        for lo, hi in [(0, 50), (50, 100), (100, 150), (150, 167), (167, 184), (184, 201)]]
    assert all(piece[2] in (from_int(0), from_int(1)) for piece in got)
    assert forked_map(where, (parent,), 100, 64) == [[from_int(0), from_int(100), from_int(0)]]


@needs_fork
def test_a_worker_stops_at_an_even_share(monkeypatch):
    # the caller is slow: the worker claims pieces until it holds half of
    # the indices and leaves the rest to the caller
    use_cores(monkeypatch, 2)
    fds = open_fds()
    got = forked_map(marked, (os.getpid(), CALLER_DELAY), 1000, 1)
    assert unmarked(got) == unmarked(flat(marked, 0, 0, count=1000))
    assert 0 < len(by_worker(got)) <= 500
    assert_pool_stops_clean(fds)


@needs_fork
def test_a_slow_worker_leaves_its_pieces_to_the_caller(monkeypatch):
    # a worker that takes a second a piece holds the one piece it claimed,
    # and the caller runs the other three: the call takes that second, not
    # the two of an even share
    use_cores(monkeypatch, 2)
    start = time.perf_counter()
    got = forked_map(slow_worker, (os.getpid(),), 1000, 1)
    assert time.perf_counter() - start < 1.9
    assert unmarked(got) == unmarked(flat(marked, 0, 0, count=1000))
    assert by_worker(got) in ([list(range(lo, hi))
                               for lo, hi in [(0, 375), (375, 750), (750, 875), (875, 1000)]])
    assert_no_token_left()


@needs_fork
def test_workers_outlive_the_call_and_serve_the_next(monkeypatch):
    # the pool's workers wait for the next call: the same pids compute
    # pieces of the next call, and no fork happens after the first call
    use_cores(monkeypatch, 3)
    fds = open_fds()
    parent = os.getpid()
    first = forked_map(pid_of, (parent,), 3, 1)
    pids = [pid for pid, _, _ in series_module._POOL]
    assert len(pids) == 2 and {r[0] for r in first} <= {from_int(p) for p in [parent, *pids]}
    monkeypatch.setattr(os, "fork", fail_fork)
    second = forked_map(pid_of, (parent,), 3, 1)
    assert [pid for pid, _, _ in series_module._POOL] == pids
    assert {r[0] for r in second} - {from_int(parent)} <= {from_int(p) for p in pids}
    assert len({r[0] for r in second} - {from_int(parent)}) >= 1
    assert forked_map(squares, (), 201, 64) == SQUARES
    assert_pool_stops_clean(fds)


@needs_fork
def test_normal_return_leaves_nothing(monkeypatch):
    # a normal return leaves the worker waiting on its two pipes and the
    # claim pipe open and empty, and nothing once the pool stops
    use_cores(monkeypatch, 2)
    fds = open_fds()
    assert forked_map(squares, (), 201, 64) == SQUARES
    assert len(open_fds()) == len(fds) + 4
    assert_no_token_left()
    assert_pool_stops_clean(fds)


@needs_fork
def test_stopping_a_four_core_pool_leaves_nothing(monkeypatch):
    use_cores(monkeypatch, 4)
    fds = open_fds()
    assert forked_map(squares, (), 201, 1) == SQUARES
    pids = [pid for pid, _, _ in series_module._POOL]
    assert len(pids) == 3
    start = time.perf_counter()
    assert_pool_stops_clean(fds)
    assert time.perf_counter() - start < 5
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@needs_fork
@pytest.mark.parametrize("error", ["RuntimeError", "KeyboardInterrupt"])
def test_parent_error_stops_children(error, monkeypatch):
    # the caller's own piece raises while both workers are at work: they
    # get SIGTERM and are reaped before the error propagates, so no
    # worker, fd, token or reply is left, and the next call starts a new
    # pool
    statuses, waitpid = [], os.waitpid

    def record(pid, options):
        got = waitpid(pid, options)
        statuses.append(got[1])
        return got

    monkeypatch.setattr(os, "waitpid", record)
    use_cores(monkeypatch, 4)
    fds = open_fds()
    with pytest.raises(getattr(builtins, error), match="caller chunk"):
        forked_map(caller_raises, (os.getpid(), error), 201, 64)
    assert len(statuses) == 2
    assert all(os.WIFSIGNALED(st) and os.WTERMSIG(st) == signal.SIGTERM for st in statuses)
    assert series_module._POOL == []
    assert series_module._CLAIMS == []
    assert open_fds() == fds
    assert_no_children()
    assert forked_map(squares, (), 201, 64) == SQUARES
    assert_pool_stops_clean(fds)


@needs_fork
def test_failed_child_chunk_is_recomputed(monkeypatch):
    # a piece that raises in the worker is left out of its reply and runs
    # again here; the worker stays in the pool and serves the next call
    parent = os.getpid()
    use_cores(monkeypatch, 2)
    fds = open_fds()
    assert forked_map(worker_raises, (parent,), 201, 64) == SQUARES
    (worker,) = series_module._POOL
    got = forked_map(marked, (parent, CALLER_DELAY), 201, 64)
    assert unmarked(got) == SQUARES and by_worker(got)
    assert series_module._POOL == [worker]
    assert_pool_stops_clean(fds)


@needs_fork
def test_non_zero_exit_discards_what_the_child_wrote(monkeypatch, tmp_path):
    # a worker that exits 7 in its first piece sends no reply: it is
    # reaped, what it claimed recomputed here, and the next call starts
    # another, which takes part
    parent, path = os.getpid(), str(tmp_path / "indices")
    use_cores(monkeypatch, 2)
    fds = open_fds()
    assert forked_map(worker_dies, (parent,), 201, 64) == SQUARES
    assert series_module._POOL == []
    assert open_fds() == fds
    assert_no_children()
    got = forked_map(marked, (parent, CALLER_DELAY), 201, 64)
    assert unmarked(got) == SQUARES and by_worker(got)
    assert_pool_stops_clean(fds)


@needs_fork
def test_raw_values_cross_bit_for_bit(monkeypatch):
    use_cores(monkeypatch, 2)
    fds = open_fds()
    got = forked_map(raw_values, (os.getpid(),), 4, 2)
    assert got[1] == [] and got[3] == []
    assert all(got[j][:-1] == RAW for j in (0, 2))
    from_worker = [got[j] for j in (0, 2) if got[j][-1] == from_int(1)]
    assert from_worker
    assert all(type(m) is MPZ for r in from_worker for _, m, _, _ in r)
    assert_pool_stops_clean(fds)


@needs_fork
def test_raw_arguments_cross_bit_for_bit(monkeypatch):
    # a worker gets the arguments of the call as the caller has them
    use_cores(monkeypatch, 2)
    assert forked_map(raw_echo, (RAW, 3), 2, 1) == [[*RAW, from_int(3)]] * 2


def raw_echo(values, extra, spans):
    for lo, hi in spans:
        yield [[*values, from_int(int(extra))] for _ in range(lo, hi)]


@needs_fork
@pytest.mark.parametrize("cores", [2, 3, 4])
def test_error_chunks_are_recomputed_here(cores, monkeypatch):
    # every piece holds an index j % 4 == 3, so a worker leaves out the
    # first piece it claims, and every error comes from the caller
    use_cores(monkeypatch, cores)
    fds = open_fds()
    count = 16 * cores
    got = forked_map(errors_every_fourth, (os.getpid(),), count, 2)
    assert [(type(r), str(r)) if isinstance(r, PrecisionExhausted) else r[0] for r in got] == [
        (PrecisionExhausted, f"{j} from the caller") if j % 4 == 3 else from_int(j)
        for j in range(count)]
    assert all(r[1] == from_int(0) for r in got if not isinstance(r, PrecisionExhausted))
    assert len(series_module._POOL) == cores - 1
    assert_pool_stops_clean(fds)


@needs_fork
@pytest.mark.parametrize("sent", [b"", b"\x00", marshal.dumps(7), marshal.dumps([[(1, 2)]])],
                         ids=["empty", "bad_code", "not_a_list", "short_value"])
def test_unreadable_bytes_are_recomputed(sent, monkeypatch, tmp_path):
    # the worker replies with bytes that marshal.loads rejects or that do
    # not unpack into pieces of raw mpfs; the caller's own marshal is
    # untouched, and the caller computes every index
    parent, path, real = os.getpid(), str(tmp_path / "indices"), marshal.dumps
    monkeypatch.setattr(marshal, "dumps",
                        lambda value: real(value) if os.getpid() == parent else sent)
    use_cores(monkeypatch, 2)
    fds = open_fds()
    assert forked_map(squares_noting, (parent, path), 201, 64) == SQUARES
    assert sorted(noted(path)) == list(range(201))
    assert len(series_module._POOL) == 1
    assert_pool_stops_clean(fds)


@needs_fork
def test_workers_ignore_sigint(monkeypatch):
    use_cores(monkeypatch, 2)
    assert forked_map(squares, (), 201, 64) == SQUARES
    (worker,) = series_module._POOL
    os.kill(worker[0], signal.SIGINT)
    got = forked_map(pid_of, (os.getpid(),), 2, 1)
    assert [from_int(worker[0])] in got
    assert series_module._POOL == [worker]


@needs_fork
def test_a_forked_child_closes_the_pool_fds_and_runs_serially(monkeypatch):
    use_cores(monkeypatch, 2)
    assert forked_map(squares, (), 201, 64) == SQUARES
    (worker,) = series_module._POOL
    claims = list(series_module._CLAIMS)
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            closed = 0
            for fd in [*worker[1:], *claims]:
                try:
                    os.fstat(fd)
                except OSError:
                    closed += 1
            child = os.getpid()
            serial = forked_map(where, (child,), 201, 64) == [
                [from_int(0), from_int(201), from_int(0)]]
            status = 0 if (closed == 4 and series_module._POOL == []
                           and series_module._CLAIMS == [] and serial) else 1
        finally:
            os._exit(status)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert series_module._POOL == [worker]
    assert forked_map(squares, (), 201, 64) == SQUARES


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable cores")
def test_children_run_on_the_other_cores(monkeypatch):
    other_cores = series_module._other_cores
    cores = sorted(REAL_AFFINITY(0))
    others = other_cores()
    assert len(others) == len(cores) - 1 and set(others) < set(cores)
    monkeypatch.setattr(series_module, "_other_cores", lambda: cores[1:])
    use_cores(monkeypatch, 2)
    fds = open_fds()
    # two pieces of one index: the slow caller takes one, the worker the other
    got = forked_map(cores_of, (os.getpid(),), 2, 1)
    assert sorted(got) == sorted([[from_int(c) for c in cores], [from_int(cores[1])]])
    assert REAL_AFFINITY(0) == set(cores)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert other_cores() == []
    assert_pool_stops_clean(fds)


def test_fork_failure_runs_serially(monkeypatch):
    monkeypatch.setattr(os, "fork", fail_fork, raising=False)
    use_cores(monkeypatch, 4)
    fds = open_fds()
    assert forked_map(squares, (), 201, 1) == SQUARES
    assert series_module._POOL == []
    assert series_module._CLAIMS == []
    assert open_fds() == fds
    assert_no_children()


def test_arguments_marshal_cannot_write_run_serially(monkeypatch):
    def fork():
        raise AssertionError("forked for arguments no worker can read")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    use_cores(monkeypatch, 4)
    # a Fraction, as a mantissa marshal cannot write would be
    assert forked_map(raw_echo, (RAW, Fraction(3)), 4, 1) == [[*RAW, from_int(3)]] * 4


def test_missing_fork_runs_serially(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    use_cores(monkeypatch, 4)
    assert forked_map(squares, (), 201, 1) == SQUARES


def test_single_core_never_forks(monkeypatch):
    def fork():
        raise AssertionError("forked on a single-core host")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    use_cores(monkeypatch, 1)
    assert forked_map(squares, (), 1001, 1) == flat(squares, count=1001)


def test_cores_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert series_module._usable_cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert series_module._usable_cores() == 1
