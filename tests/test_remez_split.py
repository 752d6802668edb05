"""The fork-map helper ``series._forked_map``: results in index order,
raw values crossing from a child as ``marshal`` bytes bit for bit, a
chunk that holds an error or arrives unreadable recomputed in the
caller, and no process or pipe outliving a call; and the remez grid
split over it, each process bounding its own points, bit for bit the
serial value."""

import marshal
import os
import signal
import time

import pytest
from mpmath.libmp import MPZ, finf, fnan, fninf, from_int, from_str, fzero

from muntz import build_weighted_domain, christoffel_remez, gram, power_exponents
from muntz.errors import PrecisionExhausted
import muntz.series as series_module

from oracles import remez_every_point

UNIT = build_weighted_domain([(0, 1)], [(1, 0)])
TWO_PIECE = build_weighted_domain([("0", "0.5"), ("0.6", "1")], [(1, 0), (2, "0.5")])
forked_map = series_module._forked_map


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


def squares(lo, hi):
    """One result per index: [j, j**2] as raw mpfs."""
    return [[from_int(j), from_int(j * j)] for j in range(lo, hi)]


SQUARES = squares(0, 201)


def record_waits(monkeypatch, convert=lambda status: status):
    statuses = []
    waitpid = os.waitpid

    def record(pid, options):
        got = waitpid(pid, options)
        statuses.append(convert(got[1]))
        return got

    monkeypatch.setattr(os, "waitpid", record)
    return statuses


def fail_fork():
    raise OSError("no more processes")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("wd", [UNIT, TWO_PIECE], ids=["unit", "two_piece"])
@pytest.mark.parametrize("beta", ["2", "1", "1/2"])
def test_split_equals_serial_bits(wd, beta, monkeypatch):
    # one point per chunk allowed, so every grid point past 0 can be a
    # process of its own, bounded there; rho = 1.5 lies past r_A = 1 on
    # both domains
    monkeypatch.setattr(series_module, "_MIN_CHUNK_PRODUCTS", 1)
    g = gram(wd, power_exponents(1, beta, 6), 6)
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    for points in (2, 3, 31, 201):
        for rho in ("0.9", "1.5"):
            serial = remez_bits(monkeypatch, g, rho, points, 1)
            for cores in (2, 3, 4):
                forks.clear()
                assert remez_bits(monkeypatch, g, rho, points, cores) == serial, (points, rho, cores)
                assert len(forks) == max(1, min(cores, points - 1)) - 1
    assert_no_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("wd, beta, n, children",
                         [(UNIT, "1/2", 16, [1, 1]), (TWO_PIECE, "1/2", 16, [1, 1]),
                          (UNIT, "1", 24, [1, 2]), (UNIT, "1/2", 20, [1, 2])],
                         ids=["unit-sqrt-16", "two_piece-sqrt-16", "unit-linear-24",
                              "unit-sqrt-20"])
def test_many_survivors_fork_bit_for_bit(wd, beta, n, children, monkeypatch):
    # at rho = 0.9 on 1001 points the bounds leave the kernel hundreds of
    # points of the sqrt(n) N = 16 and linear N = 24 grids, and nearly
    # every point at sqrt(n) N = 20; each is forked at the library's own
    # floor, which gives a process at least 482 points at N = 16, 313 at
    # N = 20 and 219 at N = 24: the children forked on 2 and 3 cores
    g = gram(wd, power_exponents(1, beta, n), n)
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    use_cores(monkeypatch, 1)
    serial = christoffel_remez(g, "0.9", 1001)
    assert forks == []
    assert serial == remez_every_point(g, "0.9", 1001)
    for cores, forked in zip((2, 3), children):
        use_cores(monkeypatch, cores)
        assert christoffel_remez(g, "0.9", 1001) == serial
        assert len(forks) == forked
        forks.clear()
    assert_no_children()


def test_each_process_bounds_its_own_points(monkeypatch):
    # one bound call per process, over that process's residue share alone:
    # on one core this process bounds points 1..1000 once; on two it bounds
    # the even points and the child the odd ones (at N = 16 a process takes
    # at least 482 points), and with the fork failing this process bounds
    # both shares, every point once
    calls, real = [], series_module._kernel_bounds

    def record(inv_rows, lams, rho, grid_points, points, bits):
        calls.append(list(points))
        return real(inv_rows, lams, rho, grid_points, points, bits)

    monkeypatch.setattr(series_module, "_kernel_bounds", record)
    g = gram(UNIT, power_exponents(1, 2, 16), 16)
    serial = remez_bits(monkeypatch, g, "0.9", 1001, 1)
    assert calls == [list(range(1, 1001))]
    evens, odds = list(range(2, 1001, 2)), list(range(1, 1001, 2))
    calls.clear()
    assert remez_bits(monkeypatch, g, "0.9", 1001, 2) == serial
    assert calls == ([evens] if hasattr(os, "fork") else [evens, odds])
    calls.clear()
    monkeypatch.setattr(os, "fork", fail_fork, raising=False)
    assert remez_bits(monkeypatch, g, "0.9", 1001, 2) == serial
    assert calls == [evens, odds]
    assert_no_children()


@pytest.mark.parametrize("points", [1001, 2001])
def test_split_runs_few_kernels_where_the_maximum_sits_in_one_share(points, monkeypatch):
    # sqrt(n) at N = 12, rho = 0.9: the serial pass runs one kernel, near
    # x = 0; contiguous halves ran 18 (1001 points) and 35 (2001), the half
    # without that point stopping only at its own best.  Each residue share
    # holds points near 0, so the split runs one kernel a share
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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("cores", [2, 3, 4])
@pytest.mark.parametrize("count", [1, 2, 3, 7, 201])
def test_results_come_in_index_order(cores, count, monkeypatch):
    use_cores(monkeypatch, cores)
    assert forked_map(squares, count, 1) == SQUARES[:count]
    assert_no_children()


def test_chunk_floor_caps_the_processes(monkeypatch):
    parent = os.getpid()

    def chunks(lo, hi):
        # one result per chunk: its bounds and whether a child computed it
        return [[from_int(lo), from_int(hi), from_int(os.getpid() != parent)]]

    use_cores(monkeypatch, 4)
    # 201 indices hold three chunks of at least 64, 100 indices one
    forked = hasattr(os, "fork")
    assert forked_map(chunks, 201, 64) == [[from_int(v) for v in chunk] for chunk in
                                           [(0, 67, 0), (67, 134, forked), (134, 201, forked)]]
    assert forked_map(chunks, 100, 64) == [[from_int(0), from_int(100), from_int(0)]]


def test_normal_return_leaves_nothing(monkeypatch):
    use_cores(monkeypatch, 2)
    fds = open_fds()
    assert forked_map(squares, 201, 64) == SQUARES
    assert open_fds() == fds
    assert_no_children()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_parent_error_stops_children(error, monkeypatch):
    parent = os.getpid()

    def chunk(lo, hi):
        if os.getpid() == parent:
            raise error("parent chunk")
        time.sleep(5)  # each child is still at work when stopped
        return squares(lo, hi)

    statuses = record_waits(monkeypatch)
    use_cores(monkeypatch, 4)
    fds = open_fds()
    with pytest.raises(error, match="parent chunk"):
        forked_map(chunk, 201, 64)
    assert len(statuses) == (2 if hasattr(os, "fork") else 0)
    assert all(os.WIFSIGNALED(st) and os.WTERMSIG(st) == signal.SIGTERM for st in statuses)
    assert open_fds() == fds
    assert_no_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_failed_child_chunk_is_recomputed(monkeypatch):
    parent = os.getpid()

    def chunk(lo, hi):
        if os.getpid() != parent:
            raise RuntimeError("child chunk")
        return squares(lo, hi)

    statuses = record_waits(monkeypatch, os.waitstatus_to_exitcode)
    use_cores(monkeypatch, 2)
    fds = open_fds()
    assert forked_map(chunk, 201, 64) == SQUARES
    assert statuses == [1]
    assert open_fds() == fds
    assert_no_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_non_zero_exit_discards_what_the_child_wrote(monkeypatch):
    parent = os.getpid()
    parent_indices = []
    real_exit = os._exit

    def chunk(lo, hi):
        if os.getpid() == parent:
            parent_indices.extend(range(lo, hi))
        return squares(lo, hi)

    monkeypatch.setattr(os, "_exit", lambda status: real_exit(7))
    use_cores(monkeypatch, 2)
    assert forked_map(chunk, 201, 64) == SQUARES
    assert parent_indices == list(range(201))
    assert_no_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_raw_values_cross_bit_for_bit(monkeypatch):
    parent = os.getpid()
    raw = [fzero, finf, fninf, fnan, from_str("-1.25e-300", 256), from_int(-(7 ** 200))]

    def chunk(lo, hi):
        # odd indices give an empty result; the last value is 1 in a child
        return [[] if j % 2 else [*raw, from_int(os.getpid() != parent)] for j in range(lo, hi)]

    use_cores(monkeypatch, 2)
    got = forked_map(chunk, 4, 2)
    assert got == [[*raw, from_int(0)], [], [*raw, from_int(1)], []]
    assert all(type(m) is MPZ for _, m, _, _ in got[2])
    assert_no_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("cores", [2, 3, 4])
def test_error_chunks_are_recomputed_here(cores, monkeypatch):
    # chunk k holds indices 2k and 2k + 1; every odd chunk ends in an
    # error, and the values say whether a child computed them
    parent = os.getpid()

    def chunk(lo, hi):
        where = "child" if os.getpid() != parent else "caller"
        return [PrecisionExhausted(f"{j} from the {where}") if j % 4 == 3
                else [from_int(j), from_int(where == "child")] for j in range(lo, hi)]

    statuses = record_waits(monkeypatch, os.waitstatus_to_exitcode)
    use_cores(monkeypatch, cores)
    fds = open_fds()
    got = forked_map(chunk, 2 * cores, 2)
    assert [(type(r), str(r)) if isinstance(r, PrecisionExhausted) else r for r in got] == [
        (PrecisionExhausted, f"{j} from the caller") if j % 4 == 3
        else [from_int(j), from_int(j // 2 % 2 == 0 and j > 1)] for j in range(2 * cores)]
    assert statuses == [k % 2 for k in range(1, cores)]
    assert open_fds() == fds
    assert_no_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("sent", [b"", b"\x00", marshal.dumps(7), marshal.dumps([[(1, 2)]])],
                         ids=["empty", "bad_code", "not_a_list", "short_value"])
def test_unreadable_bytes_are_recomputed(sent, monkeypatch):
    # the child exits 0 after writing bytes that marshal.loads rejects or
    # that do not unpack into raw mpfs
    parent = os.getpid()
    parent_indices = []

    def chunk(lo, hi):
        if os.getpid() == parent:
            parent_indices.extend(range(lo, hi))
        return squares(lo, hi)

    statuses = record_waits(monkeypatch, os.waitstatus_to_exitcode)
    use_cores(monkeypatch, 2)
    monkeypatch.setattr(marshal, "dumps", lambda value: sent)
    assert forked_map(chunk, 201, 64) == SQUARES
    assert statuses == [0]
    assert parent_indices == list(range(201))
    assert_no_children()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable cores")
def test_children_run_on_the_other_cores(monkeypatch):
    real = os.sched_getaffinity

    def chunk(lo, hi):
        # the cores each chunk's process may run on
        return [[from_int(c) for c in sorted(real(0))]]

    other_cores = series_module._other_cores
    cores = sorted(real(0))
    others = other_cores()
    assert len(others) == len(cores) - 1 and set(others) < set(cores)
    monkeypatch.setattr(series_module, "_other_cores", lambda: cores[1:])
    use_cores(monkeypatch, 2)
    got = forked_map(chunk, 2, 1)
    assert got == [[from_int(c) for c in cores], [from_int(cores[1])]]
    assert real(0) == set(cores)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert other_cores() == []
    assert_no_children()


def test_fork_failure_runs_serially(monkeypatch):
    monkeypatch.setattr(os, "fork", fail_fork, raising=False)
    use_cores(monkeypatch, 4)
    fds = open_fds()
    assert forked_map(squares, 201, 1) == SQUARES
    assert open_fds() == fds
    assert_no_children()


def test_missing_fork_runs_serially(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    use_cores(monkeypatch, 4)
    assert forked_map(squares, 201, 1) == SQUARES


def test_single_core_never_forks(monkeypatch):
    def fork():
        raise AssertionError("forked on a single-core host")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    use_cores(monkeypatch, 1)
    assert forked_map(squares, 1001, 1) == squares(0, 1001)


def test_cores_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert series_module._usable_cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert series_module._usable_cores() == 1
