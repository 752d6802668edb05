"""The fork-map helper ``series._forked_map``: results in index order,
errors brought back by class and message, and no process or pipe
outliving a call; and the remez grid split over it, bit for bit the
serial value."""

import os
import signal
import time

import pytest
from mpmath.libmp import finf, fnan, fninf, from_int, from_str, fzero

from muntz import build_weighted_domain, christoffel_remez, gram, power_exponents
from muntz.errors import NotPositiveDefinite, NumericalError, PrecisionExhausted
import muntz.series as series_module

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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("wd", [UNIT, TWO_PIECE], ids=["unit", "two_piece"])
@pytest.mark.parametrize("beta", ["2", "1", "1/2"])
def test_split_equals_serial_bits(wd, beta, monkeypatch):
    # one point per chunk allowed, so 2- and 3-point grids split too;
    # rho = 1.5 lies past r_A = 1 on both domains
    monkeypatch.setattr(series_module, "_MIN_CHUNK_POINTS", 1)
    g = gram(wd, power_exponents(1, beta, 6), 6)
    for points in (2, 3, 31, 201):
        for rho in ("0.9", "1.5"):
            serial = remez_bits(monkeypatch, g, rho, points, 1)
            for cores in (2, 3, 4):
                assert remez_bits(monkeypatch, g, rho, points, cores) == serial, (points, rho, cores)
    assert_no_children()


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


class OutsideTheLibrary(NumericalError):
    """A NumericalError the caller cannot rebuild from ``muntz.errors``."""


# named as one of muntz.errors, but defined here
Lookalike = type("PrecisionExhausted", (NumericalError,), {})


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_child_errors_come_back_by_class_and_message(monkeypatch):
    parent = os.getpid()
    raw = [fzero, finf, fninf, fnan, from_str("-1.25e-300", 256), from_int(-(7 ** 200))]

    def chunk(lo, hi):
        # the message names the process that computed it
        where = "child" if os.getpid() != parent else "caller"
        return [[], raw, PrecisionExhausted(f"from the {where}: a b\nc é"),
                NotPositiveDefinite("")][lo:hi]

    use_cores(monkeypatch, 4)
    got = forked_map(chunk, 4, 1)
    assert got[:2] == [[], raw]
    assert [(type(e), str(e)) for e in got[2:]] == [
        (PrecisionExhausted, "from the child: a b\nc é"), (NotPositiveDefinite, "")]
    assert_no_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_unknown_error_class_is_recomputed(monkeypatch):
    parent = os.getpid()

    def chunk(lo, hi):
        where = "child" if os.getpid() != parent else "caller"
        return [[OutsideTheLibrary, Lookalike][j % 2](where) for j in range(lo, hi)]

    use_cores(monkeypatch, 3)
    got = forked_map(chunk, 3, 1)
    assert [(type(e), str(e)) for e in got] == [(OutsideTheLibrary, "caller"),
                                                 (Lookalike, "caller"),
                                                 (OutsideTheLibrary, "caller")]
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
    def fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", fork, raising=False)
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
