"""The remez grid split over forked processes: every value is bit for bit
the serial one, and no process or pipe outlives a call."""

import os
import signal
import time

import pytest

from muntz import build_weighted_domain, christoffel_remez, gram, power_exponents
import muntz.series as series_module

UNIT = build_weighted_domain([(0, 1)], [(1, 0)])
TWO_PIECE = build_weighted_domain([("0", "0.5"), ("0.6", "1")], [(1, 0), (2, "0.5")])
SERIAL_POWERS = series_module._powers


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


@pytest.fixture
def section():
    return gram(UNIT, power_exponents(1, "1/2", 8), 8)


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


def test_chunk_floor_caps_the_processes(section, monkeypatch):
    forked = []
    fork_chunk = series_module._fork_chunk
    monkeypatch.setattr(series_module, "_fork_chunk",
                        lambda *a: forked.append(a[1:]) or fork_chunk(*a))
    use_cores(monkeypatch, 4)
    # 201 points hold three chunks of at least 64, 100 points one
    christoffel_remez(section, "0.5", 201)
    christoffel_remez(section, "0.5", 100)
    assert forked == ([(67, 134), (134, 201)] if hasattr(os, "fork") else [])


def test_normal_return_leaves_nothing(section, monkeypatch):
    serial = remez_bits(monkeypatch, section, "0.7", 201, 1)
    fds = open_fds()
    assert remez_bits(monkeypatch, section, "0.7", 201, 2) == serial
    assert open_fds() == fds
    assert_no_children()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_parent_error_stops_children(error, section, monkeypatch):
    parent = os.getpid()
    statuses = []
    waitpid = os.waitpid

    def record(pid, options):
        got = waitpid(pid, options)
        statuses.append(got[1])
        return got

    slept = []

    def powers(*args):
        if os.getpid() == parent:
            raise error("parent chunk")
        if not slept:  # each child is still at its first point when stopped
            slept.append(1)
            time.sleep(5)
        return SERIAL_POWERS(*args)

    monkeypatch.setattr(os, "waitpid", record)
    monkeypatch.setattr(series_module, "_powers", powers)
    use_cores(monkeypatch, 4)
    fds = open_fds()
    with pytest.raises(error, match="parent chunk"):
        christoffel_remez(section, "0.7", 201)
    assert len(statuses) == (2 if hasattr(os, "fork") else 0)
    assert all(os.WIFSIGNALED(st) and os.WTERMSIG(st) == signal.SIGTERM for st in statuses)
    assert open_fds() == fds
    assert_no_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_failed_child_chunk_is_recomputed(section, monkeypatch):
    serial = remez_bits(monkeypatch, section, "0.7", 201, 1)
    parent = os.getpid()
    statuses = []
    waitpid = os.waitpid

    def record(pid, options):
        got = waitpid(pid, options)
        statuses.append(os.waitstatus_to_exitcode(got[1]))
        return got

    def powers(*args):
        if os.getpid() != parent:
            raise RuntimeError("child chunk")
        return SERIAL_POWERS(*args)

    monkeypatch.setattr(os, "waitpid", record)
    monkeypatch.setattr(series_module, "_powers", powers)
    fds = open_fds()
    assert remez_bits(monkeypatch, section, "0.7", 201, 2) == serial
    assert statuses == [1]
    assert open_fds() == fds
    assert_no_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_non_zero_exit_discards_what_the_child_wrote(section, monkeypatch):
    serial = remez_bits(monkeypatch, section, "0.7", 201, 1)
    parent = os.getpid()
    parent_points = []
    real_exit = os._exit

    def powers(*args):
        if os.getpid() == parent:
            parent_points.append(1)
        return SERIAL_POWERS(*args)

    monkeypatch.setattr(os, "_exit", lambda status: real_exit(7))
    monkeypatch.setattr(series_module, "_powers", powers)
    assert remez_bits(monkeypatch, section, "0.7", 201, 2) == serial
    assert len(parent_points) == 201
    assert_no_children()


def test_fork_failure_runs_serially(section, monkeypatch):
    serial = remez_bits(monkeypatch, section, "0.7", 201, 1)

    def fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    fds = open_fds()
    assert remez_bits(monkeypatch, section, "0.7", 201, 4) == serial
    assert open_fds() == fds
    assert_no_children()


def test_missing_fork_runs_serially(section, monkeypatch):
    serial = remez_bits(monkeypatch, section, "0.7", 201, 1)
    monkeypatch.delattr(os, "fork", raising=False)
    assert remez_bits(monkeypatch, section, "0.7", 201, 4) == serial


def test_single_core_never_forks(section, monkeypatch):
    split = remez_bits(monkeypatch, section, "0.7", 1001, 2)

    def fork():
        raise AssertionError("forked on a single-core host")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    assert remez_bits(monkeypatch, section, "0.7", 1001, 1) == split


def test_cores_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert series_module._usable_cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert series_module._usable_cores() == 1
