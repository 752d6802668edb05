import os

import mpmath
import pytest
from mpmath import mp

from muntz import build_weighted_domain, explicit_exponents, workbits
from muntz.cli import _PARSED
from muntz.gram import _ATTEMPTS
from muntz.forkmap import _stop_pool

CHECK_BITS = 320  # headroom above the default working precision


def rel_err(got, want):
    """Relative error evaluated with guard bits so the comparison itself
    cannot dominate."""
    from muntz import to_mpf

    with workbits(CHECK_BITS):
        got = got if isinstance(got, mpmath.mpf) else to_mpf(got, CHECK_BITS)
        want = want if isinstance(want, mpmath.mpf) else to_mpf(want, CHECK_BITS)
        if want == 0:
            return abs(got)
        return abs(got - want) / abs(want)


@pytest.fixture(autouse=True)
def cold_stores():
    """Every test starts with no factored attempt and no parsed config
    block kept from another."""
    _ATTEMPTS.clear()
    _PARSED.clear()


@pytest.fixture(autouse=True)
def fresh_pool():
    """Every test starts and ends with no worker of the fork-map pool
    alive.  A worker runs the library as it was when it forked, so the
    monkeypatches a test makes before its first split call reach the
    workers that call starts, and none outlives the test's."""
    _stop_pool()
    yield
    _stop_pool()


def force_sweep_forking(monkeypatch, cores):
    """Let ``hereditary_sweep`` run as on a host with ``cores`` usable
    cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


def mpf_(x, bits=CHECK_BITS):
    with workbits(bits):
        return mp.mpf(x)


@pytest.fixture
def unit_domain():
    return build_weighted_domain([(0, 1)], [(1, 0)])


@pytest.fixture
def lam23():
    return explicit_exponents([2, 3])


@pytest.fixture
def two_piece_domain():
    # [0, 0.5] u [0.6, 1] with weights 1 and 2
    return build_weighted_domain([("0", "0.5"), ("0.6", "1")], [(1, 0), (2, 0)])
