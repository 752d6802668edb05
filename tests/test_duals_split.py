"""The dual family's columns split over ``forkmap._forked_map``: every
column, norm, distance and the biorthogonality residual bit for bit the
serial ones, serially where ``os.fork`` fails, nothing left behind once
the pool stops, and no split below the size floor."""

import contextlib
import io
import json
import os

import pytest

from muntz import dual_family, gram, power_exponents
from muntz.cli import run
import muntz.duals as duals_module

from test_remez_split import (TWO_PIECE, UNIT, assert_no_children, assert_pool_stops_clean,
                              open_fds, record_dispatches, use_cores)

FLOOR = 2 * duals_module._MIN_CHUNK_COLUMNS  # the smallest N that splits
FAMILIES = {"squares": (1, 2), "linear": (1, 1), "sqrt": (1, "1/2")}


def family_bits(fam):
    return ([[v._mpf_ for v in col] for col in fam.coeffs], [v._mpf_ for v in fam.norms],
            [v._mpf_ for v in fam.distances], fam.residual._mpf_, fam.precision_bits)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("n", [FLOOR - 1, FLOOR, 40])
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("wd", [UNIT, TWO_PIECE], ids=["unit", "two_piece"])
def test_forked_family_equals_serial_bits(wd, family, n, monkeypatch):
    g = gram(wd, power_exponents(*FAMILIES[family], n), n)
    use_cores(monkeypatch, 1)
    serial = family_bits(dual_family(g))
    fds = open_fds()
    for cores in (2, 3, 4):
        use_cores(monkeypatch, cores)
        assert family_bits(dual_family(g)) == serial, cores
    assert_pool_stops_clean(fds)


def test_fork_failure_gives_the_serial_family(monkeypatch):
    g = gram(TWO_PIECE, power_exponents(1, 1, 40), 40)
    use_cores(monkeypatch, 1)
    serial = family_bits(dual_family(g))

    def fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    use_cores(monkeypatch, 4)
    fds = open_fds()
    assert family_bits(dual_family(g)) == serial
    assert open_fds() == fds
    assert_no_children()


def duals_report(tmp_path, n):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "domain": {"intervals": [{"lo": "0", "hi": "1"}],
                   "weights": [{"coeff": "1", "power": "0"}]},
        "exponents": {"kind": "power", "c": "1", "beta": "2", "count": 40},
        "N": n, "precision_bits": 256}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["duals", "--config", str(path)]) == 0
    return out.getvalue()


def test_report_below_the_floor_never_forks(tmp_path, monkeypatch):
    def fork():
        raise AssertionError("forked below the floor")

    use_cores(monkeypatch, 1)
    serial = duals_report(tmp_path, FLOOR - 1)
    monkeypatch.setattr(os, "fork", fork, raising=False)
    use_cores(monkeypatch, 4)
    assert duals_report(tmp_path, FLOOR - 1) == serial


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_report_at_the_floor_forks_once(tmp_path, monkeypatch):
    use_cores(monkeypatch, 1)
    serial = duals_report(tmp_path, FLOOR)
    dispatched, forks, real_fork = record_dispatches(monkeypatch), [], os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    fds = open_fds()
    use_cores(monkeypatch, 2)
    assert duals_report(tmp_path, FLOOR) == serial
    assert dispatched == [1] and forks == [1]
    assert duals_report(tmp_path, FLOOR) == serial
    assert dispatched == [1, 1] and forks == [1]
    assert_pool_stops_clean(fds)
