"""The bound pass of ``christoffel_remez``: at every grid point the
binary64 bound U_j of ``series._kernel_bounds`` is at least the P-bit
kernel, and the grid maximum found by skipping the points it rules out is
bit for bit the maximum over every point."""

import pytest
from mpmath import libmp
from mpmath.libmp import finf, mpf_lt

from muntz import (build_weighted_domain, christoffel_remez, explicit_exponents, gram,
                   power_exponents)
import muntz.series as series_module

from oracles import remez_every_point, remez_grid
from test_remez_split import TWO_PIECE, UNIT, use_cores


def bounds_and_kernels(g, rho, points):
    """(j, U_j) for every point j >= 1, in the order the bound pass gives
    them, and the P-bit kernel at every point."""
    rows, lams, rho_raw, kernels = remez_grid(g, rho, points)
    bounds = list(series_module._kernel_bounds(rows, lams, rho_raw, points,
                                               g.precision_bits)(range(1, points)))
    return bounds, kernels


def assert_bounds_hold(g, rho, points):
    bounds, kernels = bounds_and_kernels(g, rho, points)
    assert sorted(j for j, _ in bounds) == list(range(1, points))
    assert [j for j, bound in bounds if mpf_lt(bound, kernels[j])] == []
    assert not any(mpf_lt(a, b) for (_, a), (_, b) in zip(bounds, bounds[1:]))
    return bounds


@pytest.mark.parametrize("wd", [UNIT, TWO_PIECE], ids=["unit", "two_piece"])
@pytest.mark.parametrize("beta", ["2", "1", "1/2"])
@pytest.mark.parametrize("n", [1, 6, 16, 24])
def test_bound_holds_at_every_point(wd, beta, n):
    # from 64, 256 and 512 bits, escalated where the section needs it;
    # rho = 1.5 lies past r_A = 1; for sqrt(n) from N = 16 the
    # cancellation in L^-1 v exceeds 2^53, so the error terms carry the bound
    for bits in (64, 256, 512):
        g = gram(wd, power_exponents(1, beta, n, bits), n, bits)
        for rho in ("0.9", "1.5"):
            assert_bounds_hold(g, rho, 101)


@pytest.mark.parametrize("beta", ["2", "1/2"])
def test_points_below_binary64_range_get_no_bound(beta):
    # x_j = rho j / 100 is subnormal in binary64 for j < 3 at rho = 1e-306,
    # and rho itself rounds to 0 at 1e-400; the powers past the first
    # underflow to 0 in binary64 at every normal x here
    g = gram(UNIT, power_exponents(1, beta, 6), 6)
    bounds = dict(assert_bounds_hold(g, "1e-306", 101))
    assert sorted(j for j, bound in bounds.items() if bound == finf) == [1, 2]
    assert dict(assert_bounds_hold(g, "1e-400", 101)) == {j: finf for j in range(1, 101)}
    for rho in ("1e-306", "1e-400"):
        assert christoffel_remez(g, rho, 101) == remez_every_point(g, rho, 101)


def test_overflowing_powers_get_no_bound():
    # x_j = 3 j / 100: the power x^800 passes binary64's range from x = 2.43
    # on (j >= 81), and the squared row bound, about x^1600, from x = 1.56
    g = gram(UNIT, explicit_exponents([1, 2, 800]), 3)
    bounds = dict(assert_bounds_hold(g, "3", 101))
    assert sorted(j for j, bound in bounds.items() if bound == finf) == list(range(52, 101))
    assert christoffel_remez(g, "3", 101) == remez_every_point(g, "3", 101)


def test_exponent_below_binary64_range():
    # the exponent rounds to 0 in binary64, and the bound pass divides by
    # the largest: it takes 2^-1000 for it, an upper bound
    g = gram(UNIT, explicit_exponents(["1e-400"]), 1)
    bounds = assert_bounds_hold(g, "0.9", 101)
    assert finf not in dict(bounds).values()
    assert christoffel_remez(g, "0.9", 101) == remez_every_point(g, "0.9", 101)


@pytest.mark.parametrize("coeff, unbounded", [("1e600", 0), ("1e700", 100)])
def test_rows_near_binary64_range(coeff, unbounded):
    # a weight of 1e600 puts the rows of L^-1 near 2^-997 and every kernel
    # near 1e-600, so the squared row bounds underflow and the absolute
    # term carries U; at 1e700 the rows fall past 2^-1000, bounding nothing
    g = gram(build_weighted_domain([(0, 1)], [(coeff, 0)]), power_exponents(1, 2, 6), 6)
    bounds = assert_bounds_hold(g, "0.9", 101)
    assert sum(bound == finf for _, bound in bounds) == unbounded
    assert christoffel_remez(g, "0.9", 101) == remez_every_point(g, "0.9", 101)


@pytest.mark.parametrize("wd", [UNIT, TWO_PIECE], ids=["unit", "two_piece"])
def test_two_point_grid(wd):
    g = gram(wd, power_exponents(1, "1/2", 6), 6)
    for rho in ("0.9", "1.5"):
        assert [j for j, _ in assert_bounds_hold(g, rho, 2)] == [1]
        assert christoffel_remez(g, rho, 2) == remez_every_point(g, rho, 2)


@pytest.mark.parametrize("wd", [UNIT, TWO_PIECE], ids=["unit", "two_piece"])
@pytest.mark.parametrize("beta", ["2", "1", "1/2"])
def test_remez_is_the_exhaustive_maximum(wd, beta, monkeypatch):
    # serially, so that the bound pass alone decides which points are left
    use_cores(monkeypatch, 1)
    for n in (6, 16):
        g = gram(wd, power_exponents(1, beta, n), n)
        for rho in ("0.3", "0.9", "1.5"):
            for points in (2, 31, 1001):
                assert christoffel_remez(g, rho, points) == remez_every_point(g, rho, points), \
                    (n, rho, points)


def test_bounds_become_mpf_only_when_reached(monkeypatch):
    # the bounds are sorted as binary64 values, and each becomes a raw mpf
    # only when the kernel loop reaches it: the first of 1000 makes one
    calls, real = [], libmp.from_float

    def record(x, *args, **kwargs):
        calls.append(x)
        return real(x, *args, **kwargs)

    monkeypatch.setattr(libmp, "from_float", record)
    g = gram(UNIT, power_exponents(1, 2, 6), 6)
    rows, lams, rho_raw, _ = remez_grid(g, "0.9", 2)
    bounds = series_module._kernel_bounds(rows, lams, rho_raw, 1001,
                                          g.precision_bits)(range(1, 1001))
    assert calls == []
    _, first = next(bounds)
    assert len(calls) == 1 and first == real(calls[0])
    assert len(list(bounds)) == 999 and len(calls) == 1000


@pytest.mark.parametrize("beta", ["2", "1/2"])
def test_blocks_give_the_same_bounds(beta):
    # points 1..3000 run in blocks of 1024, 1024 and 952 points; one call
    # per 1000 points of the same bound pass cuts them elsewhere, as the
    # pieces of a split remez call do, and gives each point its bound;
    # rho = 1.5 puts the last third past r_A = 1
    g = gram(TWO_PIECE, power_exponents(1, beta, 8), 8)
    rows, lams, rho_raw, _ = remez_grid(g, "1.5", 2)
    bound_pass = series_module._kernel_bounds(rows, lams, rho_raw, 3001, g.precision_bits)

    def bounds(points):
        return dict(bound_pass(points))

    whole = bounds(range(1, 3001))
    parts = {**bounds(range(1, 1001)), **bounds(range(1001, 2001)), **bounds(range(2001, 3001))}
    assert sorted(whole) == list(range(1, 3001))
    assert whole == parts
    assert finf not in whole.values()
