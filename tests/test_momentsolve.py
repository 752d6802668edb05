import random
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import mpf_abs, mpf_sqrt, round_nearest

from muntz import (
    build_moment_data,
    build_weighted_domain,
    convergence_certificate,
    explicit_exponents,
    fit_growth,
    gram,
    gram_inverse_diagonals,
    leading_section,
    power_exponents,
    solve_moments,
    workbits,
)
from muntz.errors import ValidationError
from muntz.precision import _dot

from conftest import rel_err

UNIT = build_weighted_domain([(0, 1)], [(1, 0)])


def geometric_data(lam, base, scale=1, bits=256):
    with workbits(bits):
        b = mp.mpf(base)
        return [mp.mpf(scale) * b ** v for v in lam.values]


def test_fit_pure_geometric():
    lam = power_exponents(1, 2, 6)
    a, c = fit_growth(geometric_data(lam, "0.5"), lam)
    assert rel_err(a, "0.5") < 1e-60
    assert rel_err(c, 1) < 1e-60



def test_growth_constant_uses_the_mpf_powers():
    # C is the largest |d_n| / a**lam_n, each power bit for bit a ** lam_n
    lam = power_exponents(1, "1/3", 6)
    d = ["0.3", "-0.02", "0", "0.004", "0.0011", "-0.0003"]
    a, c = fit_growth(d, lam)
    with workbits(256):
        lams = lam.values_at(256, 6)
        want = max(abs(mp.mpf(v)) / a ** lams[i] for i, v in enumerate(d) if v != "0")
    assert c._mpf_ == want._mpf_

def test_fit_scaled_geometric():
    lam = power_exponents(1, 2, 6)
    a, c = fit_growth(geometric_data(lam, "0.25", scale=3), lam)
    assert rel_err(a, "0.25") < 1e-60
    assert rel_err(c, 3) < 1e-60


def test_fit_constant_data_hits_radius():
    lam = power_exponents(1, 2, 5)
    data = build_moment_data(UNIT, lam, [1, 1, 1, 1, 1])
    assert rel_err(data.fitted_a, 1) < 1e-60
    assert rel_err(data.fitted_c, 1) < 1e-60
    assert not data.growth_ok  # a = 1 is not inside [0, r_w)


def test_fit_all_zero():
    lam = power_exponents(1, 2, 4)
    a, c = fit_growth([0, 0, 0, 0], lam)
    assert a == 0 and c == 0


def test_fit_single_nonzero():
    lam = explicit_exponents([2, 3])
    a, c = fit_growth(["0.25", "0"], lam)
    with workbits(320):
        assert rel_err(a, mp.mpf("0.25") ** (mp.mpf(1) / 2)) < 1e-60
    assert c == 1


def test_fit_envelope_covers_all_entries():
    lam = power_exponents(1, 2, 6)
    rng = random.Random(7)
    with workbits(256):
        d = [mp.mpf(rng.uniform(-1, 1)) * mp.mpf("0.5") ** v for v in lam.values]
        a, c = fit_growth(d, lam)
        for v, dv in zip(lam.values, d):
            assert abs(dv) <= c * a ** v * (1 + mp.mpf(2) ** -200)


def test_solve_dual_fixture(unit_domain, lam23):
    data = build_moment_data(unit_domain, lam23, [1, 0])
    series, residuals = solve_moments(gram(unit_domain, lam23, 2), data)
    assert rel_err(series.coeffs[0], 180) < 1e-70
    assert rel_err(series.coeffs[1], -210) < 1e-70
    with workbits(256):
        assert all(abs(r) < mp.mpf(2) ** (-128) for r in residuals)


def test_solve_zero_data(unit_domain, lam23):
    data = build_moment_data(unit_domain, lam23, [0, 0])
    series, residuals = solve_moments(gram(unit_domain, lam23, 2), data)
    assert all(c == 0 for c in series.coeffs)
    assert all(r == 0 for r in residuals)


def test_solve_recovers_moment_source(unit_domain, lam23):
    # the moments of x^2 itself: d = (1/5, 1/6)
    data = build_moment_data(unit_domain, lam23, ["0.2", "1/6"])
    series, _ = solve_moments(gram(unit_domain, lam23, 2), data)
    assert rel_err(series.coeffs[0], 1) < 1e-70
    with workbits(256):
        assert abs(series.coeffs[1]) < mp.mpf(2) ** (-200)


def test_solve_section_bound(unit_domain, lam23):
    data = build_moment_data(unit_domain, lam23, [1])
    with pytest.raises(ValidationError):
        solve_moments(gram(unit_domain, lam23, 2), data)


def test_solution_norms_bounded_nondecreasing():
    lam = power_exponents(1, 2, 12)
    d = geometric_data(lam, "0.5")
    data = build_moment_data(UNIT, lam, d)
    assert data.growth_ok
    cert = convergence_certificate(gram(UNIT, lam, 12), [2, 4, 6, 8, 10, 12], data)
    norms = cert.solution_norms
    assert all(b >= a for a, b in zip(norms, norms[1:]))
    # the dual-norm sums settle: section-to-section ratios fall toward 1
    ratios = cert.ratios
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    with workbits(256):
        assert ratios[-1] < mp.mpf("1.25")


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_random_data_interpolates_exactly(seed):
    rng = random.Random(seed)
    lam = power_exponents(1, 2, 8)
    with workbits(256):
        d = [mp.mpf(rng.uniform(-2, 2)) for _ in range(8)]
    data = build_moment_data(UNIT, lam, d)
    _, residuals = solve_moments(gram(UNIT, lam, 8), data)
    with workbits(256):
        assert all(abs(r) < mp.mpf(2) ** (-128) for r in residuals)


@pytest.mark.parametrize("pieces", [([(0, 1)], [(1, 0)]),
                                    ([("0", "0.5"), ("0.6", "1")], [(1, 0), (2, "0.5")])],
                         ids=["unit", "two_piece"])
def test_residuals_are_the_true_residuals(pieces):
    # each residual is <f, x**lam_i> - d_i of the stored entries and
    # coefficients to within one rounding
    wd, lam = build_weighted_domain(*pieces), power_exponents(1, "0.5", 12)
    g = gram(wd, lam, 12)
    with workbits(g.precision_bits):
        d = [mp.mpf(1) / (k + 2) for k in range(12)]
    series, residuals = solve_moments(g, build_moment_data(wd, lam, d, g.precision_bits))
    bits = g.precision_bits
    with workbits(bits + 64):
        for row, d_i, got in zip(g.entries(), d, residuals):
            want = mp.fdot(row + [d_i], list(series.coeffs) + [-1])
            assert abs(got - want) <= mp.mpf(2) ** (1 - bits) * abs(want)


@pytest.mark.parametrize("family", [("1", "2"), ("1", "1"), ("1", "0.5")],
                         ids=["squares", "linear", "sqrt"])
@pytest.mark.parametrize("pieces", [([(0, 1)], [(1, 0)]),
                                    ([("0", "0.5"), ("0.6", "1")], [(1, 0), (2, 0)])],
                         ids=["unit", "two_piece"])
def test_certificate_dual_norms_equal_per_section_solves(pieces, family):
    # each partial sum is sum |d_k| sqrt((G_m^-1)_kk), every diagonal
    # solved on its own leading section, bit for bit
    wd, lam = build_weighted_domain(*pieces), power_exponents(*family, 12)
    g, sizes = gram(wd, lam, 12), [3, 7, 12]
    bits = g.precision_bits
    with workbits(bits):
        d = [mp.mpf(-1) ** k / (k + 2) for k in range(12)]
    data = build_moment_data(wd, lam, d, bits)
    cert = convergence_certificate(g, sizes, data)
    want = []
    for m in sizes:
        s = leading_section(g, m)
        diags = [gram_inverse_diagonals(s, k, [m])[0] for k in range(1, m + 1)]
        want.append(_dot([mpf_abs(data.d[k]._mpf_) for k in range(m)],
                         [mpf_sqrt(diags[k]._mpf_, bits, round_nearest) for k in range(m)], bits))
    assert [v._mpf_ for v in cert.partial_sums] == want


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the section's rounding at 256 bits leaves the partial sum at "
                          "2^-102.3 and the solution norm at 2^-106.5")
def test_certificate_keeps_its_promise_on_linear_n32():
    # d_k = 3 * 0.6^k as 30-digit strings; the section settles at the
    # requested P = 256 bits, so the solution norm and the partial sum
    # should lie within 2^(-P/2) relative of the same certificate on the
    # same section at 2P bits
    with localcontext() as ctx:
        ctx.prec = 30
        d = [str(3 * Decimal("0.6") ** k) for k in range(1, 33)]
    lam = power_exponents(1, 1, 32, 256)
    g = gram(UNIT, lam, 32, 256)
    bits = g.precision_bits
    got, want = (convergence_certificate(s, [32], build_moment_data(UNIT, lam, d, s.precision_bits))
                 for s in (g, gram(UNIT, lam, 32, 2 * bits)))
    worst = max(rel_err(getattr(got, field)[0], getattr(want, field)[0])
                for field in ("solution_norms", "partial_sums"))
    assert worst < mp.mpf(2) ** -(bits // 2)
