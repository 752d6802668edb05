import random

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import fzero, mpf_sub, round_nearest

from muntz import (
    MuntzSeries,
    TargetFunction,
    build_weighted_domain,
    christoffel_remez,
    coefficient_convergence,
    evaluate,
    explicit_exponents,
    gram,
    power_exponents,
    project,
    workbits,
)
from muntz.errors import NegativeResidualSquared, OutsideRadius, ValidationError
from muntz.gram import leading_section
from muntz.precision import _dot
import muntz.series as series_module
from muntz.series import MAX_GRID_POINTS, _powers, _settle_residual_sq

from conftest import rel_err
from oracles import removal_test

UNIT = build_weighted_domain([(0, 1)], [(1, 0)])
TWO_PIECE = build_weighted_domain([("0", "0.5"), ("0.6", "1")], [(1, 0), (2, "0.5")])


def mk_series(lam, coeffs, radius=1, bits=256):
    with workbits(bits):
        return MuntzSeries(
            lam_ref=lam,
            coeffs=tuple(mp.mpf(c) for c in coeffs),
            radius=mp.mpf(radius),
            precision_bits=bits,
        )


def test_project_pure_power_fixture(unit_domain, lam23):
    series, res = project(gram(unit_domain, lam23, 2), TargetFunction.pure_power(1))
    assert rel_err(series.coeffs[0], 3) < 1e-70
    with workbits(320):
        assert rel_err(series.coeffs[1], -mp.mpf(21) / 10) < 1e-70
        assert rel_err(res, 1 / mp.sqrt(mp.mpf(300))) < 1e-70


def test_project_recovers_span_member(unit_domain, lam23):
    f = TargetFunction.muntz_combo(mk_series(lam23, [1, 1]))
    series, res = project(gram(unit_domain, lam23, 2), f)
    assert rel_err(series.coeffs[0], 1) < 1e-70
    assert rel_err(series.coeffs[1], 1) < 1e-70
    with workbits(series.precision_bits):
        # in-span residuals bottom out at sqrt of the cancellation ulp
        assert res < mp.mpf(2) ** (-(series.precision_bits // 2) + 4)


def test_project_zero_target(unit_domain, lam23):
    f = TargetFunction.muntz_combo(mk_series(lam23, [0, 0]))
    series, res = project(gram(unit_domain, lam23, 2), f)
    assert all(c == 0 for c in series.coeffs)
    assert res == 0


def test_pure_power_validation():
    with pytest.raises(ValidationError):
        TargetFunction.pure_power(-1)


def test_evaluate_fixtures(lam23):
    s = mk_series(lam23, [1, 1])
    with workbits(320):
        assert rel_err(evaluate(s, "0.5"), mp.mpf(3) / 8) < 1e-70
    empty = mk_series(explicit_exponents([2]), [])
    assert evaluate(empty, "0.7") == 0
    assert evaluate(s, 0) == 0
    with pytest.raises(OutsideRadius):
        evaluate(s, "1.5")
    with pytest.raises(OutsideRadius):
        evaluate(s, 1)
    with pytest.raises(OutsideRadius):
        evaluate(s, "-0.25")


def test_residual_settle_guard():
    with workbits(256):
        assert _settle_residual_sq(mp.mpf("0.25"), 256) == mp.mpf("0.25")
        assert _settle_residual_sq(-mp.mpf(2) ** (-200), 256) == 0
        with pytest.raises(NegativeResidualSquared):
            _settle_residual_sq(-mp.mpf("0.1"), 256)


def test_coefficient_convergence_in_span_is_flat(unit_domain):
    lam = explicit_exponents([2, 3, 5, 8])
    f = TargetFunction.muntz_combo(mk_series(lam, [1, 1]))
    table = coefficient_convergence(gram(unit_domain, lam, 4), [2, 3, 4], f)
    with workbits(256):
        floor = mp.mpf(2) ** (-128)
        assert all(d < floor for dk in table.diffs for d in dk)
    assert all(table.cauchy_flags) or all(
        d < floor for dk in table.diffs for d in dk
    )
    assert rel_err(table.rows[0][1][0], 1) < 1e-70


def test_coefficient_convergence_outside_span_decreases(unit_domain):
    # x is outside the span when 1 is not among the exponents
    lam = power_exponents(1, 2, 12)
    shifted = explicit_exponents([v for v in lam.raw if v != 1])
    f = TargetFunction.pure_power(1)
    table = coefficient_convergence(gram(unit_domain, shifted, 10), [2, 4, 6, 8, 10], f)
    lead_diffs = table.diffs[0]
    assert all(b < a for a, b in zip(lead_diffs, lead_diffs[1:]))
    assert table.cauchy_flags[0]


def test_coefficient_convergence_zero_target(unit_domain, lam23):
    f = TargetFunction.muntz_combo(mk_series(lam23, [0, 0]))
    table = coefficient_convergence(gram(unit_domain, lam23, 2), [1, 2], f)
    assert all(c == 0 for _, coeffs in table.rows for c in coeffs)


def test_coefficient_convergence_settles_each_residual(unit_domain, monkeypatch):
    # each size's <f, f> - b^T c is settled as ``project`` settles it on
    # that section; with <f, f> taken as 0 it is -b^T G^-1 b, negative
    # beyond the rounding floor, and both raise
    g, f = gram(unit_domain, power_exponents(1, 2, 6), 6), TargetFunction.pure_power("1/2")
    sizes = [2, 4, 6]
    seen = []
    real_settle, real_products = series_module._settle_residual_sq, series_module._target_products

    def settle(value, bits):
        seen.append(value)
        return real_settle(value, bits)

    monkeypatch.setattr(series_module, "_settle_residual_sq", settle)
    for m in sizes:
        project(leading_section(g, m), f)
    want, seen[:] = seen[:], []
    coefficient_convergence(g, sizes, f)
    assert seen == want
    monkeypatch.setattr(series_module, "_target_products",
                        lambda g, f: (real_products(g, f)[0], fzero))
    with pytest.raises(NegativeResidualSquared):
        project(g, f)
    with pytest.raises(NegativeResidualSquared):
        coefficient_convergence(g, sizes, f)


def test_removal_trivial_cases(unit_domain, lam23):
    f = TargetFunction.muntz_combo(mk_series(lam23, [2, 5]))
    res = removal_test(unit_domain, lam23, 2, f, 1)
    with workbits(256):
        assert res < mp.mpf(2) ** (-124)
    f2 = TargetFunction.muntz_combo(mk_series(lam23, [1, 0]))
    res2 = removal_test(unit_domain, lam23, 2, f2, 1)
    with workbits(256):
        assert res2 < mp.mpf(2) ** (-124)


def test_removal_three_term(unit_domain):
    lam = explicit_exponents([2, 3, 5])
    f = TargetFunction.muntz_combo(mk_series(lam, [2, 5, 1]))
    res = removal_test(unit_domain, lam, 3, f, 2)
    with workbits(256):
        assert res < mp.mpf(2) ** (-124)


def test_removal_requires_combo(unit_domain, lam23):
    with pytest.raises(ValidationError):
        removal_test(unit_domain, lam23, 2, TargetFunction.pure_power(1), 1)


def test_christoffel_single_power(unit_domain):
    # K_1(x) = 5 x^4 peaks at the right grid end: c = sqrt(5)/4 at rho = 1/2
    lam = explicit_exponents([2])
    c = christoffel_remez(gram(unit_domain, lam, 1), "0.5", 64)
    with workbits(320):
        assert rel_err(c, mp.sqrt(mp.mpf(5)) / 4) < 1e-70


def test_christoffel_monotone_in_section(unit_domain):
    lam = power_exponents(1, 2, 6)
    vals = [christoffel_remez(gram(unit_domain, lam, n), "0.5", 101) for n in (1, 2, 3, 4, 5, 6)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_christoffel_monotone_in_rho_nested_grids():
    wd = build_weighted_domain([("0.5", "1")], [(1, 0)])
    lam = power_exponents(1, 2, 6)
    # nested grids: same spacing, growing right end
    c1 = christoffel_remez(gram(wd, lam, 6), "0.125", 26)
    c2 = christoffel_remez(gram(wd, lam, 6), "0.25", 51)
    c3 = christoffel_remez(gram(wd, lam, 6), "0.5", 101)
    assert c1 <= c2 <= c3


def test_christoffel_validation(unit_domain, lam23):
    with pytest.raises(ValidationError):
        christoffel_remez(gram(unit_domain, lam23, 2), "0.5", 1)
    with pytest.raises(ValidationError):
        christoffel_remez(gram(unit_domain, lam23, 2), "0.5", MAX_GRID_POINTS + 1)
    with pytest.raises(ValidationError):
        christoffel_remez(gram(unit_domain, lam23, 2), "0", 16)


@pytest.mark.parametrize("wd", [UNIT, TWO_PIECE], ids=["unit", "two_piece"])
@pytest.mark.parametrize("beta", ["2", "1", "1/2"])
@pytest.mark.parametrize("n", [6, 12, 16])
def test_christoffel_matches_double_precision(wd, beta, n):
    # the kernel from L^-1 agrees with the same call on the section
    # assembled and factored at twice the width; rho = 1.5 lies past r_A
    lam = power_exponents(1, beta, n)
    g = gram(wd, lam, n)
    ref = gram(wd, lam, n, 2 * g.precision_bits)
    for rho, points in (("0.9", 101), ("1.5", 31)):
        got = christoffel_remez(g, rho, points)
        assert rel_err(got, christoffel_remez(ref, rho, points)) < 2.0 ** (-(g.precision_bits // 2))


def test_christoffel_matches_double_precision_escalated(unit_domain):
    lam = power_exponents(1, 1, 9)
    g = gram(unit_domain, lam, 9, 64)
    assert g.precision_bits == 128
    ref = gram(unit_domain, lam, 9, 256)
    for rho in ("0.75", "1.25"):
        assert rel_err(christoffel_remez(g, rho, 41), christoffel_remez(ref, rho, 41)) < 2.0 ** -64


def test_hoisted_log_powers_equal_mpf_pow():
    # whole, half-integer and general exponents: the three mpf_pow paths
    with workbits(256):
        lams = [mp.mpf(v) for v in ("0.5", "1.5", "2", "2.25", "3.7")]
        for x in (mp.mpf(0), mp.mpf(1) / 3, mp.mpf("0.9"), mp.mpf(1), mp.mpf("1.5")):
            got = _powers(x._mpf_, [lam._mpf_ for lam in lams], 256)
            assert got == [(x ** lam)._mpf_ for lam in lams]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_random_span_coefficient_recovery(seed):
    unit_domain = UNIT
    rng = random.Random(seed)
    lam = power_exponents(1, 2, 6)
    with workbits(256):
        coeffs = [mp.mpf(rng.uniform(-1, 1)) for _ in range(6)]
    f = TargetFunction.muntz_combo(mk_series(lam, coeffs))
    g = gram(unit_domain, lam, 6)
    series, res = project(g, f)
    with workbits(g.precision_bits):
        # the diagonal-ratio estimate lower-bounds the true condition
        # number, so the recovery bound needs a small dimensional factor
        tol = g.cond_estimate * mp.mpf(2) ** (-g.precision_bits + 6)
        for got, want in zip(series.coeffs, coeffs):
            assert abs(got - want) < tol


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_projection_residual_orthogonality(seed):
    # b - G c vanishes: the error is orthogonal to every section power
    unit_domain = UNIT
    rng = random.Random(seed)
    lam = power_exponents(1, 2, 5)
    mu = rng.uniform(0, 6)
    f = TargetFunction.pure_power(str(mu))
    g = gram(unit_domain, lam, 5)
    series, _ = project(g, f)
    from muntz.domain import power_moment

    entries = g.entries()
    with workbits(g.precision_bits):
        guard = mp.mpf(2) ** (-(g.precision_bits // 2))
        for i in range(5):
            b_i = power_moment(unit_domain, f.mu + g.lams[i], g.precision_bits)
            attained = mp.fsum(entries[i][j] * series.coeffs[j] for j in range(5))
            assert abs(b_i - attained) < guard


def test_parseval_for_span_members(unit_domain):
    # for f in the span, sum a_n <x^lam_n, f> equals ||f||^2
    lam = explicit_exponents([2, 3, 5])
    coeffs = ["0.75", "-0.5", "0.25"]
    f = TargetFunction.muntz_combo(mk_series(lam, coeffs))
    g = gram(unit_domain, lam, 3)
    series, _ = project(g, f)
    from muntz.domain import power_moment

    with workbits(g.precision_bits):
        b = [
            mp.fsum(
                mp.mpf(c) * power_moment(unit_domain, int(lam.values[k]) + g.lams[i])
                for k, c in ((0, coeffs[0]), (1, coeffs[1]), (2, coeffs[2]))
            )
            for i in range(3)
        ]
        lhs = mp.fsum(a * bi for a, bi in zip(series.coeffs, b))
        norm_sq = mp.fsum(
            mp.mpf(ci) * mp.mpf(cj) * power_moment(unit_domain, int(lam.values[i]) + int(lam.values[j]))
            for i, ci in enumerate(coeffs)
            for j, cj in enumerate(coeffs)
        )
        assert abs(lhs - norm_sq) < mp.mpf(2) ** (-(g.precision_bits // 2))


WEIGHTED = build_weighted_domain([("0.1", "0.3"), ("0.5", "2")], [(3, "0.5"), (1, "1.5")])


@pytest.mark.parametrize("wd", [TWO_PIECE, WEIGHTED], ids=["two_piece", "weighted"])
@pytest.mark.parametrize("beta", ["2", "1", "1/2"])
def test_target_moments_on_section_exponents_are_gram_entries(wd, beta, monkeypatch):
    # a target x**lam_k has the moments of column k of the Gram section,
    # bit for bit, and the norm squared G_kk, so the residual of a
    # combination within the span carries only the solve's rounding
    n = 8
    g = gram(wd, power_exponents(1, beta, n), n)
    seen = {}
    real_solve, real_settle = series_module.solve_spd, series_module._settle_residual_sq

    def solve(g, b):
        seen["b"], seen["c"] = b, real_solve(g, b)
        return seen["c"]

    def settle(value, bits):
        seen["res_sq"] = value
        return real_settle(value, bits)

    monkeypatch.setattr(series_module, "solve_spd", solve)
    monkeypatch.setattr(series_module, "_settle_residual_sq", settle)
    for k in range(n):
        f = TargetFunction.muntz_combo(mk_series(g.lam, [0] * k + [1], wd.r_a, g.precision_bits))
        project(g, f)
        column = [g.entry_rows[max(i, k)][min(i, k)] for i in range(n)]
        assert [b._mpf_ for b in seen["b"]] == column
        bc = _dot([b._mpf_ for b in seen["b"]], [c._mpf_ for c in seen["c"]], g.precision_bits)
        want = mpf_sub(column[k], bc, g.precision_bits, round_nearest)
        assert seen["res_sq"]._mpf_ == want
