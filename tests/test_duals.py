from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import fone, mpf_abs

from muntz import (
    build_weighted_domain,
    distance,
    distance_sweep,
    dual_family,
    explicit_exponents,
    gram,
    lower_bound_certificate,
    oracle_distance,
    power_exponents,
    workbits,
)
from muntz.errors import BadEpsilon, IndexOutOfRange, ValidationError
from muntz.gram import _full_rows
from muntz.precision import _dot

from conftest import rel_err


def sqrt_inv(x):
    with workbits(320):
        return 1 / mp.sqrt(mp.mpf(x))


def test_dual_coefficients_fixture(unit_domain, lam23):
    g = gram(unit_domain, lam23, 2)
    fam = dual_family(g)
    # r_1 = 180 x^2 - 210 x^3, r_2 = -210 x^2 + 252 x^3
    assert rel_err(fam.coeffs[0][0], 180) < 1e-70
    assert rel_err(fam.coeffs[0][1], -210) < 1e-70
    assert rel_err(fam.coeffs[1][0], -210) < 1e-70
    assert rel_err(fam.coeffs[1][1], 252) < 1e-70
    with workbits(320):
        assert rel_err(fam.norms[0], mp.sqrt(mp.mpf(180))) < 1e-70
        assert rel_err(fam.norms[1], mp.sqrt(mp.mpf(252))) < 1e-70


def test_single_power_dual(unit_domain):
    lam = explicit_exponents([2])
    fam = dual_family(gram(unit_domain, lam, 1))
    assert rel_err(fam.coeffs[0][0], 5) < 1e-70


def test_reciprocity_exact_as_computed(unit_domain, lam23):
    fam = dual_family(gram(unit_domain, lam23, 2))
    with workbits(fam.precision_bits):
        for k in range(2):
            assert fam.distances[k] == 1 / fam.norms[k]


def test_distance_fixtures(unit_domain, lam23):
    g = gram(unit_domain, lam23, 2)
    assert rel_err(distance(g, 1), sqrt_inv(180)) < 1e-70
    assert rel_err(distance(g, 2), sqrt_inv(252)) < 1e-70
    lam_single = explicit_exponents([2])
    g1 = gram(unit_domain, lam_single, 1)
    assert rel_err(distance(g1, 1), sqrt_inv(5)) < 1e-70
    with pytest.raises(IndexOutOfRange):
        distance(g, 3)


def test_biorthogonality_residual(unit_domain):
    lam = power_exponents(1, 2, 9)
    g = gram(unit_domain, lam, 9)
    fam, entries = dual_family(g), g.entries()
    with workbits(g.precision_bits):
        guard = mp.mpf(2) ** (-(g.precision_bits // 2))
        worst = max(
            abs(
                mp.fsum(entries[m][k] * fam.coeffs[j][k] for k in range(9))
                - (1 if m == j else 0)
            )
            for m in range(9)
            for j in range(9)
        )
    assert worst < guard
    assert fam.residual < guard


RESIDUAL_PIECES = {
    "unit": ([(0, 1)], [(1, 0)]),
    "two_piece": ([("0", "0.5"), ("0.6", "1")], [(1, 0), (2, 0)]),
}


@pytest.mark.parametrize("n", [8, 20, 40])
@pytest.mark.parametrize("family", [(1, 2), (1, 1), (1, "0.5")], ids=["squares", "linear", "sqrt"])
@pytest.mark.parametrize("pieces", sorted(RESIDUAL_PIECES))
def test_biorthogonality_residual_is_the_true_residual(pieces, family, n):
    # the reported residual is max |G C - I| of the stored entries and
    # columns to within one rounding, not a looser figure
    g = gram(build_weighted_domain(*RESIDUAL_PIECES[pieces]), power_exponents(*family, n), n)
    fam = dual_family(g)
    got = fam.residual
    bits = g.precision_bits
    # the largest of the per-column maxima, forked from N = 20 on, is the
    # serial maximum over all N**2 entries
    cols = [[v._mpf_ for v in col] for col in fam.coeffs]
    serial = max((mpf_abs(_dot(row, col, bits, fone if m == j else None))
                  for m, row in enumerate(_full_rows(g.entry_rows))
                  for j, col in enumerate(cols)), key=mp.make_mpf)
    assert got._mpf_ == serial
    with workbits(bits + 64):
        entries = g.entries()
        # the -1 of the diagonal enters the exact sum: subtracting it from
        # a rounded dot would cancel to an error of 2**-(P + 64)
        want = max(abs(mp.fdot(entries[m] + [1], fam.coeffs[j] + [-int(m == j)]))
                   for m in range(n) for j in range(n))
        assert abs(got - want) <= mp.mpf(2) ** (1 - bits) * want


def test_oracle_matches_gram_path(unit_domain):
    lam = power_exponents(1, 2, 7)
    for section in range(1, 8):
        g = gram(unit_domain, lam, section)
        for n in range(1, section + 1):
            got = distance(g, n)
            want = oracle_distance(lam, n, section)
            assert rel_err(got, want) < 1e-70


def test_oracle_empty_product(unit_domain):
    lam = explicit_exponents([7])
    assert rel_err(oracle_distance(lam, 1, 1), sqrt_inv(15)) < 1e-70


def test_oracle_index_bounds():
    lam = explicit_exponents([2, 3])
    with pytest.raises(IndexOutOfRange):
        oracle_distance(lam, 3, 3)
    with pytest.raises(IndexOutOfRange):
        oracle_distance(lam, 2, 1)


def test_sweep_monotone_and_matches_oracle(unit_domain):
    lam = power_exponents(1, 2, 5)
    report = distance_sweep(gram(unit_domain, lam, 5), [1, 2, 3, 4, 5], 1, "0.01")
    ds = [d for _, d in report.sections]
    assert all(b < a for a, b in zip(ds, ds[1:]))
    for (size, d) in report.sections:
        assert rel_err(d, oracle_distance(lam, 1, size)) < 1e-70
    assert report.limit_estimate == ds[-1]


def test_sweep_single_section_not_stabilized(unit_domain):
    lam = explicit_exponents([3])
    report = distance_sweep(gram(unit_domain, lam, 1), [1], 1, "0.5")
    assert not report.stabilized
    assert rel_err(report.limit_estimate, sqrt_inv(7)) < 1e-70


def test_sweep_rel_tol_one_always_stabilizes(unit_domain):
    lam = power_exponents(1, 2, 4)
    report = distance_sweep(gram(unit_domain, lam, 2), [1, 2], 1, "1")
    assert report.stabilized


def test_sweep_validation(unit_domain, lam23):
    with pytest.raises(ValidationError):
        distance_sweep(gram(unit_domain, lam23, 2), [2, 2], 1, "0.1")
    with pytest.raises(ValidationError):
        distance_sweep(gram(unit_domain, lam23, 2), [1, 2], 2, "0.1")


def test_certificate_fixture(unit_domain, lam23):
    report = distance_sweep(gram(unit_domain, lam23, 2), [2], 1, "0.1")
    cert = lower_bound_certificate(report, "0.1")
    with workbits(320):
        want = sqrt_inv(180) / mp.mpf("0.9") ** 2
    assert rel_err(cert.u_epsilon, want) < 1e-70
    assert cert.passed


def test_certificate_minimizes_over_sections(unit_domain):
    lam = power_exponents(1, 2, 6)
    report = distance_sweep(gram(unit_domain, lam, 6), [1, 2, 3, 4, 5, 6], 1, "0.01")
    cert = lower_bound_certificate(report, "0.1")
    ratios = [r for _, r in cert.section_ratios]
    assert cert.u_epsilon == min(ratios)
    # per-section ratios for fixed n shrink with the distances
    assert all(b <= a for a, b in zip(ratios, ratios[1:]))


def test_certificate_bad_epsilon(unit_domain, lam23):
    report = distance_sweep(gram(unit_domain, lam23, 2), [2], 1, "0.1")
    with pytest.raises(BadEpsilon):
        lower_bound_certificate(report, 1)
    with pytest.raises(BadEpsilon):
        lower_bound_certificate(report, 0)


def test_single_power_certificate(unit_domain):
    lam = explicit_exponents([2])
    report = distance_sweep(gram(unit_domain, lam, 1), [1], 1, "0.1")
    cert = lower_bound_certificate(report, "0.25")
    with workbits(320):
        want = sqrt_inv(5) / mp.mpf("0.75") ** 2
    assert rel_err(cert.u_epsilon, want) < 1e-70
    assert cert.passed


@settings(max_examples=10, deadline=None)
@given(scale=st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(5), Fraction(3, 7)]))
def test_distance_scaling(scale):
    # distances on [0,R] are R**(lam_n + 1/2) times the unit-interval ones
    lam = explicit_exponents([1, 2, 4])
    unit = build_weighted_domain([(0, 1)], [(1, 0)])
    scaled = build_weighted_domain([(0, scale)], [(1, 0)])
    g_unit = gram(unit, lam, 3)
    g_scaled = gram(scaled, lam, 3)
    with workbits(320):
        r = mp.mpf(scale.numerator) / scale.denominator
        for n in range(1, 4):
            want = distance(g_unit, n) * r ** (int(lam.values[n - 1]) + mp.mpf(1) / 2)
            assert rel_err(distance(g_scaled, n), want) < 1e-70


def test_exponent_slopes_reported(unit_domain):
    lam = power_exponents(1, 2, 4)
    report = distance_sweep(gram(unit_domain, lam, 4), [2, 3, 4], 2, "0.01")
    slopes = report.exponent_slopes()
    assert len(slopes) == 3
    # distances are below 1, so the per-exponent log slopes are negative
    assert all(s < 0 for _, s in slopes)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the entries' rounding at 256 bits, amplified by a condition the guard "
                          "under-reads, leaves the worst coefficient at 2^-101.0")
def test_dual_family_keeps_its_promise_on_linear_n32(unit_domain):
    # the section settles at the requested P = 256 bits, so every
    # coefficient should lie within 2^(-P/2) relative of the same family
    # on the same section at 2P bits
    lam = power_exponents(1, 1, 32, 256)
    g = gram(unit_domain, lam, 32, 256)
    bits = g.precision_bits
    want = dual_family(gram(unit_domain, lam, 32, 2 * bits)).coeffs
    worst = max(rel_err(a, b) for got, ref in zip(dual_family(g).coeffs, want)
                for a, b in zip(got, ref))
    assert worst < mp.mpf(2) ** -(bits // 2)
