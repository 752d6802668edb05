from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from muntz import build_weighted_domain, power_exponents, power_moment, workbits
from muntz.errors import (
    DegenerateInterval,
    NonintegrableWeight,
    OverlappingIntervals,
    ValidationError,
)

from muntz.domain import _moments
from muntz.precision import mpf_from_fraction

from conftest import rel_err


def test_unit_interval_unit_weight():
    wd = build_weighted_domain([(0, 1)], [(1, 0)])
    assert wd.r_a == 1
    assert wd.total_measure == 1
    assert wd.weight_mass == 1


def test_two_piece_measure_additivity():
    wd = build_weighted_domain([(0, 0.5), (0.75, 1)], [(1, 0), (1, 0)])
    assert wd.r_a == 1
    assert rel_err(wd.total_measure, "0.75") < 1e-70


def test_overlap_rejected():
    with pytest.raises(OverlappingIntervals):
        build_weighted_domain([(0, 0.5), (0.4, 1)], [(1, 0), (1, 0)])


def test_shared_endpoint_rejected_not_merged():
    with pytest.raises(OverlappingIntervals):
        build_weighted_domain([(0, 0.5), (0.5, 1)], [(1, 0), (1, 0)])


def test_degenerate_interval():
    with pytest.raises(DegenerateInterval):
        build_weighted_domain([(1, 1)], [(1, 0)])
    with pytest.raises(DegenerateInterval):
        build_weighted_domain([(-0.5, 1)], [(1, 0)])


def test_nonintegrable_weight():
    with pytest.raises(NonintegrableWeight):
        build_weighted_domain([(0, 1)], [(1, -1)])


def test_nonpositive_coefficient():
    with pytest.raises(ValidationError):
        build_weighted_domain([(0, 1)], [(0, 0)])


def test_length_mismatch():
    with pytest.raises(ValidationError):
        build_weighted_domain([(0, 1)], [(1, 0), (1, 0)])


def test_decimal_string_ingestion_is_exact():
    wd = build_weighted_domain([("0.1", "0.3")], [("1", "0")])
    assert wd.pieces[0][0] == Fraction(1, 10)
    assert wd.pieces[0][1] == Fraction(3, 10)


@pytest.mark.parametrize(
    "intervals,weights,s,expected",
    [
        ([(0, 1)], [(1, 0)], 5, Fraction(1, 6)),
        ([(0, 2)], [(1, 0)], 1, 2),
        ([(0, 1)], [(1, 1)], 3, Fraction(1, 5)),
        ([(0, 0.5), (0.75, 1)], [(1, 0), (1, 0)], 0, Fraction(3, 4)),
    ],
)
def test_power_moment_fixtures(intervals, weights, s, expected):
    wd = build_weighted_domain(intervals, weights)
    want = Fraction(expected)
    with workbits(320):
        want_m = mp.mpf(want.numerator) / want.denominator
    assert rel_err(power_moment(wd, s), want_m) < 1e-70


def test_moment_rejects_negative_order():
    wd = build_weighted_domain([(0, 1)], [(1, 0)])
    with pytest.raises(ValidationError):
        power_moment(wd, -1)


@settings(max_examples=40, deadline=None)
@given(
    s=st.integers(min_value=0, max_value=30),
    split=st.fractions(min_value="1/10", max_value="9/10"),
)
def test_moment_additivity_over_union(s, split):
    whole = build_weighted_domain([(0, 1)], [(1, 0)])
    eps = Fraction(1, 1000)
    left = build_weighted_domain([(0, split)], [(1, 0)])
    right = build_weighted_domain([(split + eps, 1 + eps)], [(1, 0)])
    joined = build_weighted_domain(
        [(0, split), (split + eps, 1 + eps)], [(1, 0), (1, 0)]
    )
    got = power_moment(joined, s)
    with workbits(320):
        want = power_moment(left, s, 320) + power_moment(right, s, 320)
    assert rel_err(got, want) < 1e-70


@settings(max_examples=40, deadline=None)
@given(
    s=st.fractions(min_value=0, max_value=20),
    scale=st.fractions(min_value="1/4", max_value=8),
)
def test_moment_scaling_law(s, scale):
    # scaling the domain by R multiplies the s-th moment by R**(s+1)
    base = build_weighted_domain([(0, 1)], [(1, 0)])
    scaled = build_weighted_domain([(0, scale)], [(1, 0)])
    with workbits(320):
        r = mp.mpf(scale.numerator) / scale.denominator
        sm = mp.mpf(s.numerator) / s.denominator
        want = power_moment(base, s, 320) * r ** (sm + 1)
    assert rel_err(power_moment(scaled, s), want) < 1e-70


@settings(max_examples=30, deadline=None)
@given(
    s1=st.integers(min_value=0, max_value=20),
    step=st.integers(min_value=1, max_value=10),
)
def test_moment_monotonicity(s1, step):
    inside = build_weighted_domain([("0.1", "0.9")], [(1, 0)])
    outside = build_weighted_domain([("1.5", "2.5")], [(1, 0)])
    s2 = s1 + step
    assert power_moment(inside, s1) > power_moment(inside, s2)
    assert power_moment(outside, s1) < power_moment(outside, s2)


def test_cached_moment_equals_fresh_domain():
    # a two-piece domain with a fractional weight power: a moment of a
    # domain in use is bit for bit the one a fresh domain computes
    pieces = ([("0.1", "0.5"), ("0.6", "1.5")], [(1, "0.5"), ("3/2", "-1/3")])
    wd = build_weighted_domain(*pieces)
    orders = ["0", "1/3", "2.25", 7, "7"]
    first = [power_moment(wd, s) for s in orders]
    for s, value in zip(orders, first):
        assert power_moment(build_weighted_domain(*pieces), s) == value
    for bits in (128, 512):
        assert power_moment(wd, "2.25", bits) == power_moment(
            build_weighted_domain(*pieces), "2.25", bits)
    assert wd.weight_mass == power_moment(build_weighted_domain(*pieces), 0)


SECTION_DOMAINS = {
    "unit": ([(0, 1)], [(1, 0)]),
    "two_piece": ([("0", "0.5"), ("0.6", "1")], [(1, 0), (2, 0)]),
    "near_one": ([("0.9", "1")], [(1, 0)]),
    "weighted": ([("0.1", "0.3"), ("0.5", "2")], [(3, "0.5"), (1, "1.5")]),
    "singular_weight": ([(0, 3)], [(1, "-0.5")]),
}
SECTION_FAMILIES = {"squares": (1, 2), "linear": (1, 1), "sqrt": (1, "0.5")}


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("family", sorted(SECTION_FAMILIES))
@pytest.mark.parametrize("domain", sorted(SECTION_DOMAINS))
def test_section_assembly_accuracy(domain, family, bits):
    # every moment of order lam_i + lam_j the kernel gives, and every
    # scalar ``power_moment`` of order 0 (the weight mass) or lam_i, is
    # within 16 units of 2**-P of the closed form taken at P + 128 bits,
    # relative to sum c (b**e + a**e) / e, the size of the terms that
    # cancel on a piece far from 0
    n = 24
    wd = build_weighted_domain(*SECTION_DOMAINS[domain])
    lams = power_exponents(*SECTION_FAMILIES[family], n).values_at(bits)
    moment = _moments(wd.pieces, lams, bits)
    got = {(lams[i], lams[j]): mp.make_mpf(moment(i, j)) for i in range(n) for j in range(i + 1)}
    got.update({(s, 0): power_moment(wd, s, bits) for s in [mp.zero, *lams]})
    wide = bits + 128
    with workbits(wide):
        pieces = [[mpf_from_fraction(v, wide) for v in piece] for piece in wd.pieces]
        for (s, t), value in got.items():
            want = scale = mp.mpf(0)
            for lo, hi, coeff, power in pieces:
                e = s + t + power + 1
                hi_pow, lo_pow = hi ** e, lo ** e if lo else mp.mpf(0)
                want += coeff * (hi_pow - lo_pow) / e
                scale += coeff * (hi_pow + lo_pow) / e
            assert abs(value - want) <= 16 * scale * mp.mpf(2) ** -bits


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("family", sorted(SECTION_FAMILIES))
def test_unit_section_equals_per_order_moments(family, bits):
    # 1**lam = 1, so on [0, 1] with unit weight each moment of order
    # lam_i + lam_j is 1 / (lam_i + lam_j + 1), bit for bit as the mpf
    # operators round it
    wd = build_weighted_domain([(0, 1)], [(1, 0)])
    lams = power_exponents(*SECTION_FAMILIES[family], 24).values_at(bits)
    moment = _moments(wd.pieces, lams, bits)
    with workbits(bits):
        assert [[moment(i, j) for j in range(i + 1)] for i in range(24)] == [
            [(1 / (lams[i] + lams[j] + 1))._mpf_ for j in range(i + 1)] for i in range(24)]
