import pytest
from hypothesis import given, settings, strategies as st

from muntz import (build_weighted_domain, explicit_exponents, exponents_from_json, gram,
                   power_exponents)
from muntz import exponents as exponents_module
from muntz.errors import MalformedConfig, NonIncreasing, NonPositive, ValidationError
from muntz.exponents import NONSUMMABLE, SUMMABLE, UNKNOWN, exponents_to_json

from conftest import rel_err


def test_explicit_basic():
    lam = explicit_exponents([2, 3, 5])
    assert lam.gap == 1
    assert lam.summability_tag == UNKNOWN
    assert len(lam) == 3


def test_power_generator_squares():
    lam = power_exponents(1, 2, 4)
    assert [int(v) for v in lam.values] == [1, 4, 9, 16]
    assert lam.gap == 3
    assert lam.summability_tag == SUMMABLE


def test_linear_generator_is_nonsummable():
    lam = power_exponents(1, 1, 5)
    assert lam.summability_tag == NONSUMMABLE
    assert lam.gap == 1


def test_duplicates_rejected():
    with pytest.raises(NonIncreasing):
        explicit_exponents([1.0, 1.0])
    with pytest.raises(NonIncreasing):
        explicit_exponents([2, 1])


def test_nonpositive_rejected():
    with pytest.raises(NonPositive):
        explicit_exponents([0, 1])
    with pytest.raises(NonPositive):
        explicit_exponents([-2, 1])


def test_empty_rejected():
    with pytest.raises(ValidationError):
        explicit_exponents([])


def test_generator_determinism_bit_for_bit():
    a = power_exponents("1", "1.5", 10)
    b = power_exponents("1", "1.5", 10)
    assert a.values == b.values
    assert a.gap == b.gap


def test_json_round_trip():
    lam = exponents_from_json({"kind": "power", "c": "1", "beta": "2", "count": 20})
    assert exponents_to_json(lam) == {"kind": "power", "c": "1", "beta": "2", "count": 20}
    lam2 = exponents_from_json({"kind": "explicit", "values": ["2", "3", "5"]})
    assert exponents_to_json(lam2) == {"kind": "explicit", "values": ["2", "3", "5"]}
    with pytest.raises(MalformedConfig):
        exponents_from_json({"kind": "mystery"})


def test_values_at_higher_precision_irrational_beta():
    lam = power_exponents("1", "1.5", 4, precision_bits=128)
    v128 = lam.values_at(128)
    v512 = lam.values_at(512)
    # 2**1.5 is irrational; the refined parse must agree to 128 bits and
    # carry more correct mantissa beyond
    assert rel_err(v128[1], v512[1]) < 1e-37


@pytest.mark.parametrize("beta", ["0.5", "2"])
def test_values_at_builds_only_the_prefix(beta):
    lam = power_exponents(1, beta, 50)
    for bits in (64, 256):
        assert lam.values_at(bits, 8) == lam.values_at(bits)[:8]
        assert len(lam.values_at(bits, 80)) == 50


def test_section_builds_only_its_exponents(monkeypatch):
    # an 8-section of a 10**4-term generator builds 8 exponents per width
    lam = power_exponents(1, "0.5", 10 ** 4)
    built = []
    materialize = exponents_module._materialize

    def counting(c, beta, count, bits):
        values = materialize(c, beta, count, bits)
        built.append(len(values))
        return values

    monkeypatch.setattr(exponents_module, "_materialize", counting)
    g = gram(build_weighted_domain([(0, 1)], [(1, 0)]), lam, 8, 64)
    assert g.precision_bits > 64 and built == [8, 8]


def test_warm_section_builds_only_the_exponents_it_lacks(monkeypatch):
    # asked again, the section builds no exponent; grown to 12, the 64-bit
    # width builds none, its guard having tripped below 8, and the 128-bit
    # guard trips past row 8, so 256 bits settle
    lam = power_exponents(1, "0.5", 10 ** 4)
    built = []
    materialize = exponents_module._materialize

    def counting(c, beta, count, bits):
        values = materialize(c, beta, count, bits)
        built.append((bits, len(values)))
        return values

    monkeypatch.setattr(exponents_module, "_materialize", counting)
    wd = build_weighted_domain([(0, 1)], [(1, 0)])
    assert gram(wd, lam, 8, 64).precision_bits == 128 and built == [(64, 8), (128, 8)]
    gram(wd, lam, 8, 64)
    assert built == [(64, 8), (128, 8)]
    gram(wd, lam, 12, 64)
    assert built == [(64, 8), (128, 8), (128, 12), (256, 12)]


@settings(max_examples=50, deadline=None)
@given(
    vals=st.lists(
        st.fractions(min_value="1/100", max_value=1000), min_size=1, max_size=12, unique=True
    )
)
def test_gap_positive_for_any_valid_sequence(vals):
    lam = explicit_exponents(sorted(vals))
    assert lam.gap > 0
    assert all(b > a for a, b in zip(lam.values, lam.values[1:]))


@settings(max_examples=30, deadline=None)
@given(
    c=st.fractions(min_value="1/10", max_value=10),
    beta=st.fractions(min_value=1, max_value=3),
    count=st.integers(min_value=1, max_value=15),
)
def test_generator_tags_match_beta(c, beta, count):
    lam = power_exponents(c, beta, count)
    assert lam.summability_tag == (SUMMABLE if beta > 1 else NONSUMMABLE)
