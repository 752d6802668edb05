from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import finf, fnan, fninf, from_man_exp, from_rational, fzero, round_nearest

from muntz import fmt, workbits
from muntz.errors import NotANumber
from muntz.precision import MIN_PRECISION_BITS, _dot, decimal_digits


def _nstr_at(x, bits):
    """The rendering ``fmt`` gave an mpf before it worked on raw values."""
    with workbits(bits):
        return mp.nstr(mpmath.mpf(x), decimal_digits(bits), strip_zeros=True)


# zero and the specials, or either sign with up to 6000 mantissa bits and
# binary exponents past 2**15, decimal exponents past +-10**4
RAW = st.one_of(
    st.sampled_from([fzero, finf, fninf, fnan]),
    st.builds(lambda sign, man, exp: from_man_exp(-man if sign else man, exp),
              st.booleans(), st.integers(1, 2 ** 6000), st.integers(-40000, 40000)),
)


@settings(max_examples=300, deadline=None)
@given(raw=RAW, bits=st.integers(64, 4096))
def test_fmt_of_mpf_equals_nstr_at_the_width(raw, bits):
    x = mp.make_mpf(raw)
    assert fmt(x, bits) == _nstr_at(x, bits)


def test_fmt_rounds_to_the_width_first():
    # 1 + 2**-100 is 1 at 64 bits and keeps its last bit at 128
    with workbits(256):
        x = 1 + mp.mpf(2) ** -100
    assert fmt(x, 64) == "1.0"
    assert fmt(x, 128) == _nstr_at(x, 128) != "1.0"
    assert fmt("0.1", 64) == _nstr_at("0.1", 64)   # a string is parsed at the width


@settings(max_examples=200, deadline=None)
@given(fr=st.fractions(), bits=st.integers(64, 1024))
def test_fmt_of_a_fraction_is_its_rounding_at_the_width(fr, bits):
    rounded = mp.make_mpf(from_rational(fr.numerator, fr.denominator, bits, round_nearest))
    assert fmt(fr, bits) == _nstr_at(rounded, bits)


# mpmath parses a decimal exponent beyond +-400 through a product rounded
# twice, so only within that range is its parse the correctly rounded one
DECIMAL = st.builds("{}{}.{}e{}".format, st.sampled_from(["", "-", "+"]),
                    st.integers(0, 10 ** 30), st.integers(0, 10 ** 30), st.integers(-400, 400))


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(st.integers(-2 ** 300, 2 ** 300), DECIMAL,
                   st.floats(allow_nan=False, allow_infinity=False)),
       bits=st.integers(64, 1024))
def test_fmt_renders_ints_strings_and_floats_as_mpmath_parses_them(x, bits):
    assert fmt(x, bits) == _nstr_at(x, bits)


@pytest.mark.parametrize("x", ["inf", "nan", True, float("inf")])
def test_fmt_rejects_what_to_mpf_rejects(x):
    with pytest.raises(NotANumber):
        fmt(x, 64)


def _exact(raw):
    sign, man, exp, _ = raw
    return Fraction(-man if sign else man) * Fraction(2) ** exp


@st.composite
def _dot_operands(draw):
    """Operands of ``_dot`` at a width P, P-bit mantissas whose products
    and ``minus`` have exponents spanning fewer than P bits, so that no
    term is dropped and the exact sum has up to 3P bits to round."""
    bits = draw(st.integers(MIN_PRECISION_BITS, 512))
    base, half = draw(st.integers(-3000, 3000)), bits // 2

    def raw(scale):
        return st.builds(lambda sign, man, exp: from_man_exp(-man if sign else man,
                                                             scale * base + exp),
                         st.booleans(), st.integers(0, 2 ** (scale * bits) - 1),
                         st.integers(0, scale * half - 1))

    n = draw(st.integers(0, 8))
    a, b = (draw(st.lists(raw(1), min_size=n, max_size=n)) for _ in range(2))
    return a, b, bits, draw(st.none() | raw(2))


@settings(max_examples=500, deadline=None)
@given(operands=_dot_operands())
def test_dot_is_the_exact_sum_rounded_once(operands):
    # the one rounding rule against exact rationals: sum a_i b_i - minus,
    # rounded once to nearest at the width
    a, b, bits, minus = operands
    exact = sum((_exact(x) * _exact(y) for x, y in zip(a, b)), Fraction(0))
    if minus is not None:
        exact -= _exact(minus)
    want = from_rational(exact.numerator, exact.denominator, bits, round_nearest)
    assert _dot(a, b, bits, minus) == want
