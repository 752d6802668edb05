import math
from fractions import Fraction

from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import (finf, fnan, fninf, from_man_exp, from_rational, fzero, mpf_pos,
                          round_nearest, to_str)

from muntz import fmt, workbits
from muntz.errors import NotANumber
import muntz.precision as precision_module
from muntz.precision import (MIN_PRECISION_BITS, _aligned, _dot, _exact_dot, _prepended,
                             decimal_digits)


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


def test_the_log2_10_literal_is_mpmaths():
    # mpmath counts its digits with the binary64 math.log(10, 2), which is
    # not math.log2(10); the library names no ``math`` outside its bound pass
    assert precision_module._LOG2_10 == math.log(10, 2) != math.log2(10)


def _mpmath_text(raw, bits):
    """mpmath's text of ``raw`` rounded to ``bits``, what ``fmt`` promises."""
    return to_str(mpf_pos(raw, bits, round_nearest), decimal_digits(bits), strip_zeros=True)


# the widths on either side of mpmath's split str: a digit string, of
# decimal_digits + 3 digits, of 249 (the widest fmt converts itself) or 250
CUT = {n: [b for b in range(MIN_PRECISION_BITS, 4097) if decimal_digits(b) + 3 == n]
       for n in (249, 250)}


@st.composite
def _widths_and_raws(draw):
    """A width and a raw value about ``fmt``'s branch points: a binary
    magnitude exp + bc about +-3500, about the decimal exponents where the
    notation turns from fixed to scientific, or anywhere; all-ones
    mantissas; values just below a power of ten, whose run of 9s rounds up
    into the exponent; either sign, and zero."""
    bits = draw(st.one_of(st.integers(MIN_PRECISION_BITS, 4096), st.sampled_from(CUT[249] + CUT[250])))
    dps = decimal_digits(bits)
    sign = draw(st.booleans())
    kind = draw(st.sampled_from(["magnitude", "nines", "zero"]))
    if kind == "zero":
        return bits, fzero
    if kind == "nines":
        k, s, d = draw(st.integers(-40, 40)), draw(st.integers(200, 4200)), draw(st.integers(0, 3))
        man = (10 ** k << s) - d if k >= 0 else (1 << s) // 10 ** -k - d
        return bits, from_man_exp(-man if sign else man, -s)
    bc = draw(st.integers(1, bits + 64))
    man = draw(st.one_of(st.just(2 ** bc - 1), st.integers(2 ** (bc - 1), 2 ** bc - 1)))
    switch = round(draw(st.sampled_from([-(dps // 3), dps])) * math.log2(10))
    magnitude = draw(st.one_of(st.integers(-3503, -3497), st.integers(3497, 3503),
                               st.integers(switch - 8, switch + 8), st.integers(-4200, 4200)))
    return bits, from_man_exp(-man if sign else man, magnitude - bc)


@settings(max_examples=2000, deadline=None)
@given(case=_widths_and_raws())
def test_fmt_is_mpmaths_text_about_its_branch_points(case):
    bits, raw = case
    assert fmt(mp.make_mpf(raw), bits) == _mpmath_text(raw, bits)


@pytest.mark.parametrize("bits, magnitude, mpmath_calls", [
    (256, 0, 0), (256, 3500, 0), (256, -3500, 0), (256, 3501, 1), (256, -3501, 1),
    (max(CUT[249]), 100, 0), (min(CUT[250]), 100, 1), (4096, 0, 1),
])
def test_fmt_leaves_to_mpmath_only_past_its_branch_points(bits, magnitude, mpmath_calls):
    raw = from_man_exp(2 ** 60 + 1, magnitude - 61)
    with mock.patch.object(precision_module, "to_str", wraps=to_str) as spy:
        assert fmt(mp.make_mpf(raw), bits) == _mpmath_text(raw, bits)
    assert spy.call_count == mpmath_calls


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


@st.composite
def _window_operands(draw):
    """Raw vectors a and b of one length and a raw ``minus`` at a width P
    whose nonzero products span just inside, just past or far past
    ``_dot``'s window of 2P bits: a's nonzero entries have exponents in
    [ea, ea + sa], the ends among them, b's in [eb, eb + sb], with sa + sb
    within 3 of 2P or 10**30 past it, and ``minus`` an exponent at or just
    past either end of the products'.
    Entries are zero or of either sign with odd mantissas, so each keeps
    the exponent drawn; now and then an operand holds inf or nan."""
    bits = draw(st.integers(MIN_PRECISION_BITS, 512))
    span = 2 * bits + draw(st.one_of(st.integers(-3, 3), st.just(10 ** 30)))
    sa = draw(st.integers(0, span))
    ea, eb = draw(st.integers(-2000, 2000)), draw(st.integers(-2000, 2000))

    def odd(e, width):
        half = draw(st.integers(0, 2 ** (width - 1) - 1))
        return from_man_exp(-(2 * half + 1) if draw(st.booleans()) else 2 * half + 1, e)

    def vector(n, lo, spread):
        # zeros here and there; of the nonzero entries the first has
        # exponent lo and the last lo + spread
        nonzero = [i for i in range(n) if draw(st.integers(0, 3))]
        exps = {i: draw(st.integers(lo, lo + spread)) for i in nonzero}
        if nonzero:
            exps[nonzero[0]], exps[nonzero[-1]] = lo, lo + spread
        return [odd(exps[i], bits) if i in exps else fzero for i in range(n)]

    n = draw(st.integers(0, 8))
    a, b = vector(n, ea, sa), vector(n, eb, span - sa)
    low, high = ea + eb, ea + eb + span
    minus = draw(st.sampled_from([None, fzero, "low", "high"]))
    if minus in ("low", "high"):
        minus = odd(draw(st.integers(low - 2, low)) if minus == "low"
                    else draw(st.integers(high, high + 2)), 2 * bits)
    special = draw(st.sampled_from([None, None, None, "a", "b", "minus"]))
    value = draw(st.sampled_from([finf, fninf, fnan]))
    if special == "minus":
        minus = value
    elif special and n:
        (a if special == "a" else b)[draw(st.integers(0, n - 1))] = value
    else:
        special = None
    return a, b, bits, minus, special


@settings(max_examples=500, deadline=None)
@given(operands=_window_operands())
def test_exact_dot_is_dot_on_aligned_operands(operands):
    # the aligned exact dot is ``_dot`` bit for bit: one integer sum where
    # the products and minus fit the window of 2P bits, and ``_dot`` itself
    # past it and for inf or nan
    a, b, bits, minus, special = operands
    with mock.patch.object(precision_module, "_dot", wraps=_dot) as fallback:
        got = _exact_dot(_aligned(a, bits), _aligned(b, bits), bits, minus)
    assert got == _dot(a, b, bits, minus)
    ea, eb = ([e for _, man, e, _ in v if man] for v in (a, b))
    if special:
        assert fallback.called
    elif ea and eb:
        lo, hi = min(ea) + min(eb), max(ea) + max(eb)
        if minus is not None and minus[1]:
            lo, hi = min(lo, minus[2]), max(hi, minus[2])
        assert fallback.called == (hi - lo > 2 * bits)
    else:
        # every product is zero: -minus alone, but for an operand whose
        # spread past the window left it unshifted
        assert fallback.called == any(e and max(e) - min(e) > 2 * bits for e in (ea, eb))


@settings(max_examples=300, deadline=None)
@given(raw=st.lists(st.one_of(st.just(fzero), st.sampled_from([finf, fnan]), st.builds(
    lambda sign, man, exp: from_man_exp(-man if sign else man, exp),
    st.booleans(), st.integers(1, 2 ** 300),
    st.one_of(st.integers(-600, 600), st.sampled_from([-10 ** 30, 10 ** 30])))), max_size=10),
    bits=st.integers(MIN_PRECISION_BITS, 700))
def test_prepending_keeps_the_aligned_form(raw, bits):
    # a back solve grows its solution from the last entry up, each entry
    # prepended to the aligned form of those after it, rescaling them when
    # it has a new smallest exponent: the same form as aligning it whole,
    # the form of no shift once the spread passes the window of 2P bits
    grown = (), [], None, 0
    for v in reversed(raw):
        grown = _prepended(grown, v, bits)
    whole = _aligned(raw, bits)
    exps = [exp for _, man, exp, _ in raw if man]
    if exps and max(exps) - min(exps) > 2 * bits:
        # not shifted: at 10**30 bits apart a mantissa would not fit an int
        assert whole[1:] == ([], None, None)
    assert list(grown[0]) == raw and grown[2:] == whole[2:]
    if whole[3] is not None:
        assert grown[1] == whole[1]

