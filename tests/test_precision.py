import mpmath
from hypothesis import given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import finf, fnan, fninf, from_man_exp, fzero

from muntz import fmt, workbits
from muntz.precision import decimal_digits


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
