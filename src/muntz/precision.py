"""Arbitrary-precision plumbing shared by all modules.

Inputs arrive as decimal strings, ints, floats or Fractions and are held
exactly as rationals wherever possible, so that recomputing at a higher
mantissa width never inherits rounding from an earlier, coarser parse.

Every library function takes its width as an argument, a section's
``precision_bits`` or a ``precision_bits`` parameter: each step is a raw
``mpf_*`` call at that width, or ``mp.fmul``, ``mp.fdiv``, ``mp.sqrt``,
``mp.ln`` and the like with ``prec=``, and no module reads or sets the
process-global ``mp.prec``.  So a value is the same bits at any ambient
width, and a worker of the fork-map pool computes at the width it was
handed.  Every sum of products in the library is one ``_dot``: the
exact products, summed exactly and rounded once at the width passed.
Where an operand serves many dots, its reader aligns it once
(``_aligned``: the signed mantissas shifted to one exponent) and takes
each dot as ``_exact_dot``, ``_dot``'s bits from one C-level integer
sum whenever no part of the sum could be dropped; a vector whose
exponents spread past that window is not shifted, and its dots are
``_dot``'s.  This module alone rounds a raw integer sum.
``workbits`` is for callers that post-process results with mpmath's
operators.  Comparisons of mpfs are exact at any width, but unary
``abs()``, ``-`` and ``+`` on an mpf round it at ``mp.prec``: outside a
``workbits`` block of the result's width, take ``mpf_abs`` of the raw
value instead.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, repeat
from operator import lshift, mul
from typing import Union

import mpmath
from mpmath import mp
from mpmath.libmp import (fnone, from_man_exp, from_rational, fzero, mpf_mul, mpf_neg, mpf_pos,
                          mpf_sum, prec_to_dps, round_nearest, to_str)

from .errors import NotANumber, ValidationError

DEFAULT_PRECISION_BITS = 256
MAX_PRECISION_BITS = 4096
MIN_PRECISION_BITS = 64
# Fraction builds 10**|e| for a decimal exponent e, which takes 12 s at
# e = 10**7 and grows from there, so one config value could hang a run.
MAX_DECIMAL_EXPONENT = 10_000
_EXPONENT = re.compile(r"[eE][-+]?0*([0-9_]*)\s*$")

Real = Union[int, float, str, Fraction, mpmath.mpf]


def workbits(bits: int):
    """Context manager setting ``mp.prec``, the width of mpmath's
    operators, for callers; the library itself never enters one."""
    return mp.workprec(bits)


def to_fraction(x: Real) -> Fraction:
    """Exact rational capture of a numeric input.

    Decimal strings parse exactly ("0.1" -> 1/10); floats contribute their
    exact binary value; mpf values are man * 2**exp, also exact.  Anything
    else, including booleans, non-finite values and decimal exponents
    beyond +-MAX_DECIMAL_EXPONENT, raises NotANumber.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise NotANumber("boolean is not a number")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        exponent = _EXPONENT.search(x)
        digits = exponent.group(1).replace("_", "") if exponent else ""
        if len(digits) > 5 or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise NotANumber(f"{x!r} has a decimal exponent beyond {MAX_DECIMAL_EXPONENT}")
    if isinstance(x, (str, float)):
        try:
            return Fraction(x.strip() if isinstance(x, str) else x)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise NotANumber(f"{x!r} is not a finite number") from exc
    if isinstance(x, mpmath.mpf):
        sign, man, exp, _ = x._mpf_
        if man == 0 and exp != 0:
            raise NotANumber("cannot capture non-finite value as rational")
        frac = Fraction(man) * Fraction(2) ** exp
        return -frac if sign else frac
    raise NotANumber(f"cannot interpret {type(x).__name__} as a real number")


def to_int(x: Real) -> int:
    """An integer input given as an int or an integral decimal string."""
    fr = to_fraction(x)
    if fr.denominator != 1:
        raise NotANumber(f"{x!r} is not an integer")
    return fr.numerator


def frac_str(fr: Fraction) -> str:
    """Exact decimal-free rendering: "3" or "1/2".

    Python renders an int of more than 4300 digits (its default limit) as
    text only by raising ValueError, which a value such as 1e-4400 reaches
    within MAX_DECIMAL_EXPONENT; that is a ValidationError here."""
    try:
        if fr.denominator == 1:
            return str(fr.numerator)
        return f"{fr.numerator}/{fr.denominator}"
    except ValueError as exc:
        raise ValidationError("an exact value has too many digits to be written out; "
                              "give it with fewer") from exc


def mpf_from_fraction(fr: Fraction, bits: int) -> mpmath.mpf:
    """Correctly rounded mpf of an exact rational at the given width:
    ``from_rational`` takes the width itself, so no ``workbits`` block."""
    return mp.make_mpf(from_rational(fr.numerator, fr.denominator, bits, round_nearest))


def to_mpf(x: Real, bits: int) -> mpmath.mpf:
    """Parse any accepted numeric input at the given width."""
    return mpf_from_fraction(to_fraction(x), bits)


def decimal_digits(bits: int) -> int:
    # log10(2) = 0.3010...; one extra guard digit keeps round-trips exact
    return max(17, int(bits * 0.3010299956639812) + 1)


# log2(10) as mpmath's decimal conversion takes it, the binary64 math.log(10, 2)
_LOG2_10 = 3.3219280948873626


def fmt(x, bits: int = DEFAULT_PRECISION_BITS) -> str:
    """Decimal-string rendering at significance derived from the precision.

    The value, an mpf or any input ``to_mpf`` takes, is rounded to
    ``bits`` and rendered on its raw value: what ``mp.nstr`` gives for
    that rounding inside ``workbits(bits)``, that is mpmath's
    ``to_str(raw, decimal_digits(bits), strip_zeros=True)``.

    Where mpmath takes its plain path, a nonzero value whose binary
    magnitude |exp + bc| is at most 3500 and a digit string shorter than
    250 (``decimal_digits(bits) + 3``, up to 817 bits), its steps are
    taken here inline, on the same integers and the same binary64 digit
    counts: one multiply of the mantissa by a power of ten, one shift and
    one ``str``, then mpmath's rounding on the digit string, its choice
    of fixed or scientific notation and its stripped zeros.  Zero, inf,
    nan, a wider digit string (mpmath splits its ``str``) and a magnitude
    past 3500 (mpmath scales by a rounded power of ten first) go to
    mpmath itself."""
    sign, man, exp, bc = raw = (x if isinstance(x, mpmath.mpf) else to_mpf(x, bits))._mpf_
    if bc > bits:   # a normalized value of at most ``bits`` bits is its own rounding
        sign, man, exp, bc = raw = mpf_pos(raw, bits, round_nearest)
    dps = decimal_digits(bits)
    if not man or dps + 3 >= 250 or not -3500 <= exp + bc <= 3500:
        return to_str(raw, dps, strip_zeros=True)
    # to_digits_exp at dps + 3 digits: man * 2**exp as a fixed-point number
    # of fixprec bits (exact, as fixprec + exp >= 0 at this width), taken
    # to fixdps decimal digits, rounded down
    fixprec = max(int((dps + 3) * _LOG2_10) + 10 - exp - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    man *= 10 ** fixdps
    digits = str(man << exp if exp >= 0 else man >> -exp)
    point = len(digits) - fixdps - 1   # the decimal exponent of the first digit
    # to_str: dps digits, rounded half up on the next one, digits[dps] > "4"
    if digits[dps:dps + 1] > "4":
        head = digits[:dps].rstrip("9")
        if head:
            digits = head[:-1] + str(int(head[-1]) + 1) + "0" * (dps - len(head))
        else:
            digits, point = "1" + "0" * (dps - 1), point + 1
    else:
        digits = digits[:dps]
    # fixed notation strictly between min(-(dps // 3), -5) and dps, where
    # dps >= 17; trailing zeros stripped down to one after the point
    if -(dps // 3) < point < dps:
        if point < 0:
            text = "0." + "0" * (-point - 1) + digits
        else:
            text = digits[:point + 1] + "." + digits[point + 1:]
        point = 0
    else:
        text = digits[:1] + "." + digits[1:]
    text = text.rstrip("0")
    if text[-1] == ".":
        text += "0"
    if sign:
        text = "-" + text
    return f"{text}e{point:+d}" if point else text


def _dot(a, b, prec, minus=None) -> tuple:
    """sum(a_i b_i) of raw values, less the raw ``minus`` when given:
    exact products, rounded once.

    Bit for bit ``mpf_sum`` of the ``mpf_mul`` products followed by
    ``mpf_neg(minus)``, at ``prec`` and round-to-nearest: its loop, drop
    branch past 2 * prec included, fed each product's mantissa and
    exponent directly, with -minus taken as minus times -1.  An inf or
    nan operand takes the list form.  The drop branch fires only where
    the exponents of the nonzero products and ``minus`` span more than
    2 * prec: inside that window the sum is exact, and ``_exact_dot``
    forms it from operands aligned once (``_aligned``).
    """
    pairs = zip(a, b) if minus is None else chain(zip(a, b), ((minus, fnone),))
    limit = prec * 2 or 1000000
    man = exp = 0
    for (xsign, xman, xexp, xbc), (ysign, yman, yexp, ybc) in pairs:
        if not (xman and yman):
            if (not xman and xexp) or (not yman and yexp):
                terms = [mpf_mul(p, q) for p, q in zip(a, b)]
                if minus is not None:
                    terms.append(mpf_neg(minus))
                return mpf_sum(terms, prec, round_nearest)
            continue
        pman = xman * yman
        if xsign != ysign:
            pman = -pman
        pexp = xexp + yexp
        delta = pexp - exp
        if delta >= 0:
            if delta > limit and (not man or delta - abs(man).bit_length() > limit):
                man, exp = pman, pexp
            else:
                man += pman << delta
        elif -delta > limit and -delta - abs(pman).bit_length() > limit:
            if not man:
                man, exp = pman, pexp
        else:
            man = (man << -delta) + pman
            exp = pexp
    return from_man_exp(man, exp, prec, round_nearest)


def _aligned(raw, prec) -> tuple:
    """The aligned form (raw, mans, exp, spread) of the raw vector ``raw``,
    for ``_exact_dot`` at ``prec``: ``raw`` itself, ``mans`` its signed
    mantissas, each shifted to ``exp``, the smallest exponent of a
    nonzero entry, so that entry i is mans[i] * 2**exp exactly, and
    ``spread`` the largest such exponent less ``exp``.  ``exp`` is None
    when no entry is nonzero (``spread`` 0 then).  Where an entry is inf
    or nan, or the spread is past ``_dot``'s window of 2 * ``prec``, no
    shift is made, since every dot of the vector falls back to ``_dot``:
    the form is (raw, [], None, None).  So a shift costs at most the
    window in bits, however far apart the exponents lie.  One shift per
    entry, which costs about what an exact dot saves on one product, so
    it pays only for a vector that serves many dots.  A plain tuple, as
    ``_prepended`` makes one per entry of a back solve."""
    exps = [exp for _, man, exp, _ in raw if man]
    if len(exps) < len(raw) and any(exp for _, man, exp, _ in raw if not man):
        return raw, [], None, None
    if not exps:
        return raw, [0] * len(raw), None, 0
    lo, hi = min(exps), max(exps)
    if hi - lo > (prec * 2 or 1000000):   # past _dot's limit
        return raw, [], None, None
    return raw, [((-man if sign else man) << (exp - lo)) if man else 0
                 for sign, man, exp, _ in raw], lo, hi - lo


def _prepended(a: tuple, v, prec) -> tuple:
    """The aligned form at ``prec`` of [v, *raw] from the aligned form
    ``a`` of raw: v's mantissa shifted to a's exponent, or a's mantissas
    shifted to v's when v's exponent is the new smallest; the form of no
    shift, as ``_aligned`` gives it, once an entry is inf or nan or the
    spread is past the window."""
    sign, man, exp, _ = v
    raw, mans, lo, spread = a
    raw = [v, *raw]
    if spread is None or (exp and not man):   # no shift, or v inf or nan
        return raw, [], None, None
    if not man:
        return raw, [0, *mans], lo, spread
    if sign:
        man = -man
    if lo is None:
        return raw, [man, *mans], exp, 0
    shift, window = exp - lo, prec * 2 or 1000000   # _dot's limit
    if shift >= 0:
        if shift <= spread:
            return raw, [man << shift, *mans], lo, spread
        if shift <= window:
            return raw, [man << shift, *mans], lo, shift
    elif spread - shift <= window:
        return raw, [man, *map(lshift, mans, repeat(-shift))], exp, spread - shift
    return raw, [], None, None


def _exact_dot(a: tuple, b: tuple, prec, minus=None) -> tuple:
    """``_dot(raw_a, raw_b, prec, minus)`` for the aligned forms a and b
    of raw_a and raw_b (``_aligned``), bit for bit.  Where the nonzero
    products, whose exponents lie in [a.exp + b.exp, a.exp + b.exp +
    a.spread + b.spread], and ``minus`` span at most ``_dot``'s window of
    2 * prec, no part of the sum is dropped, and it is one C-level
    ``sum(map(mul, ...))`` of the aligned mantissas, ``minus`` shifted
    in, rounded once; where an operand has no nonzero entry, it is
    -minus rounded, as ``_dot`` takes it alone.  Otherwise, and for an
    operand in the form of no shift (an inf or nan entry, or a spread
    past the window), it is ``_dot`` itself."""
    araw, amans, exp, aspread = a
    braw, bmans, bexp, bspread = b
    if minus is not None and not minus[1]:
        if minus[2]:   # inf or nan
            return _dot(araw, braw, prec, minus)
        minus = None
    if exp is None or bexp is None:
        if aspread is None or bspread is None:
            return _dot(araw, braw, prec, minus)
        # every product is zero, and the sum is -minus alone
        return fzero if minus is None else mpf_neg(minus, prec, round_nearest)
    exp += bexp
    span = aspread + bspread
    window = prec * 2 or 1000000   # _dot's limit
    if minus is None:
        if span > window:
            return _dot(araw, braw, prec)
        return from_man_exp(sum(map(mul, amans, bmans)), exp, prec, round_nearest)
    msign, mman, mexp, _ = minus
    # the span of the products and minus together
    span = max(span, mexp - exp) if mexp > exp else span + exp - mexp
    if span > window:
        return _dot(araw, braw, prec, minus)
    man, mman = sum(map(mul, amans, bmans)), mman if msign else -mman
    if mexp >= exp:
        return from_man_exp(man + (mman << (mexp - exp)), exp, prec, round_nearest)
    return from_man_exp((man << (exp - mexp)) + mman, mexp, prec, round_nearest)


def _shown(raw, bits: int) -> str:
    """A raw mpf in a message, as ``str()`` prints it at width ``bits``."""
    return to_str(raw, prec_to_dps(bits))
