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
``workbits`` is for callers that post-process results with mpmath's
operators.  Comparisons of mpfs are exact at any width, but unary
``abs()``, ``-`` and ``+`` on an mpf round it at ``mp.prec``: outside a
``workbits`` block of the result's width, take ``mpf_abs`` of the raw
value instead.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from typing import Union

import mpmath
from mpmath import mp
from mpmath.libmp import (fnone, from_man_exp, from_rational, mpf_mul, mpf_neg, mpf_pos, mpf_sum,
                          prec_to_dps, round_nearest, to_str)

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


def fmt(x, bits: int = DEFAULT_PRECISION_BITS) -> str:
    """Decimal-string rendering at significance derived from the precision.

    The value, an mpf or any input ``to_mpf`` takes, is rounded to
    ``bits`` and rendered on its raw value: what ``mp.nstr`` gives for
    that rounding inside ``workbits(bits)``."""
    raw = (x if isinstance(x, mpmath.mpf) else to_mpf(x, bits))._mpf_
    return to_str(mpf_pos(raw, bits, round_nearest), decimal_digits(bits), strip_zeros=True)


def _dot(a, b, prec, minus=None) -> tuple:
    """sum(a_i b_i) of raw values, less the raw ``minus`` when given:
    exact products, rounded once.

    Bit for bit ``mpf_sum`` of the ``mpf_mul`` products followed by
    ``mpf_neg(minus)``, at ``prec`` and round-to-nearest: its loop, drop
    branch past 2 * prec included, fed each product's mantissa and
    exponent directly, with -minus taken as minus times -1.  An inf or
    nan operand takes the list form.
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


def _shown(raw, bits: int) -> str:
    """A raw mpf in a message, as ``str()`` prints it at width ``bits``."""
    return to_str(raw, prec_to_dps(bits))
