"""Arbitrary-precision plumbing shared by all modules.

Inputs arrive as decimal strings, ints, floats or Fractions and are held
exactly as rationals wherever possible, so that recomputing at a higher
mantissa width never inherits rounding from an earlier, coarser parse.

``gram``, ``operator`` and the three callers of ``series._forked_map``
(``christoffel_remez``, ``hereditary_sweep`` and ``dual_family``) take
their width as an argument, the section's ``precision_bits``: each step
is a raw ``mpf_*`` call at that width, or ``mp.fmul``, ``mp.fsub``,
``mp.fdiv`` or ``mp.sqrt`` with ``prec=``, and none of them reads or sets
``mp.prec``.  The mpf glue of the other modules still computes inside
``workbits`` blocks, which set the process-global ``mp.prec``; mpf values
created inside keep their full mantissa when the block exits.
Comparisons of mpfs are exact at any width, but unary ``abs()``, ``-``
and ``+`` on an mpf round it at ``mp.prec``: width-explicit code takes
``mpf_abs`` of the raw value instead.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

import mpmath
from mpmath import mp
from mpmath.libmp import from_rational, mpf_pos, round_nearest, to_str

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
    """Context manager setting the working mantissa width in bits."""
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

    An mpf is rounded to ``bits`` and rendered on its raw value, which is
    what ``mp.nstr(mpmath.mpf(x))`` at that width gives."""
    if isinstance(x, mpmath.mpf):
        return to_str(mpf_pos(x._mpf_, bits, round_nearest), decimal_digits(bits),
                      strip_zeros=True)
    with workbits(bits):
        return mp.nstr(mpmath.mpf(x), decimal_digits(bits), strip_zeros=True)
