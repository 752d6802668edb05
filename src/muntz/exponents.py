"""Validated exponent sequences for power systems {x**lam_n}.

A sequence is a finite, strictly increasing prefix of positive reals.
Summability of 1/lam_n is an infinite-sequence property, so it is only
certified for generator-built sequences (lam_n = c * n**beta) where it
can be decided analytically; explicit lists carry tag "unknown".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import from_int, mpf_mul, mpf_pow, round_nearest

from .errors import MalformedConfig, NonIncreasing, NonPositive, ValidationError
from .precision import (
    DEFAULT_PRECISION_BITS,
    Real,
    frac_str,
    mpf_from_fraction,
    to_fraction,
    to_int,
)

# Past 10**4 exponents a section of them would take ~N**3/3 = 3 * 10**11
# wide multiplications, and a count of 10**12 would never finish being built.
MAX_GENERATOR_COUNT = 10_000
# A whole beta makes c * n**beta an exact integer of beta * log2(n) bits:
# ten of them take a minute at beta = 10**6, 10**4 of them 0.3 s at 100.
MAX_GENERATOR_BETA = 100

SUMMABLE = "summable_certified"
NONSUMMABLE = "nonsummable_certified"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class PowerGenerator:
    """lam_n = c * n**beta for n = 1..count."""

    c: Fraction
    beta: Fraction
    count: int


@dataclass(frozen=True)
class ExponentSequence:
    values: Tuple[mpmath.mpf, ...]
    gap: mpmath.mpf
    summability_tag: str
    generator: Optional[PowerGenerator]
    # exact values when representable (explicit input, or integer beta)
    raw: Optional[Tuple[Fraction, ...]]

    def __len__(self) -> int:
        return len(self.values)

    def values_at(self, bits: int, n: Optional[int] = None) -> Tuple[mpmath.mpf, ...]:
        """The first n exponents (all of them by default) re-derived at the
        requested width; the others are not built.

        Rational sequences round the exact values once; irrational
        generator values are recomputed from (c, beta)."""
        if self.raw is not None:
            return tuple(mpf_from_fraction(v, bits) for v in self.raw[:n])
        gen = self.generator
        return _materialize(gen.c, gen.beta, gen.count if n is None else min(gen.count, n), bits)


def _materialize(c: Fraction, beta: Fraction, count: int, bits: int):
    """c * n**beta for n = 1..count, the power and the product each
    rounded at ``bits``."""
    c_m, b_m = mpf_from_fraction(c, bits)._mpf_, mpf_from_fraction(beta, bits)._mpf_
    return tuple(mp.make_mpf(mpf_mul(c_m, mpf_pow(from_int(n), b_m, bits, round_nearest), bits,
                                     round_nearest)) for n in range(1, count + 1))


def _validate(fracs_or_mpfs) -> None:
    prev = None
    for v in fracs_or_mpfs:
        if v <= 0:
            raise NonPositive(f"exponent {v} is not positive")
        if prev is not None and v <= prev:
            raise NonIncreasing(f"exponents not strictly increasing at {v}")
        prev = v


def explicit_exponents(
    values: Sequence[Real], precision_bits: int = DEFAULT_PRECISION_BITS
) -> ExponentSequence:
    if not list(values):
        raise ValidationError("exponent list is empty")
    raw = tuple(to_fraction(v) for v in values)
    _validate(raw)
    vals = tuple(mpf_from_fraction(v, precision_bits) for v in raw)
    gap = _min_gap(vals, precision_bits)
    return ExponentSequence(
        values=vals,
        gap=gap,
        summability_tag=UNKNOWN,
        generator=None,
        raw=raw,
    )


def power_exponents(
    c: Real, beta: Real, count: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> ExponentSequence:
    c_f, b_f = to_fraction(c), to_fraction(beta)
    if c_f <= 0:
        raise NonPositive(f"generator scale c = {c_f} must be positive")
    if not 1 <= count <= MAX_GENERATOR_COUNT:
        raise ValidationError(f"generator count {count} outside 1..{MAX_GENERATOR_COUNT}")
    if abs(b_f) > MAX_GENERATOR_BETA:
        raise ValidationError(f"generator beta = {b_f} outside "
                              f"-{MAX_GENERATOR_BETA}..{MAX_GENERATOR_BETA}")
    gen = PowerGenerator(c=c_f, beta=b_f, count=count)
    if b_f.denominator == 1 and b_f >= 0:
        raw = tuple(c_f * Fraction(n) ** b_f for n in range(1, count + 1))
        _validate(raw)
        vals = tuple(mpf_from_fraction(v, precision_bits) for v in raw)
    else:
        raw = None
        vals = _materialize(c_f, b_f, count, precision_bits)
        _validate(vals)
    # sum of 1/(c n**beta) converges iff beta > 1
    tag = SUMMABLE if b_f > 1 else NONSUMMABLE
    gap = _min_gap(vals, precision_bits)
    return ExponentSequence(
        values=vals,
        gap=gap,
        summability_tag=tag,
        generator=gen,
        raw=raw,
    )


def _min_gap(vals, bits: int):
    # a single exponent has no gap; lam_1 itself stands in for it
    return min((mp.fsub(b, a, prec=bits) for a, b in zip(vals, vals[1:])), default=vals[0])


def exponents_from_json(obj: dict,
                        precision_bits: int = DEFAULT_PRECISION_BITS) -> ExponentSequence:
    """Build from {"kind": "explicit", "values": [...]} or
    {"kind": "power", "c": "1", "beta": "2", "count": 20}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise MalformedConfig("exponent descriptor needs a 'kind' field")
    kind = obj["kind"]
    if kind == "explicit":
        if not isinstance(obj.get("values"), list):
            raise MalformedConfig("explicit exponents need a values list")
        return explicit_exponents(obj["values"], precision_bits)
    if kind == "power":
        try:
            return power_exponents(obj["c"], obj["beta"], to_int(obj["count"]), precision_bits)
        except KeyError as exc:
            raise MalformedConfig(f"power generator missing field {exc}") from exc
    raise MalformedConfig(f"unknown exponent kind {kind!r}")


def exponents_to_json(lam: ExponentSequence) -> dict:
    if lam.generator is not None:
        gen = lam.generator
        return {
            "kind": "power",
            "c": frac_str(gen.c),
            "beta": frac_str(gen.beta),
            "count": gen.count,
        }
    return {"kind": "explicit", "values": [frac_str(v) for v in lam.raw]}

