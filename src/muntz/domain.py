"""Weighted integration domains: finite unions of intervals with
piecewise power-law weights, and their exact power moments.

The weight on each interval is ``coeff * x**power`` with coeff > 0 and
power > -1, so every moment integral has a closed form and no quadrature
error enters the Gram matrices built downstream.  One kernel,
``_moments``, evaluates that closed form for the Gram sections, the
target moments, ``power_moment`` and the weight mass alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import (mpf_add, mpf_div, mpf_exp, mpf_log, mpf_mul, mpf_pow, mpf_sum,
                          round_nearest)

from .errors import (
    DegenerateInterval,
    MalformedConfig,
    NonintegrableWeight,
    OverlappingIntervals,
    ValidationError,
)
from .precision import (
    DEFAULT_PRECISION_BITS,
    Real,
    _dot,
    frac_str,
    mpf_from_fraction,
    to_fraction,
)


@dataclass(frozen=True)
class WeightedDomain:
    """A finite union of disjoint intervals with one weight piece each.

    Attributes
    ----------
    r_a : essential supremum of the set (largest right endpoint).  It is
        also the weighted essential supremum r_w, because the weight is
        strictly positive on every interval.
    total_measure : Lebesgue measure of the union.
    weight_mass : integral of the weight over the union, the moment of
        order 0.
    precision_bits : mantissa width the displayed mpf fields were built at.
    """

    r_a: mpmath.mpf
    total_measure: mpmath.mpf
    weight_mass: mpmath.mpf
    precision_bits: int
    # exact (lo, hi, coeff, power) per piece; source of truth for recomputation
    pieces: Tuple[Tuple[Fraction, Fraction, Fraction, Fraction], ...]

    @property
    def is_unit_lebesgue(self) -> bool:
        """True when the domain is exactly [0, 1] with weight 1."""
        return self.pieces == (((Fraction(0), Fraction(1), Fraction(1), Fraction(0))),)

    def r_a_at(self, bits: int) -> mpmath.mpf:
        """r_A rounded at ``bits``, as a domain built at that width holds it."""
        return mpf_from_fraction(max(hi for _, hi, _, _ in self.pieces), bits)


def build_weighted_domain(
    intervals: Sequence[Tuple[Real, Real]],
    weights: Sequence[Tuple[Real, Real]],
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> WeightedDomain:
    """Validate and assemble a weighted domain.

    Parameters
    ----------
    intervals : sequence of (lo, hi) pairs; pairwise disjoint once sorted.
        Shared endpoints count as overlap and are rejected, not merged.
    weights : sequence of (coeff, power) pairs, one per interval.
    precision_bits : width at which the stored mpf fields are rendered.

    Raises
    ------
    DegenerateInterval, OverlappingIntervals, NonintegrableWeight
    """
    if not intervals or not weights:
        raise ValidationError("need at least one interval and one weight piece")
    if len(intervals) != len(weights):
        raise ValidationError(
            f"{len(intervals)} intervals but {len(weights)} weight pieces"
        )

    pieces = []
    for (lo, hi), (coeff, power) in zip(intervals, weights):
        lo_f, hi_f = to_fraction(lo), to_fraction(hi)
        c_f, p_f = to_fraction(coeff), to_fraction(power)
        if lo_f < 0:
            raise DegenerateInterval(f"interval start {lo_f} is negative")
        if hi_f <= lo_f:
            raise DegenerateInterval(f"interval [{lo_f}, {hi_f}] has hi <= lo")
        if c_f <= 0:
            raise ValidationError(f"weight coefficient {c_f} must be positive")
        if p_f <= -1:
            raise NonintegrableWeight(
                f"weight power {p_f} <= -1 is not integrable near 0"
            )
        pieces.append((lo_f, hi_f, c_f, p_f))

    pieces.sort(key=lambda p: p[0])
    for (_, hi_prev, _, _), (lo_next, _, _, _) in zip(pieces, pieces[1:]):
        if lo_next <= hi_prev:
            raise OverlappingIntervals(
                f"intervals meet at or before x = {hi_prev}"
            )

    total = sum((hi - lo for lo, hi, _, _ in pieces), Fraction(0))
    r_a = max(hi for _, hi, _, _ in pieces)

    return WeightedDomain(
        r_a=mpf_from_fraction(r_a, precision_bits),
        total_measure=mpf_from_fraction(total, precision_bits),
        weight_mass=mp.make_mpf(_moments(pieces, [mp.zero], precision_bits)(0, 0)),
        precision_bits=precision_bits,
        pieces=tuple(pieces),
    )


def _moments(pieces, exps: Sequence[mpmath.mpf], bits: int):
    """The raw moment of order exps[i] + exps[j] at width ``bits``, as a
    function of (i, j); every moment in the library comes from here.

    On a piece [a, b] with weight c * x**p the moment is
    (c b**(p+1) u_i u_j - c a**(p+1) v_i v_j) / (e_i + e_j + p + 1)
    with u_i = b**e_i and v_i = a**e_i (v only when a > 0), so the powers
    are taken once per exponent and piece.  The numerator is one sum of
    exact products, rounded once; the denominator is e_i + e_j rounded,
    plus p + 1, rounded; the quotient is rounded once, and so is the sum
    over the pieces.  On [0, 1] with unit weight this is
    1 / (e_i + e_j + 1).  The vectors c b**(p+1) u and u are the
    generators of the Cauchy-like section.
    """
    exps = [e._mpf_ for e in exps]

    def raw(fr):
        return mpf_from_fraction(fr, bits)._mpf_

    gens = []
    for lo, hi, coeff, power in pieces:
        p1, scaled, powers = raw(power + 1), [], []
        for x, c in ((hi, coeff), (lo, -coeff)):
            if x:
                # the exact products (+-c x**(p+1)) x**e_i, and x**e_i
                scale = mpf_mul(raw(c), mpf_pow(raw(x), p1, bits, round_nearest),
                                bits, round_nearest)
                powers.append(_powers(raw(x), exps, bits))
                scaled.append([mpf_mul(scale, u) for u in powers[-1]])
        # by exponent index, its values at the piece's ends
        gens.append((p1, list(zip(*scaled)), list(zip(*powers))))

    def moment(i: int, j: int) -> tuple:
        s = mpf_add(exps[i], exps[j], bits, round_nearest)
        return mpf_sum([mpf_div(_dot(scaled[i], powers[j], bits),
                                mpf_add(s, p1, bits, round_nearest), bits, round_nearest)
                        for p1, scaled, powers in gens], bits, round_nearest)

    return moment


def _powers(x, lams, prec: int) -> List[tuple]:
    """x**lam for a raw x >= 0 and each raw exponent, bit for bit what
    ``mpf_pow`` (and so ``x ** lam``) gives: whole and half-integer
    exponents go through it, every other one is exp(lam * log x) with
    ``mpf_pow``'s roundings and the one log x taken once."""
    log_x = mpf_log(x, prec + 10, round_nearest) if any(lam[2] < -1 for lam in lams) else None
    return [mpf_pow(x, lam, prec, round_nearest) if lam[2] >= -1
            else mpf_exp(mpf_mul(lam, log_x), prec, round_nearest) for lam in lams]


def power_moment(wd: WeightedDomain, s: Real, precision_bits: Optional[int] = None):
    """Weighted moment: the integral of x**s * w(x) over the domain.

    The entry of order s + 0 of ``_moments``, from the closed form
    coeff * (hi**(s+power+1) - lo**(s+power+1)) / (s+power+1) per piece.
    """
    bits = precision_bits or wd.precision_bits
    if isinstance(s, mpmath.mpf):
        s_m = s
    else:
        s_m = mpf_from_fraction(to_fraction(s), bits)
    if s_m < 0:
        raise ValidationError(f"moment order s = {s_m} must be nonnegative")
    return mp.make_mpf(_moments(wd.pieces, [s_m, mp.zero], bits)(0, 1))


def domain_from_json(obj: dict, precision_bits: int = DEFAULT_PRECISION_BITS) -> WeightedDomain:
    """Build from the JSON descriptor
    {"intervals":[{"lo":"0","hi":"1"}], "weights":[{"coeff":"1","power":"0"}]}.

    Values may be decimal strings, which is the lossless form at high
    precision; plain JSON numbers are also accepted.
    """
    try:
        intervals = [(iv["lo"], iv["hi"]) for iv in obj["intervals"]]
        weights = [(wp["coeff"], wp["power"]) for wp in obj["weights"]]
    except (KeyError, TypeError) as exc:
        raise MalformedConfig(f"bad domain descriptor: {exc}") from exc
    return build_weighted_domain(intervals, weights, precision_bits)


def domain_to_json(wd: WeightedDomain) -> dict:
    """Inverse of ``domain_from_json``; values as exact decimal strings."""
    return {
        "intervals": [
            {"lo": frac_str(lo), "hi": frac_str(hi)} for lo, hi, _, _ in wd.pieces
        ],
        "weights": [
            {"coeff": frac_str(c), "power": frac_str(p)} for _, _, c, p in wd.pieces
        ],
    }

