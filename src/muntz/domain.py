"""Weighted integration domains: finite unions of intervals with
piecewise power-law weights, and their exact power moments.

The weight on each interval is ``coeff * x**power`` with coeff > 0 and
power > -1, so every moment integral has a closed form and no quadrature
error enters the Gram matrices built downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    frac_str,
    mpf_from_fraction,
    to_fraction,
    workbits,
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
    weight_mass : integral of the weight over the union.
    precision_bits : mantissa width the displayed mpf fields were built at.

    The moments computed at each width are kept in a table that lives as
    long as the domain (see ``moment_table``).
    """

    r_a: mpmath.mpf
    total_measure: mpmath.mpf
    weight_mass: mpmath.mpf
    precision_bits: int
    # exact (lo, hi, coeff, power) per piece; source of truth for recomputation
    pieces: Tuple[Tuple[Fraction, Fraction, Fraction, Fraction], ...]
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def moment_table(self, bits: int) -> "MomentTable":
        """The memoized moments of this domain at width ``bits``."""
        table = self._tables.get(bits)
        if table is None:
            table = self._tables[bits] = MomentTable(self.pieces, bits)
        return table

    @property
    def is_unit_lebesgue(self) -> bool:
        """True when the domain is exactly [0, 1] with weight 1."""
        return self.pieces == (((Fraction(0), Fraction(1), Fraction(1), Fraction(0))),)


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

    table = MomentTable(pieces, precision_bits)
    with workbits(precision_bits):
        mass = table(mp.mpf(0))
    wd = WeightedDomain(
        r_a=mpf_from_fraction(r_a, precision_bits),
        total_measure=mpf_from_fraction(total, precision_bits),
        weight_mass=mass,
        precision_bits=precision_bits,
        pieces=tuple(pieces),
    )
    wd._tables[precision_bits] = table
    return wd


class MomentTable:
    """The moments of one domain at one width.

    ``section`` assembles the lower rows of a Gram section from the
    powers of each piece's endpoints, O(N * pieces) of them for N
    exponents.  ``__call__`` gives the moment of one scalar order (the
    weight mass, ``power_moment``, target moments), keyed by the exact
    value of the order, so a repeated order returns the stored mpf, bit
    for bit what computing it again would give.
    """

    def __init__(self, pieces, bits: int):
        self.bits = bits
        self._exact = pieces
        self._pieces = [(piece[0] != 0, *(mpf_from_fraction(v, bits) for v in piece))
                        for piece in pieces]
        self._values = {}

    def __call__(self, s: mpmath.mpf) -> mpmath.mpf:
        """The moment of order s >= 0, an mpf; callers check the sign."""
        value = self._values.get(s._mpf_)
        if value is None:
            with workbits(self.bits):
                value = mp.mpf(0)
                # coeff * (hi**e - lo**e) / e with e = s + power + 1, per piece
                for lo_nonzero, lo, hi, coeff, power in self._pieces:
                    e = s + power + 1
                    hi_pow = hi ** e
                    lo_pow = lo ** e if lo_nonzero else mp.mpf(0)
                    value += coeff * (hi_pow - lo_pow) / e
            self._values[s._mpf_] = value
        return value

    def section(self, lams: Sequence[mpmath.mpf]) -> List[List[tuple]]:
        """The raw lower rows of the Gram section of these exponents.

        On a piece [a, b] with weight c * x**p the entry (i, j) is
        (c b**(p+1) u_i u_j - c a**(p+1) v_i v_j) / (lam_i + lam_j + p + 1)
        with u_i = b**lam_i and v_i = a**lam_i (v only when a > 0), so the
        powers are taken once per exponent and piece.  The numerator is one
        sum of exact products, rounded once; the denominator is
        lam_i + lam_j rounded, plus p + 1, rounded; the quotient is rounded
        once, and so is the sum over the pieces.  On [0, 1] with unit
        weight this is 1 / (lam_i + lam_j + 1), what ``__call__`` gives
        for the order lam_i + lam_j.
        """
        prec = self.bits
        lams = [lam._mpf_ for lam in lams]

        def raw(fr):
            return mpf_from_fraction(fr, prec)._mpf_

        gens = []
        for lo, hi, coeff, power in self._exact:
            p1, ends = raw(power + 1), []
            for x, c in ((hi, coeff), (lo, -coeff)):
                if x:
                    # the exact products (+-c x**(p+1)) x**lam_i, and x**lam_i
                    scale = mpf_mul(raw(c), mpf_pow(raw(x), p1, prec, round_nearest),
                                    prec, round_nearest)
                    powers = _powers(raw(x), lams, prec)
                    ends.append(([mpf_mul(scale, u) for u in powers], powers))
            gens.append((p1, ends))
        rows = []
        for i, lam_i in enumerate(lams):
            row = []
            for j in range(i + 1):
                s = mpf_add(lam_i, lams[j], prec, round_nearest)
                row.append(mpf_sum([
                    mpf_div(mpf_sum([mpf_mul(scaled[i], powers[j]) for scaled, powers in ends],
                                    prec, round_nearest),
                            mpf_add(s, p1, prec, round_nearest), prec, round_nearest)
                    for p1, ends in gens], prec, round_nearest))
            rows.append(row)
        return rows


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

    Evaluated piece by piece from the closed form
    coeff * (hi**(s+power+1) - lo**(s+power+1)) / (s+power+1), once per
    (width, s) over the life of the domain.
    """
    bits = precision_bits or wd.precision_bits
    with workbits(bits):
        if isinstance(s, mpmath.mpf):
            s_m = s
        else:
            s_m = mpf_from_fraction(to_fraction(s), bits)
        if s_m < 0:
            raise ValidationError(f"moment order s = {s_m} must be nonnegative")
        return wd.moment_table(bits)(s_m)


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

