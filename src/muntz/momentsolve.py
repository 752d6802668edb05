"""Constructive finite-section moment solver.

Given data d_1..d_N, the canonical solution in the section span is
f = sum d_n r_n, whose coefficient vector is G^-1 d; biorthogonality
makes the moment equations hold exactly up to rounding.  A growth fit
|d_n| ~ C * a**lam_n decides whether the data is compatible with a
convergent infinite-section limit (a below the domain radius).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import (from_int, fzero, mpf_abs, mpf_div, mpf_exp, mpf_log, mpf_mul,
                          mpf_sqrt, mpf_sub, mpf_sum, round_nearest)

from .domain import WeightedDomain, _powers
from .errors import NumericalError, ValidationError
from .exponents import ExponentSequence
from .gram import (GramMatrix, _checked_sizes, _inverse_diagonals, _leading_solves, _mpfs,
                   _residual, solve_spd)
from .precision import DEFAULT_PRECISION_BITS, Real, _dot, to_mpf
from .series import MuntzSeries


@dataclass(frozen=True)
class MomentData:
    """Moment targets with their fitted geometric growth envelope."""

    d: Tuple[mpmath.mpf, ...]
    fitted_a: mpmath.mpf
    fitted_c: mpmath.mpf
    growth_ok: bool


def fit_growth(
    d: Sequence[Real],
    lam: ExponentSequence,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """Fit the tightest envelope |d_n| <= C * a**lam_n.

    The base comes from a least-squares line through (lam_n, log |d_n|)
    over the nonzero entries, then C is maximized over all entries so
    the envelope actually covers the data.  Exactly geometric data is
    recovered exactly: d_n = C0 * a0**lam_n gives back (a0, C0).  Where
    the exponents of the nonzero entries all round to one value, no line
    fits, and the fit raises NumericalError: more precision separates
    them.
    """
    if not list(d):
        raise ValidationError("moment data is empty")
    if len(d) > len(lam):
        raise ValidationError("more moment values than exponents")
    bits, rnd = precision_bits, round_nearest
    dv = [mpf_abs(to_mpf(x, bits)._mpf_) for x in d]
    # (lam_n, |d_n|) over the nonzero entries, raw
    points = [(lam_n._mpf_, v) for lam_n, v in zip(lam.values_at(bits, len(dv)), dv) if v != fzero]
    if not points:
        return mp.zero, mp.zero
    xs, ds = zip(*points)
    ys = [mpf_log(v, bits, rnd) for v in ds]
    if len(xs) == 1:
        return mp.make_mpf(mpf_exp(mpf_div(ys[0], xs[0], bits, rnd), bits, rnd)), mp.one
    # least squares slope of log|d| against lam: (m sxy - sx sy) / (m sxx - sx sx)
    m, sx, sy = from_int(len(xs)), mpf_sum(xs, bits, rnd), mpf_sum(ys, bits, rnd)
    num, den = (mpf_sub(mpf_mul(m, _dot(xs, zs, bits), bits, rnd),
                        mpf_mul(sx, sz, bits, rnd), bits, rnd) for zs, sz in ((ys, sy), (xs, sx)))
    if den == fzero:
        raise NumericalError(f"the exponents of the nonzero moments coincide at {bits} bits; "
                             "more precision separates them")
    a = mpf_exp(mpf_div(num, den, bits, rnd), bits, rnd)
    c = max((mpf_div(v, p, bits, rnd) for v, p in zip(ds, _powers(a, xs, bits))), key=mp.make_mpf)
    return mp.make_mpf(a), mp.make_mpf(c)


def build_moment_data(
    wd: WeightedDomain,
    lam: ExponentSequence,
    d: Sequence[Real],
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> MomentData:
    a, c = fit_growth(d, lam, precision_bits)
    dv = tuple(to_mpf(x, precision_bits) for x in d)
    return MomentData(
        d=dv,
        fitted_a=a,
        fitted_c=c,
        growth_ok=a < wd.r_a_at(precision_bits),
    )


def _check_covered(data: MomentData, size: int) -> None:
    if size > len(data.d):
        raise ValidationError(f"section {size} exceeds {len(data.d)} moment values")


def moment_solutions(g: GramMatrix, data: MomentData, sizes: Sequence[int]) -> Dict[int, list]:
    """The solution, raw, of the moment equations on the leading m-section
    of g for each m in ``sizes`` (in any order, repeats allowed), by m:
    one forward solve of the data against the largest and one back solve
    for each size (``gram._leading_solves``), each bit for bit the
    coefficients ``solve_moments`` takes on its section.  The data must
    cover the first size, then the largest, checked in that order, as
    ``solve_moments`` on the first and ``convergence_certificate`` on the
    rest would check them."""
    _check_covered(data, sizes[0])
    _check_covered(data, max(sizes))
    sizes = sorted(set(sizes))
    d = [v._mpf_ for v in data.d[:sizes[-1]]]
    return dict(zip(sizes, _leading_solves(g, d, sizes)))


def solve_moments(g: GramMatrix, data: MomentData,
                  coeffs: Optional[list] = None) -> Tuple[MuntzSeries, List[mpmath.mpf]]:
    """Solve the moment equations of a factored section exactly.

    Returns the coefficient-form solution and the per-equation residuals
    <f, x**lam_n> - d_n, which sit at rounding level for any data.  The
    solver runs regardless of growth_ok; the flag only predicts whether
    growing sections stay bounded.  A caller that has the raw solution
    from ``moment_solutions`` passes it as ``coeffs``, and no solve is
    taken again.
    """
    section = g.n
    _check_covered(data, section)
    bits = g.precision_bits
    rhs = list(data.d[:section])
    coeffs = solve_spd(g, rhs) if coeffs is None else _mpfs(coeffs)
    # <f, x**lam_i> - d_i: one sum of exact products, rounded once
    residual = _residual(g.entry_rows, bits)
    residuals = _mpfs(residual([c._mpf_ for c in coeffs], [d._mpf_ for d in rhs]))
    series = MuntzSeries(
        lam_ref=g.lam, coeffs=tuple(coeffs), radius=g.domain.r_a, precision_bits=bits
    )
    return series, residuals


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Growth of sum |d_n| * ||r_n|| across sections.

    A bounded, settling partial-sum sequence is the quantitative face of
    the dual-norm mechanism that yields the infinite-section solution
    when the growth fit passes; ratios near or above 1 signal trouble.
    """

    section_sizes: Tuple[int, ...]
    partial_sums: Tuple[mpmath.mpf, ...]
    solution_norms: Tuple[mpmath.mpf, ...]
    ratios: Tuple[mpmath.mpf, ...]
    growth_ok: bool


def convergence_certificate(
    g: GramMatrix, sizes: Iterable[int], data: MomentData,
    solutions: Optional[Dict[int, list]] = None,
) -> ConvergenceCertificate:
    """Tabulate sum_{n<=N} |d_n| ||r_n^(N)|| and solution norms over the
    leading sections of g of these strictly increasing sizes.  The ratios
    are taken at g's precision.

    ||r_n^(N)||^2 = (G_N^-1)_nn, as in the dual family, is read from the
    L^-1 of the section's stored attempt, cut to (and grown no further
    than) the largest size, by ``gram._inverse_diagonals``.  Each size's
    solution is bit for bit ``solve_moments``' on its section, cut from
    one forward solve of the data (``gram._leading_solves``), or taken
    from ``solutions``, ``moment_solutions``' over these sizes and others,
    when the caller has them."""
    sizes = list(sizes)
    if sizes:
        _check_covered(data, sizes[-1])
    sizes = _checked_sizes(g, sizes)
    d = [v._mpf_ for v in data.d]
    solutions = (_leading_solves(g, d[:sizes[-1]], sizes) if solutions is None
                 else [solutions[m] for m in sizes])
    diagonals = _inverse_diagonals(g, sizes, range(sizes[-1]))
    bits = g.precision_bits
    abs_d = [mpf_abs(v) for v in d]
    sums = []
    norms = []
    for coeffs, diags in zip(solutions, diagonals):
        roots = [mpf_sqrt(diag._mpf_, bits, round_nearest) for diag in diags]
        sums.append(mp.make_mpf(_dot(abs_d, roots, bits)))
        norm_sq = mp.make_mpf(_dot(coeffs, d, bits))
        norms.append(mp.sqrt(norm_sq, prec=bits) if norm_sq > 0 else mp.zero)
    ratios = tuple(mp.fdiv(b, a, prec=bits) if a != 0 else mp.zero
                   for a, b in zip(sums, sums[1:]))
    return ConvergenceCertificate(
        section_sizes=tuple(sizes),
        partial_sums=tuple(sums),
        solution_norms=tuple(norms),
        ratios=ratios,
        growth_ok=data.growth_ok,
    )
