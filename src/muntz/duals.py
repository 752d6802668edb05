"""Finite-section distances and the biorthogonal dual family.

The distance from x**lam_n to the span of the other section elements is
D_n = ((G^-1)_nn)**(-1/2); the dual function r_n has the n-th column of
G^-1 as its coefficients and norm 1/D_n, so the two quantities are exact
reciprocals by construction.  On the unit interval with unit weight the
classical closed form

    D_n = (2 lam_n + 1)**(-1/2) * prod_{k != n} |lam_n - lam_k| / (lam_n + lam_k + 1)

is an independent oracle for everything the linear algebra produces.

``dual_family`` solves each column of G^-1 (``gram._column_reader``)
together with its part of the biorthogonality residual max |G C - I|
(``gram._residual``), and hands the columns to ``forkmap._forked_map``
in contiguous pieces, which the processes claim one at a time: with the
forward halves cut from the section's stored L^-1, every column costs
the same.  Each process makes both readers once: they align the
columns of L below the diagonal and the rows of G once, and each
solution as it grows, so that every dot of a back solve or a residual
is one C-level integer sum (``precision._exact_dot``), ``_dot``'s bits
wherever its products fit ``_dot``'s window of 2P bits and ``_dot``
itself elsewhere.  At ``_MIN_CHUNK_COLUMNS`` or more per process the
split starts at N = 20, and the family is bit for bit the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterable, Iterator, List, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import (fone, fzero, mpf_abs, mpf_add, mpf_cmp, mpf_div, mpf_mul, mpf_pow,
                          mpf_shift, mpf_sqrt, mpf_sub, round_nearest)

from .errors import BadEpsilon, IndexOutOfRange
from .exponents import ExponentSequence
from .forkmap import _Span, _forked_map
from .gram import (GramMatrix, _column_reader, _inverse_cut, _mpfs, _residual,
                   gram_inverse_diagonals)
from .precision import DEFAULT_PRECISION_BITS, Real, _shown, to_mpf


@dataclass(frozen=True)
class DualFamily:
    """Coefficient columns of the dual functions of one Gram section.

    coeffs[n] is the column of G^-1 that expands r_n over the section
    powers; norms[n] = sqrt((G^-1)_nn) and distances[n] = 1/norms[n],
    computed as that exact reciprocal so the reciprocity identity holds
    bit for bit.  ``residual`` is max |(G C)_mj - delta_mj| over all N**2
    entries: how far the columns C are from inverting the Gram matrix.
    Each entry is one sum of the exact products G_mk C_kj, with -1 on the
    diagonal, rounded once, so it is the residual of the stored values,
    not of a rounding of its own.  Lists are 0-based; column n is index
    n+1 in 1-based talk.
    """

    coeffs: List[List[mpmath.mpf]]
    norms: Tuple[mpmath.mpf, ...]
    distances: Tuple[mpmath.mpf, ...]
    residual: mpmath.mpf
    precision_bits: int


@dataclass(frozen=True)
class DistanceReport:
    """Distances of one fixed index across growing section sizes."""

    n: int
    lam_n: mpmath.mpf
    r_w: mpmath.mpf
    sections: Tuple[Tuple[int, mpmath.mpf], ...]
    stabilized: bool
    limit_estimate: mpmath.mpf
    precision_bits: int

    def exponent_slopes(self) -> List[Tuple[int, mpmath.mpf]]:
        """(N, log D_n^(N) / lam_n) pairs; the effective decay base is
        exp of the slope.  Reported for inspection only."""
        bits = self.precision_bits
        return [(N, mp.fdiv(mp.ln(d, prec=bits), self.lam_n, prec=bits)) for N, d in self.sections]


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Fitted constant for the distance lower bound D_n >= u * (r_w - eps)**lam_n.

    u_epsilon is the minimum of D / (r_w - eps)**lam_n over everything
    recorded; passed means the fit is positive.  stable tracks whether the
    per-section ratios vary by less than 50% over the recorded sections.
    """

    u_epsilon: mpmath.mpf
    passed: bool
    stable: bool
    section_ratios: Tuple[Tuple[int, mpmath.mpf], ...]


# A pool round trip costs about 0.05 ms on a 2-core x86 VM, but each
# call also hands a worker the section's factor rows, L^-1 and entry
# rows.  Split over both cores there through the started pool, the
# family took 1.29-1.69 times its serial time at N = 4, 0.72-1.11 at
# N = 10, 0.56-1.11 at N = 15 and 0.65-1.04 at N = 20, and 0.57-0.89 at
# N = 30 (scripts/fork_floors.py --repeats 7 and 9, three runs); ten
# columns a process still split from N = 20, where two runs in three
# gained.
_MIN_CHUNK_COLUMNS = 10


def _family_columns(rows, cols, entry_rows, prec: int,
                    spans: Iterable[_Span]) -> Iterator[List[List[tuple]]]:
    """[column j raw..., its residual maximum] for each j in lo..hi-1, a
    list for each span (lo, hi) drawn from ``spans``, from the raw factor
    rows, the columns of L^-1 and the raw entry rows of one section at
    ``prec``, read through ``gram._column_reader`` and
    ``gram._residual``."""
    n = len(rows)
    column, residuals = _column_reader(rows, cols, prec), _residual(entry_rows, prec)
    for lo, hi in spans:
        out = []
        for j in range(lo, hi):
            col = column(j)
            unit = [fone if m == j else fzero for m in range(n)]
            out.append(col + [max(map(mpf_abs, residuals(col, unit)), key=cmp_to_key(mpf_cmp))])
        yield out


def dual_family(g: GramMatrix) -> DualFamily:
    """All dual-function coefficient columns of one section, and their
    biorthogonality residual.

    Column j comes from the reader ``gram._column_reader`` and its
    residual, the largest |(G C)_mj - delta_mj| over the rows m, from the
    reader ``gram._residual`` (``_family_columns``), both made in each
    process from the factor rows, the columns of L^-1 and the entry rows
    read here, before the split, so that the section's L^-1 is grown
    once, in this process.  The columns run in contiguous pieces through
    ``forkmap._forked_map``, at ``_MIN_CHUNK_COLUMNS`` or more per
    process; the residual is the largest of the column maxima.  Every
    value is bit for bit the serial one.
    """
    n, prec = g.n, g.precision_bits
    parts = (g.chol_rows, _inverse_cut(g), g.entry_rows, prec)
    results = _forked_map(_family_columns, parts, n, _MIN_CHUNK_COLUMNS)
    inv = [_mpfs(result[:n]) for result in results]
    norms = tuple(mp.sqrt(inv[k][k], prec=prec) for k in range(n))
    distances = tuple(mp.fdiv(1, v, prec=prec) for v in norms)
    residual = max(mp.make_mpf(result[n]) for result in results)
    return DualFamily(
        coeffs=inv,
        norms=norms,
        distances=distances,
        residual=residual,
        precision_bits=prec,
    )


def distance(g: GramMatrix, n: int) -> mpmath.mpf:
    """Distance from the n-th section power to the span of the others."""
    diag, bits = gram_inverse_diagonals(g, n, [g.n])[0], g.precision_bits
    return mp.fdiv(1, mp.sqrt(diag, prec=bits), prec=bits)


def oracle_distance(
    lam: ExponentSequence,
    n: int,
    section: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> mpmath.mpf:
    """Closed-form distance on [0, 1] with unit weight.

    Independent of the Gram path: no matrix is built or solved.  Only
    valid for that domain; callers own the applicability check.
    """
    if not 1 <= n <= section <= len(lam):
        raise IndexOutOfRange(f"need 1 <= n <= section <= {len(lam)}")
    bits, rnd = precision_bits, round_nearest
    lams = [v._mpf_ for v in lam.values_at(bits, section)]
    ln = lams[n - 1]
    val = mpf_div(fone, mpf_sqrt(mpf_add(mpf_shift(ln, 1), fone, bits, rnd), bits, rnd), bits, rnd)
    for k, lk in enumerate(lams):
        if k != n - 1:
            val = mpf_mul(val, mpf_div(mpf_abs(mpf_sub(ln, lk, bits, rnd)),
                                       mpf_add(mpf_add(ln, lk, bits, rnd), fone, bits, rnd),
                                       bits, rnd), bits, rnd)
    return mp.make_mpf(val)


def distance_sweep(g: GramMatrix, sizes: Iterable[int], n: int, rel_tol: Real) -> DistanceReport:
    """Track D_n across the leading sections of g of these strictly
    increasing sizes.

    The values are nonincreasing (larger span, smaller distance);
    stabilized is set when the final relative decrease drops below
    rel_tol.  The last value doubles as the limit estimate.  Everything
    is taken at g's precision, from column n of the stored L^-1 of g's
    factor (``gram_inverse_diagonals``), bit for bit ``distance`` on each
    section.
    """
    bits = g.precision_bits
    sizes = list(sizes)
    diags = gram_inverse_diagonals(g, n, sizes)
    distances = [(m, mp.fdiv(1, mp.sqrt(diag, prec=bits), prec=bits))
                 for m, diag in zip(sizes, diags)]
    stabilized = False
    if len(distances) >= 2:
        d_prev, d_last = distances[-2][1], distances[-1][1]
        stabilized = mp.fdiv(mp.fsub(d_prev, d_last, prec=bits), d_prev,
                             prec=bits) < to_mpf(rel_tol, bits)
    return DistanceReport(
        n=n,
        lam_n=g.lams[n - 1],
        r_w=g.domain.r_a,
        sections=tuple(distances),
        stabilized=stabilized,
        limit_estimate=distances[-1][1],
        precision_bits=bits,
    )


def lower_bound_certificate(report: DistanceReport, epsilon: Real) -> LowerBoundCertificate:
    """Fit the lower-bound constant from a distance report.

    The fit is empirical: u is the smallest recorded ratio, positivity
    is the falsifiable claim, and stability (< 50% spread across
    sections) is reported alongside rather than asserted.
    """
    bits = report.precision_bits
    eps = to_mpf(epsilon, bits)
    if not 0 < eps < report.r_w:
        raise BadEpsilon("epsilon must lie strictly between 0 and r_w = "
                         + _shown(report.r_w._mpf_, bits))
    base = mp.make_mpf(mpf_pow(mpf_sub(report.r_w._mpf_, eps._mpf_, bits, round_nearest),
                               report.lam_n._mpf_, bits, round_nearest))
    ratios = tuple((N, mp.fdiv(d, base, prec=bits)) for N, d in report.sections)
    u = min(r for _, r in ratios)
    hi = max(r for _, r in ratios)
    stable = hi > 0 and mp.fdiv(mp.fsub(hi, u, prec=bits), hi, prec=bits) < mp.mpf("0.5")
    return LowerBoundCertificate(
        u_epsilon=u,
        passed=u > 0,
        stable=stable,
        section_ratios=ratios,
    )
