"""Reference computations the tests check the library against.

They are slow or dense on purpose: an mpmath determinant of a submatrix
of the full inverse, a projection onto a span rebuilt without one
exponent, a Gram assembly that factors every row of every attempt
before it judges the attempt, and a remez grid with the kernel taken at
every point.  None of them is part of the library.
"""

from typing import Iterable

import mpmath
from mpmath import mp

from muntz import (
    MuntzSeries,
    TargetFunction,
    WeightedDomain,
    explicit_exponents,
    gram,
    gram_inverse,
    project,
    workbits,
)
from muntz.domain import _moments, _powers
from muntz.errors import (BadPartition, IndexOutOfRange, NotPositiveDefinite,
                          PrecisionExhausted, ValidationError)
from muntz.exponents import ExponentSequence
from muntz.gram import GramMatrix, _Attempt, _append_row, _inverse_cut
from muntz.precision import DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS, _dot, to_mpf


def inverse_principal_minor(g: GramMatrix, n2: Iterable[int]) -> mpmath.mpf:
    """det of the inverse-Gram principal submatrix on the 1-based set n2."""
    idx = sorted(set(n2))
    if any(not 1 <= i <= g.n for i in idx):
        raise BadPartition(f"indices {idx} outside 1..{g.n}")
    with workbits(g.precision_bits):
        if not idx:
            return mp.mpf(1)
        inv = gram_inverse(g)
        sub = mp.matrix(len(idx), len(idx))
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                sub[a, b] = inv[j - 1][i - 1]
        return mp.det(sub)


def removal_test(
    wd: WeightedDomain,
    lam: ExponentSequence,
    section: int,
    f: TargetFunction,
    n: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> mpmath.mpf:
    """Residual of f minus its n-th term against the span without index n.

    For a combination within the section this is zero up to rounding:
    stripping the n-th coefficient leaves an element of the reduced span.
    """
    if f.kind != "muntz_combo":
        raise ValidationError("removal test needs an explicit combination target")
    if not 1 <= n <= section:
        raise IndexOutOfRange(f"index {n} outside 1..{section}")
    if len(f.series.coeffs) > section:
        raise ValidationError("combination extends beyond the section")

    bits = precision_bits
    full = lam.values_at(bits, section)
    kept = [v for i, v in enumerate(full) if i != n - 1]
    reduced_lam = explicit_exponents(kept, bits)

    coeffs = list(f.series.coeffs) + [mp.mpf(0)] * (section - len(f.series.coeffs))
    stripped = [c for i, c in enumerate(coeffs) if i != n - 1]
    with workbits(bits):
        stripped_series = MuntzSeries(
            lam_ref=reduced_lam,
            coeffs=tuple(stripped),
            radius=f.series.radius,
            precision_bits=bits,
        )
        target = TargetFunction.muntz_combo(stripped_series)
        _, res = project(gram(wd, reduced_lam, section - 1, bits), target)
        return res


def gram_every_row(
    wd: WeightedDomain,
    lam: ExponentSequence,
    n: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    max_precision_bits: int = MAX_PRECISION_BITS,
) -> GramMatrix:
    """``gram`` as it was before attempts stopped early: each attempt
    assembles and factors the whole section, then fails on a pivot or on
    the condition estimate and doubles the width; at the ceiling it
    raises NotPositiveDefinite after a pivot failure, PrecisionExhausted
    otherwise."""
    bits = precision_bits
    while True:
        lams = lam.values_at(bits, n)
        with workbits(bits):
            moment = _moments(wd.pieces, lams, bits)
            rows = [[moment(i, j) for j in range(i + 1)] for i in range(n)]
            chol_rows = []
            failure = "factorization"
            if all(_append_row(chol_rows, row, bits) for row in rows):
                # the guard after each row: the squared ratio of the extreme
                # diagonal entries of the factor's rows so far
                diag = [mp.make_mpf(row[i]) for i, row in enumerate(chol_rows)]
                conds = [(max(diag[:i + 1]) / min(diag[:i + 1])) ** 2 for i in range(n)]
                if conds[-1] <= mp.mpf(2) ** (bits // 2):
                    attempt = _Attempt(rows, chol_rows, conds, tuple(lams))
                    return GramMatrix(attempt, n, bits, lam, wd)
                failure = "condition"
        if bits >= max_precision_bits:
            if failure == "factorization":
                raise NotPositiveDefinite(f"Cholesky failed at {bits} bits; "
                                          "matrix numerically singular")
            raise PrecisionExhausted(f"condition estimate exceeds 2**({bits}/2) "
                                     "at the precision ceiling")
        bits = min(bits * 2, max_precision_bits)


def remez_grid(g: GramMatrix, rho, grid_points: int):
    """The raw rows of L^-1, raw exponents and raw rho that
    ``christoffel_remez`` works from, and the P-bit kernel at every grid
    point x_j = rho j / (grid_points - 1), point 0 included:
    ||L^-1 v(x_j)||^2 as ``_dot`` rounds it."""
    bits = g.precision_bits
    with workbits(bits):
        cols = _inverse_cut(g)
        rows = [[col[i - j] for j, col in enumerate(cols[:i + 1])] for i in range(g.n)]
        lams = [lam._mpf_ for lam in g.lams]
        rho_m = to_mpf(rho, bits)
        xs = [(rho_m * j / (grid_points - 1))._mpf_ for j in range(grid_points)]
        kernels = []
        for x in xs:
            v = _powers(x, lams, bits)
            y = [_dot(row, v, bits) for row in rows]
            kernels.append(_dot(y, y, bits))
        return rows, lams, rho_m._mpf_, kernels


def remez_every_point(g: GramMatrix, rho, grid_points: int) -> mpmath.mpf:
    """``christoffel_remez`` with no point skipped: the square root of
    the largest kernel over the whole grid."""
    kernels = remez_grid(g, rho, grid_points)[3]
    with workbits(g.precision_bits):
        return mp.sqrt(max(mp.make_mpf(k) for k in kernels))
