"""Gram matrices of power systems in weighted L2 over interval unions.

Entries are exact moments G_ij = integral of x**(lam_i + lam_j) * w(x),
assembled and factorized at a configurable mantissa width.  These
matrices are Cauchy-like and their condition numbers grow
super-exponentially with the section size, so everything is guarded by a
cheap condition estimate with automatic precision escalation: if the
squared ratio of extreme Cholesky diagonal entries exceeds 2**(P/2),
the assembly retries with the width doubled, up to a ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import mpmath
from mpmath import mp

from .domain import WeightedDomain, power_moment
from .errors import IndexOutOfRange, NotPositiveDefinite, PrecisionExhausted, ValidationError
from .exponents import ExponentSequence
from .precision import DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS, MIN_PRECISION_BITS, workbits


@dataclass(frozen=True)
class GramMatrix:
    """Factorized positive-definite Gram matrix of a power-system section.

    ``entries`` and ``chol`` (lower-triangular, entries = chol * chol^T)
    are mpmath matrices at ``precision_bits``, which is the width the
    assembly finally succeeded at (>= the requested width when escalation
    kicked in).  ``cond_estimate`` is the squared ratio of extreme
    diagonal entries of the factor: a cheap lower bound on the condition
    number, used as the escalation guard.  ``lam`` and ``domain`` are the
    sequence and domain the section was cut from.  Treated as immutable.
    """

    n: int
    entries: mpmath.matrix
    chol: mpmath.matrix
    cond_estimate: mpmath.mpf
    precision_bits: int
    lams: Tuple[mpmath.mpf, ...]
    lam: ExponentSequence
    domain: WeightedDomain


def gram(
    wd: WeightedDomain,
    lam: ExponentSequence,
    n: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    max_precision_bits: int = MAX_PRECISION_BITS,
) -> GramMatrix:
    """Assemble and factorize the leading n-by-n Gram section.

    Retries at doubled precision while the condition estimate exceeds
    2**(P/2) or the factorization fails, then raises PrecisionExhausted
    or NotPositiveDefinite respectively at the ceiling.
    """
    if not 1 <= n <= len(lam):
        raise ValidationError(f"section size {n} outside 1..{len(lam)}")
    if precision_bits < MIN_PRECISION_BITS:
        raise ValidationError(f"precision_bits must be at least {MIN_PRECISION_BITS}")
    if max_precision_bits < precision_bits:
        raise ValidationError("max_precision_bits below precision_bits")

    bits = precision_bits
    last_failure = None
    while True:
        lams = lam.values_at(bits)[:n]
        with workbits(bits):
            entries = mp.matrix(n, n)
            for i in range(n):
                for j in range(i, n):
                    entries[i, j] = power_moment(wd, lams[i] + lams[j], bits)
                    entries[j, i] = entries[i, j]
            try:
                chol = mp.cholesky(entries)
            except ValueError:
                last_failure = "factorization"
            else:
                diag = [chol[i, i] for i in range(n)]
                cond = (max(diag) / min(diag)) ** 2
                if cond <= mp.mpf(2) ** (bits // 2):
                    return GramMatrix(
                        n=n,
                        entries=entries,
                        chol=chol,
                        cond_estimate=cond,
                        precision_bits=bits,
                        lams=tuple(lams),
                        lam=lam,
                        domain=wd,
                    )
                last_failure = "condition"
        if bits >= max_precision_bits:
            if last_failure == "factorization":
                raise NotPositiveDefinite(
                    f"Cholesky failed at {bits} bits; matrix numerically singular"
                )
            raise PrecisionExhausted(
                f"condition estimate exceeds 2**({bits}/2) at the precision ceiling"
            )
        bits = min(bits * 2, max_precision_bits)


def forward_substitution(chol: mpmath.matrix, rhs: List[mpmath.mpf]) -> List[mpmath.mpf]:
    """Solve chol * y = rhs for a lower-triangular factor (full diagonal)."""
    n = chol.rows
    y = [mp.mpf(0)] * n
    for i in range(n):
        acc = rhs[i]
        for j in range(i):
            acc -= chol[i, j] * y[j]
        y[i] = acc / chol[i, i]
    return y


def back_substitution_t(chol: mpmath.matrix, rhs: List[mpmath.mpf]) -> List[mpmath.mpf]:
    """Solve chol^T * x = rhs, reading the transpose in place."""
    n = chol.rows
    x = [mp.mpf(0)] * n
    for i in range(n - 1, -1, -1):
        acc = rhs[i]
        for j in range(i + 1, n):
            acc -= chol[j, i] * x[j]
        x[i] = acc / chol[i, i]
    return x


def solve_spd(g: GramMatrix, rhs: List[mpmath.mpf]) -> List[mpmath.mpf]:
    """Solve entries * x = rhs by two triangular solves against the factor."""
    if len(rhs) != g.n:
        raise ValidationError(f"right-hand side has length {len(rhs)}, expected {g.n}")
    with workbits(g.precision_bits):
        y = forward_substitution(g.chol, list(rhs))
        return back_substitution_t(g.chol, y)


def gram_inverse_column(g: GramMatrix, n: int) -> List[mpmath.mpf]:
    """Column n (1-based) of the inverse of the Gram section."""
    if not 1 <= n <= g.n:
        raise IndexOutOfRange(f"column {n} outside 1..{g.n}")
    with workbits(g.precision_bits):
        rhs = [mp.mpf(0)] * g.n
        rhs[n - 1] = mp.mpf(1)
        return solve_spd(g, rhs)


def gram_inverse(g: GramMatrix) -> mpmath.matrix:
    """Full inverse, one triangular solve pair per column."""
    with workbits(g.precision_bits):
        inv = mp.matrix(g.n, g.n)
        for j in range(g.n):
            col = gram_inverse_column(g, j + 1)
            for i in range(g.n):
                inv[i, j] = col[i]
        return inv
