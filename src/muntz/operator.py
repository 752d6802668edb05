"""Finite sections of the diagonal-in-powers operator family and mixed
completeness probes.

The operator multiplies the n-th coefficient of a series by u_n with
|u_n| <= rho**lam_n; the dilation instance u_n = rho**lam_n acts as
f(x) -> f(rho x).  In section coordinates the operator matrix is
diag(u); its adjoint with respect to the Gram bilinear form is
G^-1 diag(u) G, whose eigenvectors are the dual coefficient columns.
Mixed systems pick section powers for one index set N1 and dual
functions for the complement N2; their nonsingularity is the
finite-section face of hereditary completeness.  Powers and duals on
disjoint index sets are orthogonal in L2_w(A), so the Gram matrix of a
mixed system is diag(G[N1,N1], G^-1[N2,N2]).  Its reported
``min_singular_value`` is the smallest singular value of the normalized
mixed system (each function scaled to unit norm) as a map from l2 into
L2_w(A): the square root of the smaller lambda_min of the two
Jacobi-scaled principal blocks.  It does not depend on how the powers
are scaled.

Everything here computes at the section's width, ``precision_bits``,
passed to each step, and none of it reads or sets mpmath's working
precision: each function gives the same bits at any ambient width.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import (fone, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_le, mpf_lt, mpf_mul,
                          mpf_shift, mpf_sqrt, mpf_sub, mpf_sum, round_nearest)

from .domain import _powers
from .errors import (
    BadPartition,
    BoundViolation,
    DuplicateEigenvalue,
    LengthMismatch,
    MalformedConfig,
    NotPositiveDefinite,
    NumericalError,
    ValidationError,
    ZeroEigenvalue,
)
from .exponents import ExponentSequence
from .gram import (GramMatrix, _Factor, _grown, _inverse_block, _mpfs, _smallest_eigenvalue,
                   _unit_columns, solve_spd)
from .precision import DEFAULT_PRECISION_BITS, Real, _dot, _shown, to_int, to_mpf
from .series import MuntzSeries, _Result, _Span, _forked_map, evaluate


@dataclass(frozen=True)
class OperatorSpec:
    """Coefficient multipliers u_n with their decay base rho in (0, 1)."""

    u: Tuple[mpmath.mpf, ...]
    rho: mpmath.mpf
    kind: str  # "diagonal_list" | "dilation"


def dilation_operator(
    lam: ExponentSequence,
    rho: Real,
    count: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> OperatorSpec:
    """The instance u_n = rho**lam_n, i.e. coefficient-space dilation."""
    rho_m = to_mpf(rho, precision_bits)
    if not 0 < rho_m < 1:
        raise ValidationError(f"rho = {rho_m} must lie in (0, 1)")
    if count > len(lam):
        raise ValidationError("count exceeds exponent prefix")
    lams = lam.values_at(precision_bits, count)
    u = tuple(_mpfs(_powers(rho_m._mpf_, [v._mpf_ for v in lams], precision_bits)))
    return OperatorSpec(u=u, rho=rho_m, kind="dilation")


def diagonal_operator(
    u: Sequence[Real], rho: Real, precision_bits: int = DEFAULT_PRECISION_BITS
) -> OperatorSpec:
    rho_m = to_mpf(rho, precision_bits)
    if not 0 < rho_m < 1:
        raise ValidationError(f"rho = {rho_m} must lie in (0, 1)")
    uv = tuple(to_mpf(x, precision_bits) for x in u)
    return OperatorSpec(u=uv, rho=rho_m, kind="diagonal_list")


def operator_from_json(
    obj: dict,
    lam: ExponentSequence,
    n: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> OperatorSpec:
    """Build from {"kind": "dilation", "rho": "0.5", "count": 20}, whose
    count defaults to and is raised to n, or from
    {"kind": "diagonal_list", "rho": "0.5", "u": [...]}."""
    if not isinstance(obj, dict):
        raise MalformedConfig("operator must be a JSON object")
    kind, rho = obj.get("kind", "dilation"), obj.get("rho")
    if rho is None:
        raise MalformedConfig("operator block needs a rho value")
    if kind == "dilation":
        count = n if obj.get("count") is None else max(n, to_int(obj["count"]))
        return dilation_operator(lam, rho, count, precision_bits)
    if kind == "diagonal_list":
        if not isinstance(obj.get("u"), list):
            raise MalformedConfig("diagonal_list operator needs a u list")
        return diagonal_operator(obj["u"], rho, precision_bits)
    raise MalformedConfig(f"unknown operator kind {kind!r}")


def _validate_against(spec: OperatorSpec, g: GramMatrix) -> Tuple[mpmath.mpf, ...]:
    if len(spec.u) < g.n:
        raise LengthMismatch(f"{len(spec.u)} multipliers for a section of {g.n}")
    u = spec.u[: g.n]
    for v in u:
        if v == 0:
            raise ZeroEigenvalue("multipliers must be nonzero")
    if len(set(u)) != len(u):
        raise DuplicateEigenvalue("multipliers must be pairwise distinct")
    bounds = _powers(spec.rho._mpf_, [lam_n._mpf_ for lam_n in g.lams], g.precision_bits)
    for v, bound in zip(u, bounds):
        if mpf_gt(mpf_abs(v._mpf_), bound):
            shown = [_shown(x, g.precision_bits) for x in (mpf_abs(v._mpf_), bound)]
            raise BoundViolation(f"|u| = {shown[0]} exceeds rho**lam = {shown[1]}")
    return u


def finite_sections(spec: OperatorSpec, g: GramMatrix) -> List[List[mpmath.mpf]]:
    """Rows of the Gram-form adjoint G^-1 diag(u) G in power coordinates,
    one solve per column of diag(u) G through the stored factorization.
    The operator's own section is diag(u)."""
    u = _validate_against(spec, g)
    n, entries, bits = g.n, g.entries(), g.precision_bits
    columns = [solve_spd(g, [mp.fmul(u[i], entries[i][j], prec=bits) for i in range(n)])
               for j in range(n)]
    return [list(row) for row in zip(*columns)]


@dataclass(frozen=True)
class EigenReport:
    adjoint_eigen_ok: bool
    normality_defect: mpmath.mpf
    tail_bounds: Tuple[Tuple[int, mpmath.mpf], ...]
    tail_decay_ok: bool
    max_adjoint_residual: mpmath.mpf


def eigen_check(spec: OperatorSpec, g: GramMatrix) -> EigenReport:
    """Verify the section eigenstructure and tabulate compactness bounds.

    Powers are eigenvectors of diag(u) exactly, with nonzero pairwise
    distinct eigenvalues once ``_validate_against`` accepts u; dual
    columns must be eigenvectors of the adjoint within 2**(-P/2)
    relative.  The tail bounds sum (2 rho / (1 + rho))**lam_n beyond each
    cutoff but the last; their geometric decay is what makes the
    finite-rank sections converge.
    """
    adj_rows = finite_sections(spec, g)
    n, bits = g.n, g.precision_bits
    u = [v._mpf_ for v in spec.u[:n]]
    adj = [[v._mpf_ for v in row] for row in adj_rows]
    column = _unit_columns(g)
    worst = fzero
    for k in range(n):
        col = column(k)
        scale = mpf_add(mpf_mul(_largest(map(mpf_abs, col)), mpf_abs(u[k]), bits, round_nearest),
                        fone, bits, round_nearest)
        for i in range(n):
            # (adj col)_i - u_k col_i over exact products, rounded once
            resid = _dot(adj[i], col, bits, mpf_mul(u[k], col[i]))
            resid = mpf_div(mpf_abs(resid), scale, bits, round_nearest)
            if mpf_gt(resid, worst):
                worst = resid

    # (M adj - adj M)_ij for M = diag(u), without the two dense products
    defect = _largest(mpf_abs(mpf_sub(mpf_mul(u[i], row[j], bits, round_nearest),
                                      mpf_mul(row[j], u[j], bits, round_nearest),
                                      bits, round_nearest))
                      for i, row in enumerate(adj) for j in range(n))

    rho = spec.rho._mpf_
    q = mpf_div(mpf_shift(rho, 1), mpf_add(rho, fone, bits, round_nearest), bits, round_nearest)
    powers = _powers(q, [lam_k._mpf_ for lam_k in g.lams[1:]], bits)
    tails = [(m_cut, mpf_sum(powers[m_cut:], bits, round_nearest)) for m_cut in range(n - 1)]
    decay_ok = all(mpf_lt(b, a) and mpf_le(mpf_div(b, a, bits, round_nearest), q)
                   for (_, a), (_, b) in zip(tails, tails[1:]))

    return EigenReport(
        adjoint_eigen_ok=mpf_lt(worst, mpf_shift(fone, -(bits // 2))),
        normality_defect=mp.make_mpf(defect),
        tail_bounds=tuple((m_cut, mp.make_mpf(t)) for m_cut, t in tails),
        tail_decay_ok=decay_ok,
        max_adjoint_residual=mp.make_mpf(worst),
    )


def _largest(values: Iterable[tuple]) -> tuple:
    """The first largest of non-empty raw mpf values, compared exactly, as
    ``max`` of their mpfs gives it."""
    return reduce(lambda best, v: v if mpf_gt(v, best) else best, values)


def apply(spec: OperatorSpec, s: MuntzSeries) -> MuntzSeries:
    """Coefficient-wise action a_n -> u_n a_n.

    For the dilation instance, evaluate(apply(s), x) == evaluate(s, rho x)
    on [0, radius)."""
    if len(spec.u) < len(s.coeffs):
        raise LengthMismatch(
            f"{len(spec.u)} multipliers cannot act on {len(s.coeffs)} coefficients"
        )
    new_coeffs = tuple(mp.fmul(u_n, a, prec=s.precision_bits)
                       for u_n, a in zip(spec.u, s.coeffs))
    return MuntzSeries(
        lam_ref=s.lam_ref,
        coeffs=new_coeffs,
        radius=s.radius,
        precision_bits=s.precision_bits,
    )


def apply_demo(spec: OperatorSpec, g: GramMatrix) -> List[dict]:
    """The operator on the all-ones series of the section, at x = r_A/4,
    r_A/2 and 3 r_A/4, beside f(rho x); for the dilation kind the two
    agree to rounding."""
    bits, radius = g.precision_bits, g.domain.r_a
    rows = []
    ones = MuntzSeries(g.lam, tuple(mp.mpf(1) for _ in range(g.n)), radius, bits)
    acted = apply(spec, ones)
    for q in ("0.25", "0.5", "0.75"):
        x = mp.fmul(radius, q, prec=bits)
        tf, f = evaluate(acted, x), evaluate(ones, mp.fmul(x, spec.rho, prec=bits))
        diff = mp.make_mpf(mpf_abs(mp.fsub(tf, f, prec=bits)._mpf_))
        rows.append({"x": x, "Tf_x": tf, "f_rho_x": f, "abs_diff": diff})
    return rows


@dataclass(frozen=True)
class MixedSystemReport:
    """Nonsingularity data for one mixed system of powers and duals.

    ``mixed_matrix_det`` is the determinant of the mixed system's
    coefficient matrix, det G^-1[N2,N2] (1 when N2 is empty).
    ``min_singular_value`` is the L2 smallest singular value of the
    normalized mixed system, sqrt(min lambda_min) over the blocks
    S G[N1,N1] S and S G^-1[N2,N2] S with S = diag**(-1/2) of each
    block; ``nonsingular`` says it exceeds 2**(-P/2).
    """

    n1: Tuple[int, ...]
    n2: Tuple[int, ...]
    mixed_matrix_det: mpmath.mpf
    min_singular_value: mpmath.mpf
    nonsingular: bool


def hereditary_check(
    g: GramMatrix, partition: Tuple[Iterable[int], Iterable[int]]
) -> MixedSystemReport:
    """Assess one mixed system {powers on N1} union {duals on N2}.

    The section matrix has standard basis columns for N1 and inverse-Gram
    columns for N2; its determinant equals the principal minor of the
    inverse indexed by N2, so positivity is guaranteed in exact
    arithmetic.  The margin is the L2 smallest singular value of the
    normalized system: the Jacobi-scaled blocks G[N1,N1] and
    G^-1[N2,N2] are each Cholesky-factored, and shifted inverse iteration
    gives their smallest eigenvalues.  No mixed matrix is built.
    Raises NotPositiveDefinite when a block does not factor and
    PrecisionExhausted when the iteration does not settle, the N1 block
    first.
    """
    n1, n2 = (tuple(sorted(set(ix))) for ix in partition)
    if sorted(n1 + n2) != list(range(1, g.n + 1)):
        raise BadPartition(
            f"index sets {n1} and {n2} must split 1..{g.n} disjointly"
        )
    rows, bits = g.entry_rows, g.precision_bits
    powers = _block_spectrum([[rows[i - 1][j - 1] for j in n1[:a + 1]]
                              for a, i in enumerate(n1)], bits) if n1 else None
    duals = _block_spectrum(_inverse_block(g, [j - 1 for j in n2]), bits) if n2 else None
    return _report(g, n1, n2, powers, duals)


# A mixed-system block is the tuple (factor, prod L_aa**2, prod A_aa) of raw
# values: the ``gram._Factor`` of the Jacobi-scaled block S A S of a
# symmetric A on a set of indices, grown one index at a time by ``_grow``,
# and two products, each multiplied up in index order as ``mp.fprod`` does,
# whose product is det A.  ``_EMPTY`` is the block on no index, and None one
# whose factor did not extend.
_EMPTY = (_Factor(), fone, fone)


def _grow(block: Optional[tuple], row, diagonal: tuple, prec: int) -> Optional[tuple]:
    """The block with one index more, after its own: ``row`` is the raw
    scaled lower row of that index, diagonal last, and ``diagonal`` its
    raw unscaled A_ii.  Its factor is ``gram._grown``; None when that
    does not extend, or the block is None already."""
    if block is None:
        return None
    factor, squares, diagonals = block
    factor = _grown(factor, row, prec)
    if factor is None:
        return None
    pivot = factor.chol[-1][-1]
    return (factor,
            mpf_mul(squares, mpf_mul(pivot, pivot, prec, round_nearest), prec, round_nearest),
            mpf_mul(diagonals, diagonal, prec, round_nearest))


def _spectrum(block: Optional[tuple], size: int, prec: int) -> Tuple[tuple, tuple]:
    """Raw (lambda_min(S A S), det A) of a grown block of ``size`` indices,
    at ``prec``."""
    if block is None:
        raise NotPositiveDefinite(f"a {size}x{size} mixed-system block does not factor")
    factor, squares, diagonals = block
    return _smallest_eigenvalue(factor, prec), mpf_mul(squares, diagonals, prec, round_nearest)


def _jacobi_scaled(rows, prec: int) -> Tuple[List[List[tuple]], List[tuple]]:
    """The raw lower rows of S A S, S = diag(A)**(-1/2), for the raw lower
    rows of a symmetric A, and the raw diagonal of A, at ``prec``.
    Entry (i, j) depends on indices i and j alone, so the rows of a
    principal block are those of the whole, cut to its indices."""
    diag = [row[a] for a, row in enumerate(rows)]
    scale = [mpf_div(fone, mpf_sqrt(d, prec, round_nearest), prec, round_nearest) for d in diag]
    return ([[mpf_mul(mpf_mul(v, scale[a], prec, round_nearest), scale[b], prec, round_nearest)
              for b, v in enumerate(row)] for a, row in enumerate(rows)], diag)


def _block_spectrum(rows, prec: int) -> Tuple[tuple, tuple]:
    """Raw (lambda_min(S A S), det A) at ``prec`` for the raw lower rows of
    a symmetric block A, the block grown over its indices in order;
    lambda_min comes from ``_smallest_eigenvalue``.  Raises
    NotPositiveDefinite when S A S does not factor."""
    scaled, diag = _jacobi_scaled(rows, prec)
    block = _EMPTY
    for row, d in zip(scaled, diag):
        block = _grow(block, row, d, prec)
    return _spectrum(block, len(rows), prec)


def _subtree_spectra(scaled, diag, top: int, prec: int) -> List[_Result]:
    """``_block_spectrum`` at ``prec`` of the principal block of S A S on
    every index subset whose smallest index is ``top``, in increasing
    bitmask order (bit i for index i), or the error it raises; ``scaled``
    and ``diag`` are ``_jacobi_scaled`` of A.

    Depth first: a subset's block is grown from its parent's, the subset
    less its largest index, by that index, so its parts are those the
    fold in ``_block_spectrum`` reaches.  Only the blocks on the current
    path are alive.
    """
    n, out = len(diag), {}

    def visit(mask: int, idx: Tuple[int, ...], block: Optional[tuple]) -> None:
        i = idx[-1]
        block = _grow(block, [scaled[i][j] for j in idx], diag[i], prec)
        try:
            out[mask] = _spectrum(block, len(idx), prec)
        except NumericalError as exc:
            out[mask] = exc
        for j in range(i + 1, n):
            visit(mask | 1 << j, idx + (j,), block)

    visit(1 << top, (top,), _EMPTY)
    return [out[mask] for mask in sorted(out)]


def _report(g: GramMatrix, n1: Tuple[int, ...], n2: Tuple[int, ...],
            powers: Optional[_Result], duals: Optional[_Result]) -> MixedSystemReport:
    """The report for the sorted index sets n1 and n2 that split 1..N, from
    the raw spectra of their blocks of S G S and T G^-1 T (None for an
    empty set); a block's error is raised instead, the N1 block's first."""
    spectra = [s for s in (powers, duals) if s is not None]
    for s in spectra:
        if isinstance(s, NumericalError):
            raise s
    bits = g.precision_bits
    smin = mpf_sqrt(min((lam_min for lam_min, _ in spectra), key=mp.make_mpf), bits, round_nearest)
    return MixedSystemReport(
        n1=n1,
        n2=n2,
        mixed_matrix_det=mp.make_mpf(duals[1] if duals is not None else fone),
        min_singular_value=mp.make_mpf(smin),
        nonsingular=mpf_gt(smin, mpf_shift(fone, -(bits // 2))),
    )


# The sweep splits from N = 3 on, 2N subtree tasks at 3 or more per
# process: a pool round trip costs about 0.05 ms, and its two walks take
# about 3 ms at N = 3 and 0.7 ms at N = 2.  Split over 2 cores through
# the started pool (scripts/fork_floors.py --repeats 7 and 9, three
# runs) it took 0.63-0.99 of its serial time at N = 3, 0.61-0.94 at
# N = 4 and 0.53-0.80 at N = 6, but 0.84-1.10 at N = 2.
_MIN_SWEEP_TASKS = 3


def _sweep_tasks(walks, prec: int, spans: Iterable[_Span]) -> Iterator[List[_Result]]:
    """The ``_subtree_spectra`` of tasks lo..hi-1 of the two walks for
    each span (lo, hi) drawn from ``spans``, each walk
    (``_jacobi_scaled`` rows, diagonal) of an N-by-N block: task t walks
    the subsets of walk t // N whose smallest index is t % N."""
    n = len(walks[0][1])
    for lo, hi in spans:
        yield [r for t in range(lo, hi) for r in _subtree_spectra(*walks[t // n], t % n, prec)]


def hereditary_sweep(g: GramMatrix) -> List[MixedSystemReport]:
    """hereditary_check over all 2**N partitions of the section, each
    inverse column read once, as far as ``hereditary_check`` reads it,
    here before the split, through ``gram._inverse_block``, and each
    block grown from a smaller one (``_subtree_spectra``): the
    same reports, and the error the first failing partition raises.

    Partition ``mask`` puts index i + 1 in N2 (duals) when bit i is set,
    and the reports come in increasing mask order.  By Cauchy interlacing
    every block is a principal block of S G S or of T G^-1 T (S and T
    scale each to unit diagonal), so the smallest ``min_singular_value``
    over all partitions is that of N2 empty or of N1 empty.

    The two subset walks, of S G S and of T G^-1 T, are cut into 2N
    tasks, one per walk and smallest index, and ``series._forked_map``
    runs them (``_sweep_tasks``) at ``_MIN_SWEEP_TASKS`` or more per
    process, handing a worker the two Jacobi-scaled walks, each process
    claiming contiguous pieces of the tasks until none is left.
    The results are combined by mask, so every report and the raised
    error are bit for bit the serial sweep's.
    """
    n, bits = g.n, g.precision_bits
    walks = [_jacobi_scaled(rows, bits) for rows in (g.entry_rows, _inverse_block(g, range(n)))]
    results = iter(_forked_map(_sweep_tasks, (walks, bits), 2 * n, _MIN_SWEEP_TASKS))
    powers, duals = tables = {}, {}
    for table in tables:
        for i in range(n):
            # task i of a walk: the masks whose lowest set bit is i
            for mask in range(1 << i, 1 << n, 2 << i):
                table[mask] = next(results)
    reports = []
    for mask in range(2 ** n):
        n2 = tuple(i + 1 for i in range(n) if mask & (1 << i))
        n1 = tuple(i + 1 for i in range(n) if not mask & (1 << i))
        reports.append(_report(g, n1, n2, powers.get(mask ^ (2 ** n - 1)), duals.get(mask)))
    return reports
