"""Gram matrices of power systems in weighted L2 over interval unions.

Entries are exact moments G_ij = integral of x**(lam_i + lam_j) * w(x),
taken from the domain's moment kernel and factorized at a configurable
mantissa width.  These matrices are Cauchy-like and their condition
numbers grow super-exponentially with the section size, so everything is
guarded by a cheap condition estimate with automatic precision
escalation: if the squared ratio of extreme Cholesky diagonal entries
exceeds 2**(P/2), the assembly retries with the width doubled, up to a
ceiling.  Each attempt is assembled and factored one row at a time, and
below the ceiling it stops at the first row that trips the guard: the
ratio over the leading rows can only grow as rows are added.

Attempts outlive the call that made them: a bounded per-process store
keeps the last ``MAX_STORED_ATTEMPTS`` attempts, each keyed by a
domain's pieces, an exponent identity and a width, so a later section
of the same system, of any size, is cut from rows already factored or
grows them, bit for bit what a fresh assembly would give.
A ``GramMatrix`` is a view, the leading rows of one attempt.  Each
attempt also keeps one triangular inverse L^-1 of its factor, column
by column from the diagonal down, grown on request up to the rows
asked for: every forward solve of a unit vector is a cut of it.  This
module alone reads that layout, the lower entry and factor rows
included; the other modules read a section through its properties and
its readers: ``_unit_columns`` (columns of G^-1, each from a stop
entry down, whole by default), ``_inverse_block`` (a principal block of
G^-1, lower rows, cut from those columns each read from its diagonal
down), ``_inverse_diagonals`` (the diagonal of G_m^-1 over leading
sizes m), ``_inverse_rows`` and ``_inverse_columns`` (the rows and the
columns of L^-1).  Two readers work on raw parts alone, so that a
worker of ``series._forked_map`` can run them on what it was sent:
``_column_reader`` (the columns of G^-1 from the factor rows and the
columns of L^-1) and ``_residual`` (G x - b from the entry rows).  The
pool's workers inherit a copy of the store as it was when they forked
and never read it; a one-shot process gains nothing from it across
reports.

Every function here takes its width as an argument, the section's own
for the readers and the public solves, and none reads or sets mpmath's
working precision: each gives the same bits at any ambient width and
leaves it as it was.  The assembly keeps its guard raw, and the public
solves round a right-hand side entry that is not an mpf at the
section's width.  Every dot here, of a factor row, a solve or a
residual, is ``precision._dot``.

This module alone grows a factor, too.  A ``_Factor`` holds the raw
lower rows of a symmetric matrix, their Cholesky rows and L^-1 by rows
and by columns; ``_grown`` adds one index to it, sharing the parts of
the factor it grows, and ``_factored`` folds it over a matrix's rows.
The mixed-system blocks of ``operator`` grow through it, and so do the
shifted matrices of the inverse iteration, ``_smallest_eigenvalue``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import (fone, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_lt, mpf_mul, mpf_neg,
                          mpf_shift, mpf_sqrt, mpf_sub, mpf_sum, round_nearest)

from .domain import WeightedDomain, _moments
from .errors import IndexOutOfRange, NotPositiveDefinite, PrecisionExhausted, ValidationError
from .exponents import ExponentSequence
from .precision import DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS, MIN_PRECISION_BITS, _dot, to_mpf


@dataclass(frozen=True)
class GramMatrix:
    """Factorized positive-definite Gram matrix of a power-system section.

    A view: the leading ``n`` rows of ``_attempt``, the factored attempt
    ``gram`` made or found in its store, at ``precision_bits``, the width
    the assembly succeeded at (>= the one requested when escalation
    kicked in).  ``entry_rows`` and ``chol_rows`` are the attempt's raw
    mpf rows up to the diagonal, of the entries and of the lower Cholesky
    factor, and ``lams`` its exponents at that width, each cut to n on
    every read: a later ``gram`` call may append rows to the attempt,
    lengthen its exponents or grow its L^-1.  ``cond_estimate`` is the
    attempt's guard after row n, the squared ratio of extreme diagonal
    entries of the factor: a cheap lower bound on the condition number,
    used as the escalation guard.  ``lam`` and ``domain`` are the
    caller's.  Treated as immutable.
    """

    _attempt: _Attempt = field(repr=False)
    n: int
    precision_bits: int
    lam: ExponentSequence
    domain: WeightedDomain

    @property
    def entry_rows(self) -> List[List[tuple]]:
        return self._attempt.entry_rows[:self.n]

    @property
    def chol_rows(self) -> List[List[tuple]]:
        return self._attempt.chol_rows[:self.n]

    @property
    def lams(self) -> Tuple[mpmath.mpf, ...]:
        return self._attempt.lams[:self.n]

    @property
    def cond_estimate(self) -> mpmath.mpf:
        return self._attempt.conds[self.n - 1]

    def entries(self) -> List[List[mpmath.mpf]]:
        """The symmetric entries as mpf rows, built from the stored lower
        triangle on each call."""
        return [_mpfs(row) for row in _full_rows(self.entry_rows)]


def _append_row(factor, row, prec) -> bool:
    """Append to the raw lower Cholesky rows ``factor`` the row of the
    next raw lower entry row ``row`` (the diagonal last), at ``prec``, or
    return False, appending nothing, when its pivot falls below eps =
    2**(1 - prec).

    Entry j is (A_ij - t) / L_jj with t one ``_dot`` of the row so far
    against row j, and the diagonal is s / sqrt(s) with s = A_ii - t
    rounded once: what mpmath's Cholesky gives, whose diagonal is first
    sqrt(s) and then overwritten by (A_ii - t) / sqrt(s).
    """
    new = []
    for j, row_j in enumerate(factor):
        # ``new`` holds entries 0..j-1, so the dot stops short of row_j[j]
        t = _dot(new, row_j, prec)
        new.append(mpf_div(mpf_sub(row[j], t, prec, round_nearest), row_j[j], prec,
                           round_nearest))
    s = mpf_sub(row[-1], _dot(new, new, prec), prec, round_nearest)
    if mpf_lt(s, mpf_shift(fone, 1 - prec)):
        return False
    new.append(mpf_div(s, mpf_sqrt(s, prec, round_nearest), prec, round_nearest))
    factor.append(new)
    return True


class _Factor(NamedTuple):
    """A symmetric positive-definite A grown one index at a time, each
    part the one its rows factored at once give: ``rows`` the raw lower
    rows of A, ``chol`` their Cholesky rows L, diagonal last,
    ``inv_rows`` the rows of L^-1 up to the diagonal and ``inv_cols``
    its columns, column j from entry j down.  ``_Factor()`` is the factor
    on no index.  Grown by ``_grown`` alone, which shares the parts of
    the factor it grows, so a factor is never changed in place."""

    rows: Sequence[List[tuple]] = ()
    chol: Sequence[List[tuple]] = ()
    inv_rows: Sequence[List[tuple]] = ()
    inv_cols: Sequence[List[tuple]] = ()


def _grown(f: _Factor, row, prec) -> Optional[_Factor]:
    """The factor f with one index more: ``row`` is its raw lower row,
    diagonal last.  The factor row is ``_append_row`` and the L^-1 row
    ``_inverse_row``, the forward solve's entry k of each unit column,
    at ``prec``; None when the pivot falls below eps = 2**(1 - prec)."""
    chol = list(f.chol)
    if not _append_row(chol, row, prec):
        return None
    inv_row = _inverse_row(chol[-1], f.inv_cols, prec)
    return _Factor([*f.rows, row], chol, [*f.inv_rows, inv_row],
                   [col + [v] for col, v in zip(f.inv_cols, inv_row)] + [inv_row[-1:]])


def _factored(rows, prec) -> Optional[_Factor]:
    """The ``_Factor`` of the raw lower rows ``rows`` at ``prec``, one
    ``_grown`` per row, or None when a pivot fails.  Its Cholesky rows
    are bit for bit mpmath's: exact products summed with one rounding,
    as ``mp.fsum``/``mp.fdot`` do."""
    f = _Factor()
    for row in rows:
        f = _grown(f, row, prec)
        if f is None:
            return None
    return f


# Eight systems, each escalated from MIN_PRECISION_BITS to MAX_PRECISION_BITS
# through seven widths, cover a process that reports on a handful of domains and
# exponent families; an attempt of 40 rows at 512 bits holds about 0.3 MB, and
# its grown L^-1 as much again.
MAX_STORED_ATTEMPTS = 56
# (domain pieces, exponent identity, width) -> _Attempt, least recently used first
_ATTEMPTS: OrderedDict[tuple, _Attempt] = OrderedDict()


@dataclass
class _Attempt:
    """The rows one width has assembled and factored so far for one domain
    and exponent sequence: raw entry and factor rows, the running
    condition estimate after each row as an mpf, the square of the ratio
    of the extreme factor diagonal entries so far, each step rounded once
    at the width, and the exponents at that width (at least one per
    row).  ``trip`` is the first row whose estimate exceeded 2**(P/2),
    and ``pivot`` the row whose pivot failed; no row follows a failed
    pivot.  ``inverse`` holds the columns of L^-1 over as many leading
    rows as a section has asked for, each from its diagonal entry
    down."""

    entry_rows: List[List[tuple]] = field(default_factory=list)
    chol_rows: List[List[tuple]] = field(default_factory=list)
    conds: List[mpmath.mpf] = field(default_factory=list)
    lams: Tuple[mpmath.mpf, ...] = ()
    trip: Optional[int] = None
    pivot: Optional[int] = None
    inverse: List[List[tuple]] = field(default_factory=list)

    def extend(self, wd: WeightedDomain, lam: ExponentSequence, n: int, bits: int,
               at_ceiling: bool) -> None:
        """Assemble and factor rows from where the attempt stops up to n,
        stopping at a failed pivot, and below the ceiling at the row that
        trips the guard: the estimate over the leading rows only grows."""
        self.lams = lam.values_at(bits, n)
        moment = _moments(wd.pieces, self.lams, bits)
        limit = mpf_shift(fone, bits // 2)
        diag = [row[i] for i, row in enumerate(self.chol_rows)]
        hi = max(diag, default=None, key=mp.make_mpf)
        lo = min(diag, default=None, key=mp.make_mpf)
        for i in range(len(self.chol_rows), n):
            row = [moment(i, j) for j in range(i + 1)]
            if not _append_row(self.chol_rows, row, bits):
                self.pivot = i
                return
            d = self.chol_rows[i][i]
            hi = d if i == 0 or mpf_gt(d, hi) else hi
            lo = d if i == 0 or mpf_lt(d, lo) else lo
            ratio = mpf_div(hi, lo, bits, round_nearest)
            self.entry_rows.append(row)
            self.conds.append(mp.make_mpf(mpf_mul(ratio, ratio, bits, round_nearest)))
            if self.trip is None and mpf_gt(self.conds[i]._mpf_, limit):
                self.trip = i
                if not at_ceiling:
                    return


def _exponent_identity(lam: ExponentSequence) -> tuple:
    """What fixes ``lam.values_at(bits, n)`` for every width and count: the
    exact list, or the generator's (c, beta), whose values at a width are
    the same prefix for any count."""
    gen = lam.generator
    return ("list", lam.raw) if gen is None else ("power", gen.c, gen.beta)


def gram(
    wd: WeightedDomain,
    lam: ExponentSequence,
    n: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    max_precision_bits: int = MAX_PRECISION_BITS,
) -> GramMatrix:
    """Assemble and factorize the leading n-by-n Gram section.

    The entries come from ``domain._moments`` over the section's
    exponents: per piece, the powers of its endpoints to each exponent,
    taken once, so O(n * pieces) powers per attempt rather than two per
    entry and piece.  Each attempt builds and factors the section row by
    row.  While the running condition estimate exceeds 2**(P/2), or a
    pivot fails, it retries at doubled precision; below the ceiling it
    stops at that row, since the estimate over the leading rows only
    grows.  At the ceiling it factors every row and then raises
    NotPositiveDefinite when a pivot failed, PrecisionExhausted otherwise.

    Attempts are kept in a per-process store of the last
    ``MAX_STORED_ATTEMPTS`` attempts, least recently used dropped first,
    each keyed by the domain's pieces, the exponents' identity (the
    exact list, or the generator's c and beta) and its width; each width
    a call visits becomes the most recently used.  A later call on the
    same system cuts its section from the stored rows of a width when
    they already pass, moves on to the next width with no arithmetic
    when a stored trip or failed pivot lies below n, and otherwise
    appends rows from where the stored ones stop.  Row i depends only on
    the exponents up to i, so every result, error and message is bit for
    bit that of a cold call, and the section, a view of the attempt's
    leading n rows, carries the caller's own ``lam`` and ``wd``.  An
    attempt is out of the store while it is extended, so one whose
    extension raises is dropped.  Forked children get a copy of the
    store; a one-shot process gains nothing from it.
    """
    if not 1 <= n <= len(lam):
        raise ValidationError(f"section size {n} outside 1..{len(lam)}")
    if precision_bits < MIN_PRECISION_BITS:
        raise ValidationError(f"precision_bits must be at least {MIN_PRECISION_BITS}")
    if max_precision_bits < precision_bits:
        raise ValidationError("max_precision_bits below precision_bits")

    system = (wd.pieces, _exponent_identity(lam))
    bits = precision_bits
    while True:
        at_ceiling = bits >= max_precision_bits
        attempt = _ATTEMPTS.pop((*system, bits), None) or _Attempt()
        if (len(attempt.chol_rows) < n and attempt.pivot is None
                and (attempt.trip is None or at_ceiling)):
            attempt.extend(wd, lam, n, bits, at_ceiling)
        _ATTEMPTS[(*system, bits)] = attempt
        if len(_ATTEMPTS) > MAX_STORED_ATTEMPTS:
            _ATTEMPTS.popitem(last=False)
        # the attempt now has n rows, or stops below n at a failed pivot or a trip
        failure = ("factorization" if attempt.pivot is not None and attempt.pivot < n
                   else "condition" if attempt.trip is not None and attempt.trip < n
                   else None)
        if failure is None:
            return GramMatrix(attempt, n, bits, lam, wd)
        if at_ceiling:
            if failure == "factorization":
                raise NotPositiveDefinite(f"Cholesky failed at {bits} bits; "
                                          "matrix numerically singular")
            raise PrecisionExhausted(f"condition estimate exceeds 2**({bits}/2) "
                                     "at the precision ceiling")
        bits = min(bits * 2, max_precision_bits)


def leading_section(g: GramMatrix, m: int) -> GramMatrix:
    """The leading m-by-m section, cut from a factored one: the view of
    the first m rows of its attempt, with no new work.

    Equal bit for bit to ``gram(g.domain, g.lam, m, g.precision_bits)``:
    column j of the factor is built from the leading rows and earlier
    columns only, and the attempt's guard after row m already passed.
    """
    if not 1 <= m <= g.n:
        raise ValidationError(f"section size {m} outside 1..{g.n}")
    return replace(g, n=m)


def leading_sections(g: GramMatrix, sizes: Iterable[int]) -> Iterator[GramMatrix]:
    """The leading sections of these sizes, cut from g as they are
    consumed.  The sizes must be non-empty, strictly increasing and
    within 1..g.n."""
    return (leading_section(g, m) for m in _checked_sizes(g, sizes))


def _checked_sizes(g: GramMatrix, sizes: Iterable[int]) -> List[int]:
    sizes = list(sizes)
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValidationError(f"need strictly increasing section sizes, got {sizes}")
    if not 1 <= sizes[0] <= sizes[-1] <= g.n:
        raise ValidationError(f"section sizes {sizes} outside 1..{g.n}")
    return sizes


# The substitutions run on raw mpf values at the width ``prec`` passed in:
# each entry is one ``_dot`` of exact products less its right-hand side,
# rounded once, then one rounded divide by the diagonal, as ``_append_row``
# does.


def _substitute_forward(rows, rhs, prec) -> List[tuple]:
    """Solve L y = rhs for the raw factor rows of L and raw rhs.  The
    first m entries of y are the solve against the leading m rows."""
    y = []
    for i, row in enumerate(rows):
        # y_i = (rhs_i - sum) / L_ii = (sum - rhs_i) / -L_ii, signs exact
        y.append(mpf_div(_dot(row[:i], y, prec, rhs[i]), mpf_neg(row[i]), prec, round_nearest))
    return y


def _substitute_back(rows, below, rhs, prec, stop: int = 0) -> List[tuple]:
    """Solve L^T x = rhs for the raw factor rows of L, with ``below`` its
    ``_columns_below(rows)``, and raw rhs, from the last entry down to
    entry ``stop``; the entries above ``stop`` are left zero."""
    n = len(rows)
    x = [fzero] * n
    for i in range(n - 1, stop - 1, -1):
        x[i] = mpf_div(_dot(below[i], x[i + 1:], prec, rhs[i]), mpf_neg(rows[i][i]),
                       prec, round_nearest)
    return x


def _columns_below(rows) -> List[List[tuple]]:
    """Column i of the raw factor rows of L below its diagonal, for each i:
    the rows of L^T to the right of the diagonal."""
    n = len(rows)
    return [[rows[j][i] for j in range(i + 1, n)] for i in range(n)]


MAX_INVERSE_ITERATIONS = 400


def _smallest_eigenvalue(a: _Factor, prec: int) -> tuple:
    """The smallest eigenvalue of the symmetric positive-definite A of the
    factor ``a``, raw, by shifted inverse iteration at the width P = ``prec``.

    The shift c is (1 - 2**-8) times the larger of two lower bounds on
    lambda_min: 1/tr(A^-1), with tr(A^-1) = ||L^-1||_F^2 from the
    columns of a's L^-1, and the Gershgorin bound
    min_i (A_ii - sum_{j != i} |A_ij|), which is the close one when A is
    diagonally dominant and its spectrum clustered.  B = A - c I is
    factored by ``_factored``, its L^-1 included.  Each step is then
    y = L^-T L^-1 x = B^-1 x for unit x, two triangular products of exact
    terms rounded once per entry, with the Rayleigh quotient mu = x.y of
    B^-1, so that lambda_min <= c + 1/mu, and the residual
    e = ||y - mu x||.  The start vector has the sign pattern of the
    wanted eigenvector when A is Jacobi-scaled from a totally positive
    matrix, or from the inverse of one, as the mixed-system blocks are:
    it changes sign between neighbours i - 1 and i exactly when
    A_{i,i-1} > 0.

    Iteration stops, and c + 1/mu is returned, once lambda_min is shown
    to be within 2**(-P/2) of it, relative:

    * Kato-Temple: every eigenvalue of B^-1 but the largest, t_1, is at
      most a = tr(B^-1) - mu, so when mu > a,
      mu <= t_1 <= mu + e**2 / (mu - a).
    * inertia, once the residual puts some eigenvalue of B^-1 within
      2**(-P/2) mu of mu: B - s I with s = (1 - 2**(-P/2)) / mu factors
      only when every eigenvalue of B exceeds s.  This covers a repeated
      smallest eigenvalue, where mu never passes a.

    Raises NotPositiveDefinite when B does not factor, and
    PrecisionExhausted when the iteration settles on another eigenvalue
    or has not settled after ``MAX_INVERSE_ITERATIONS`` steps.
    """
    tol = mpf_shift(fone, -(prec // 2))
    shift = max(mpf_div(fone, _trace(a.inv_cols, prec), prec, round_nearest),
                _gershgorin_bound(a.rows, prec), key=mp.make_mpf)
    shift = mpf_sub(shift, mpf_shift(shift, -8), prec, round_nearest)
    b = _factored(_shifted(a.rows, shift, prec), prec)
    if b is None:
        raise NotPositiveDefinite("a matrix shifted below its smallest eigenvalue "
                                  "does not factor")
    trace = _trace(b.inv_cols, prec)
    x = [fone]
    for i in range(1, len(b.rows)):
        x.append(mpf_neg(x[-1]) if mpf_gt(b.rows[i][i - 1], fzero) else x[-1])
    x = _unit(x, prec)
    for _ in range(MAX_INVERSE_ITERATIONS):
        z = [_dot(row, x, prec) for row in b.inv_rows]
        y = [_dot(col, z[j:], prec) for j, col in enumerate(b.inv_cols)]
        mu = _dot(x, y, prec)
        r = [mpf_sub(v, mpf_mul(mu, u, prec, round_nearest), prec, round_nearest)
             for u, v in zip(x, y)]
        e2 = _dot(r, r, prec)
        gap = mpf_sub(mpf_shift(mu, 1), trace, prec, round_nearest)
        if mpf_gt(gap, fzero) and not mpf_gt(e2, mpf_mul(tol, mpf_mul(mu, gap), prec,
                                                         round_nearest)):
            break
        if not mpf_gt(e2, mpf_mul(mpf_mul(tol, tol), mpf_mul(mu, mu), prec, round_nearest)):
            floor = mpf_div(mpf_sub(fone, tol, prec, round_nearest), mu, prec, round_nearest)
            chol = []
            if not all(_append_row(chol, row, prec) for row in _shifted(b.rows, floor, prec)):
                raise PrecisionExhausted("inverse iteration settled on an eigenvalue "
                                         "above the smallest")
            break
        x = _unit(y, prec)
    else:
        raise PrecisionExhausted(f"inverse iteration unconverged after "
                                 f"{MAX_INVERSE_ITERATIONS} steps at {prec} bits")
    return mpf_add(shift, mpf_div(fone, mu, prec, round_nearest), prec, round_nearest)


def _inverse_row(row, cols, prec) -> List[tuple]:
    """Row k of L^-1 up to the diagonal, for the raw factor row k of L and
    the columns ``cols`` of L^-1 over rows 0..k-1, column j from entry j
    down: entry j < k is -sum_{j<=i<k} L_ki (L^-1)_ij / L_kk, one ``_dot``
    rounded once and one rounded divide, and entry k is 1 / L_kk.  These
    are the operands and roundings of ``_substitute_forward`` on e_j from
    entry j, whose zero products ``_dot`` skips, so column j of L^-1 over
    the leading m rows is bit for bit that solve against them."""
    k = len(cols)
    pivot = mpf_neg(row[k])   # (0 - sum) / L_kk = sum / -L_kk, as _substitute_forward
    return ([mpf_div(_dot(row[j:k], col, prec), pivot, prec, round_nearest)
             for j, col in enumerate(cols)] + [mpf_div(fone, row[k], prec, round_nearest)])


def _trace(cols, prec) -> tuple:
    """||L^-1||_F^2 = tr((L L^T)^-1) from the columns of L^-1: each
    column's sum of squares rounded once, then summed with one rounding."""
    return mpf_sum([_dot(col, col, prec) for col in cols], prec, round_nearest)


def _gershgorin_bound(rows, prec) -> tuple:
    """min_i (A_ii - sum_{j != i} |A_ij|) for the raw lower rows of a
    symmetric A."""
    k = len(rows)
    return min((mpf_sub(rows[i][i], mpf_sum([mpf_abs(rows[max(i, j)][min(i, j)])
                                             for j in range(k) if j != i], prec, round_nearest),
                        prec, round_nearest) for i in range(k)),
               key=mp.make_mpf)


def _shifted(rows, shift, prec) -> List[List[tuple]]:
    """The raw lower rows of A - shift I."""
    return [[mpf_sub(v, shift, prec, round_nearest) if i == j else v for j, v in enumerate(row)]
            for i, row in enumerate(rows)]


def _full_rows(rows) -> List[List[tuple]]:
    """The raw rows of the symmetric matrix with raw lower rows ``rows``."""
    return [row + [rows[j][i] for j in range(i + 1, len(rows))] for i, row in enumerate(rows)]


def _unit(v, prec) -> List[tuple]:
    scale = mpf_div(fone, mpf_sqrt(_dot(v, v, prec), prec, round_nearest), prec, round_nearest)
    return [mpf_mul(a, scale, prec, round_nearest) for a in v]


def _mpfs(raw) -> List[mpmath.mpf]:
    return [mp.make_mpf(v) for v in raw]


def _checked_rhs(g: GramMatrix, rhs: List[mpmath.mpf]) -> List[tuple]:
    if len(rhs) != g.n:
        raise ValidationError(f"right-hand side has length {len(rhs)}, expected {g.n}")
    return [(v if isinstance(v, mpmath.mpf) else to_mpf(v, g.precision_bits))._mpf_ for v in rhs]


def forward_substitution(g: GramMatrix, rhs: List[mpmath.mpf]) -> List[mpmath.mpf]:
    """Solve chol * y = rhs against the section's factor."""
    return _mpfs(_substitute_forward(g.chol_rows, _checked_rhs(g, rhs), g.precision_bits))


def solve_spd(g: GramMatrix, rhs: List[mpmath.mpf]) -> List[mpmath.mpf]:
    """Solve entries * x = rhs by two triangular solves against the factor."""
    rows, bits = g.chol_rows, g.precision_bits
    y = _substitute_forward(rows, _checked_rhs(g, rhs), bits)
    return _mpfs(_substitute_back(rows, _columns_below(rows), y, bits))


def _inverse_cut(g: GramMatrix) -> List[List[tuple]]:
    """The columns of L^-1 for g's factor, column j from entry j down,
    raw: a cut to g.n rows of the L^-1 of g's attempt, grown first to
    g.n rows when it has fewer, never further.  Column j is bit for bit
    the forward solve of e_j from entry j against those rows.  A caller
    that splits its work takes the cut first, so that the inverse is grown
    once, in this process."""
    n, cols = g.n, g._attempt.inverse
    # each row is computed whole before any column takes an entry of it, so
    # an interrupt leaves the columns a whole number of rows long
    for k in range(len(cols), n):
        row = _inverse_row(g._attempt.chol_rows[k], cols, g.precision_bits)
        for col, v in zip(cols, row):
            col.append(v)
        cols.append([row[-1]])
    return [col[:n - j] for j, col in enumerate(cols[:n])]


def _unit_columns(g: GramMatrix) -> Callable[..., List[tuple]]:
    """The reader (k, stop=0) -> column k (0-based) of the inverse of g,
    raw, from its last entry down to entry ``stop``, zeros above:
    ``_column_reader`` of g's factor rows and ``_inverse_cut(g)``.
    A caller that splits its work makes the reader first, so that the
    L^-1 is grown in this process."""
    return _column_reader(g.chol_rows, _inverse_cut(g), g.precision_bits)


def _inverse_columns(g: GramMatrix) -> List[List[tuple]]:
    """The columns of L^-1 for g's factor, raw, column j from entry j
    down: ``_inverse_cut(g)``, grown in this process, for a caller that
    hands them to ``_column_reader`` in a worker."""
    return _inverse_cut(g)


def _column_reader(rows, cols, bits: int) -> Callable[..., List[tuple]]:
    """The reader (k, stop=0) -> column k of the inverse of L L^T, for the
    raw factor rows of L and the columns ``cols`` of its L^-1, each from
    its diagonal entry down (``_inverse_columns``), at ``bits``: the back
    solve of column k of L^-1, the forward solve of e_k, from the last
    entry down to entry ``stop``, zeros above, each entry bit for bit
    what ``solve_spd`` gives for e_k.  The columns of L below the
    diagonal are taken here, once a reader."""
    below = _columns_below(rows)
    return lambda k, stop=0: _substitute_back(rows, below, [fzero] * k + cols[k], bits, stop)


def _inverse_block(g: GramMatrix, idx: Sequence[int]) -> List[List[tuple]]:
    """The raw lower rows of the principal block of the inverse of g on
    the increasing 0-based indices ``idx``: column j is ``_unit_columns``
    read from entry j down, cut to the rows of ``idx``."""
    column = _unit_columns(g)
    block = {j: column(j, j) for j in idx}
    return [[block[j][i] for j in idx[:a + 1]] for a, i in enumerate(idx)]


def _inverse_diagonals(g: GramMatrix, sizes: List[int], indices) -> List[List[mpmath.mpf]]:
    """For each of the checked sizes m, the diagonal entries (G_m^-1)_kk
    of the leading m-section over the 0-based ``indices`` k below m (a
    sequence, read once per size), as ||L_m^-1 e_k||^2: the first m - k
    entries of column k of the stored L^-1 cut to the largest size
    (``_inverse_cut``), the forward solve of e_k against the m-section,
    their sum of squares exact and rounded once.  No back solve and no
    cancellation; the L^-1 is grown once for the section, about N^3/6
    operations, and every later call reads it."""
    cols, bits = _inverse_cut(leading_section(g, sizes[-1])), g.precision_bits
    return [[mp.make_mpf(_dot(cols[k][:m - k], cols[k][:m - k], bits))
             for k in indices if k < m] for m in sizes]


def _inverse_rows(g: GramMatrix) -> List[List[tuple]]:
    """The rows of L^-1 for g's factor up to the diagonal, raw: the
    columns of ``_inverse_cut(g)`` read across."""
    cols = _inverse_cut(g)
    return [[col[i - j] for j, col in enumerate(cols[:i + 1])] for i in range(g.n)]


def _residual(entry_rows, bits: int) -> Callable[[List[tuple], List[tuple]], List[tuple]]:
    """The reader (x, b) -> G x - b for the raw lower entry rows of G and
    raw x and b, raw, at ``bits``: each entry one ``_dot`` of the exact
    products G_mk x_k less b_m, rounded once, the residual of the stored
    values with no rounding of its own.  The symmetric rows are built
    here, once a reader."""
    rows = _full_rows(entry_rows)
    return lambda x, b: [_dot(row, x, bits, b_m) for row, b_m in zip(rows, b)]


def gram_inverse_column(g: GramMatrix, n: int) -> List[mpmath.mpf]:
    """Column n (1-based) of the inverse of the Gram section."""
    if not 1 <= n <= g.n:
        raise IndexOutOfRange(f"column {n} outside 1..{g.n}")
    return _mpfs(_unit_columns(g)(n - 1))


def gram_inverse_diagonals(g: GramMatrix, n: int, sizes: Iterable[int]) -> List[mpmath.mpf]:
    """The diagonal entry (G_m^-1)_nn (1-based) of the leading m-section,
    for each of the strictly increasing sizes m, as ||L_m^-1 e_n||^2
    (``_inverse_diagonals``)."""
    sizes = _checked_sizes(g, sizes)
    if not 1 <= n <= sizes[0]:
        raise IndexOutOfRange(f"index {n} outside 1..{sizes[0]}")
    return [diag for diag, in _inverse_diagonals(g, sizes, [n - 1])]


def gram_inverse(g: GramMatrix) -> List[List[mpmath.mpf]]:
    """The full inverse as its list of columns, each the back solve of a
    column of the stored L^-1: ``gram_inverse(g)[j][i]`` is (G^-1)_ij,
    0-based."""
    column = _unit_columns(g)
    return [_mpfs(column(j)) for j in range(g.n)]
