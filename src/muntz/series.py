"""Power series over an exponent sequence: projection, evaluation,
coefficient-convergence tracking and the grid Christoffel bound.

All targets are restricted to forms whose inner products against the
section powers reduce to closed-form moments, so every projection is
free of quadrature error.  The grid bound skips the points that a
binary64 bound pass, ``_kernel_bounds``, proves below a kernel already
computed; that pass is the library's one use of floats, and no float
reaches a value it reports.  It runs in C-level passes over blocks of
grid points, one binary64 product per entry of L^-1 and point, and
makes each bound an mpf only when the kernel loop reaches it.  The
grid points are split over the usable cores by ``forkmap._forked_map``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, mul
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import mpmath
from mpmath import mp
from mpmath.libmp import (from_int, fzero, mpf_div, mpf_gt, mpf_lt, mpf_mul, mpf_shift,
                          mpf_sub, round_nearest)

from .domain import WeightedDomain, _moments, _powers
from .errors import (
    LengthMismatch,
    MalformedConfig,
    NegativeResidualSquared,
    OutsideRadius,
    ValidationError,
)
from .exponents import ExponentSequence
from .forkmap import _Span, _forked_map, _processes
from .gram import (GramMatrix, _checked_sizes, _inverse_rows, _leading_solves, _mpfs,
                   leading_section, solve_spd)
from .precision import DEFAULT_PRECISION_BITS, Real, _aligned, _dot, _exact_dot, _shown, to_mpf


@dataclass(frozen=True)
class MuntzSeries:
    """Finite combination sum a_k * x**lam_k, evaluable on [0, radius)."""

    lam_ref: ExponentSequence
    coeffs: Tuple[mpmath.mpf, ...]
    radius: mpmath.mpf
    precision_bits: int

    def __post_init__(self):
        if len(self.coeffs) > len(self.lam_ref):
            raise LengthMismatch(
                f"{len(self.coeffs)} coefficients but only {len(self.lam_ref)} exponents"
            )


@dataclass(frozen=True)
class TargetFunction:
    """Projection target: either an explicit series or a single power x**mu."""

    kind: str  # "muntz_combo" | "pure_power"
    series: Optional[MuntzSeries] = None
    mu: Optional[mpmath.mpf] = None

    @staticmethod
    def pure_power(mu: Real, precision_bits: int = DEFAULT_PRECISION_BITS) -> "TargetFunction":
        m = to_mpf(mu, precision_bits)
        if m < 0:
            raise ValidationError(f"pure power exponent {m} must be nonnegative")
        return TargetFunction(kind="pure_power", mu=m)

    @staticmethod
    def muntz_combo(series: MuntzSeries) -> "TargetFunction":
        return TargetFunction(kind="muntz_combo", series=series)

    def terms(self, bits: int) -> List[Tuple[mpmath.mpf, mpmath.mpf]]:
        """The target as (coefficient, exponent) pairs, the exponents at
        width ``bits``: (1, mu) for a pure power, the nonzero terms of a
        combination."""
        if self.kind == "pure_power":
            return [(mp.one, self.mu)]
        lams = self.series.lam_ref.values_at(bits, len(self.series.coeffs))
        return [(a, lam) for a, lam in zip(self.series.coeffs, lams) if a != 0]


def target_from_json(
    obj: dict,
    lam: ExponentSequence,
    wd: WeightedDomain,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> TargetFunction:
    """Build from {"kind": "pure_power", "mu": "1.5"} or
    {"kind": "muntz_combo", "coeffs": [...]} (coefficients over lam on wd)."""
    if not isinstance(obj, dict):
        raise MalformedConfig("target must be a JSON object")
    kind = obj.get("kind")
    if kind == "pure_power":
        if obj.get("mu") is None:
            raise MalformedConfig("pure_power target needs a mu value")
        return TargetFunction.pure_power(obj["mu"], precision_bits)
    if kind == "muntz_combo":
        if not isinstance(obj.get("coeffs"), list):
            raise MalformedConfig("muntz_combo target needs a coeffs list")
        coeffs = tuple(to_mpf(v, precision_bits) for v in obj["coeffs"])
        series = MuntzSeries(lam, coeffs, wd.r_a_at(precision_bits), precision_bits)
        return TargetFunction.muntz_combo(series)
    raise MalformedConfig(f"unknown target kind {kind!r}")


def evaluate(s: MuntzSeries, x: Real) -> mpmath.mpf:
    """Pointwise value sum a_k * x**lam_k for 0 <= x < radius, at the
    series' own width."""
    bits = s.precision_bits
    xv = x if isinstance(x, mpmath.mpf) else to_mpf(x, bits)
    if xv < 0 or xv >= s.radius:
        raise OutsideRadius(f"x = {_shown(xv._mpf_, bits)} outside "
                            f"[0, {_shown(s.radius._mpf_, bits)})")
    lams = [lam_k._mpf_ for lam_k in s.lam_ref.values_at(bits, len(s.coeffs))]
    return mp.make_mpf(_dot([a._mpf_ for a in s.coeffs], _powers(xv._mpf_, lams, bits), bits))


def _settle_residual_sq(value, bits: int):
    """Residuals squared must be nonnegative; tiny negatives, above
    -2**(-bits // 2), are rounding debris and clamp to zero, anything
    larger aborts loudly."""
    if value >= 0:
        return value
    if mp.ldexp(value, bits // 2) > -1:
        return mp.zero
    raise NegativeResidualSquared(
        f"residual^2 = {_shown(value._mpf_, bits)} is negative beyond the rounding floor"
    )


def _target_products(g: GramMatrix, f: TargetFunction) -> Tuple[List[tuple], tuple]:
    """b_k = <f, x**lam_k> over the section's exponents, and <f, f>, raw.
    Every moment comes from one kernel call over the target's exponents
    followed by the section's, so a target exponent equal to lam_k gives
    exactly the Gram entries of column k, and b_k is the same bits for
    any section that holds lam_k."""
    bits = g.precision_bits
    terms = f.terms(bits)
    moment = _moments(g.domain.pieces, [e for _, e in terms] + list(g.lams), bits)
    a, t = [coeff._mpf_ for coeff, _ in terms], range(len(terms))
    b = [_dot(a, [moment(i, k) for i in t], bits) for k in range(len(t), len(t) + g.n)]
    # <f, f> = sum a_i a_j m_ij over the exact products a_i a_j
    norm_sq = _dot([mpf_mul(a_i, a_j) for a_i in a for a_j in a],
                   [moment(i, j) for i in t for j in t], bits)
    return b, norm_sq


def _residual_sq(norm_sq, b, c, bits: int) -> mpmath.mpf:
    """<f, f> - b^T c for the raw <f, f>, b and solution c, rounded once
    and settled (``_settle_residual_sq``)."""
    res_sq = mp.make_mpf(mpf_sub(norm_sq, _dot(b, c, bits), bits, round_nearest))
    return _settle_residual_sq(res_sq, bits)


def project(g: GramMatrix, f: TargetFunction) -> Tuple[MuntzSeries, mpmath.mpf]:
    """Best approximation of the target in the span of a factored section.

    Coefficients solve G c = b with b_k = <f, x**lam_k>; the squared
    residual is <f, f> - b^T c, which vanishes for targets already in
    the span.  The inner products come from ``_target_products``.
    """
    bits = g.precision_bits
    b, norm_sq = _target_products(g, f)
    c = solve_spd(g, _mpfs(b))
    res = mp.sqrt(_residual_sq(norm_sq, b, [v._mpf_ for v in c], bits), prec=bits)
    series = MuntzSeries(
        lam_ref=g.lam, coeffs=tuple(c), radius=g.domain.r_a, precision_bits=bits
    )
    return series, res


@dataclass(frozen=True)
class ConvergenceTable:
    """Leading-coefficient trajectories across growing sections.

    rows[i] is (section_size, coefficient prefix); diffs[k] lists the
    successive absolute changes of coefficient k+1, and cauchy_flags[k]
    records whether those changes are nonincreasing over the range.
    """

    section_sizes: Tuple[int, ...]
    rows: Tuple[Tuple[int, Tuple[mpmath.mpf, ...]], ...]
    diffs: Tuple[Tuple[mpmath.mpf, ...], ...]
    cauchy_flags: Tuple[bool, ...]


def coefficient_convergence(
    g: GramMatrix, sizes: Iterable[int], f: TargetFunction
) -> ConvergenceTable:
    """Project onto the leading sections of g of these strictly
    increasing sizes and track per-index coefficients.

    Each size's coefficients are bit for bit ``project``'s on its
    section: the inner products are taken once, at the largest size
    (``_target_products``), whose first m are the m-section's, and the
    solves cut from one forward solve (``gram._leading_solves``).  Each
    size's residual squared <f, f> - b^T c is settled as ``project``
    settles it, so a negative one beyond the rounding floor raises.  The
    coefficient differences are taken at g's precision.
    """
    sizes = _checked_sizes(g, sizes)
    bits = g.precision_bits
    b, norm_sq = _target_products(leading_section(g, sizes[-1]), f)
    rows = []
    for m, c in zip(sizes, _leading_solves(g, b, sizes)):
        _residual_sq(norm_sq, b[:m], c, bits)
        rows.append((m, tuple(_mpfs(c))))
    n_tracked = rows[0][0]
    diffs = []
    flags = []
    for k in range(n_tracked):
        track = [coeffs[k] for _, coeffs in rows]
        dk = tuple(mp.fsub(max(a, b), min(a, b), prec=g.precision_bits)
                   for a, b in zip(track, track[1:]))
        diffs.append(dk)
        flags.append(all(b <= a for a, b in zip(dk, dk[1:])))
    return ConvergenceTable(
        section_sizes=tuple(size for size, _ in rows),
        rows=tuple(rows),
        diffs=tuple(diffs),
        cauchy_flags=tuple(flags),
    )


# Past 10**5 points the grid is finer than any report needs, and a
# grid of 10**12 points would run for days.
MAX_GRID_POINTS = 100_000


def check_grid_points(grid_points: int) -> int:
    """The grid size itself, when it lies within 2..MAX_GRID_POINTS."""
    if not 2 <= grid_points <= MAX_GRID_POINTS:
        raise ValidationError(f"grid_points {grid_points} outside 2..{MAX_GRID_POINTS}")
    return grid_points


# A process of the remez grid takes at least this many binary64 products
# of the bound pass, one per entry of L^-1 and point: N (N + 1) / 2 a
# point, so 98 points at N = 6 and 16 at N = 16, and every grid of 201
# points or more at N <= 16 splits on 2 cores.  A round trip through the
# started pool costs about 0.05 ms on a 2-core x86 VM, where a fork per
# call cost about 5 ms and kept the floor at 2^16.  There, at 2^11
# products a process, the whole call took 0.83-1.00 of its serial time
# for squares at N = 6 and rho = 0.9, 0.86-1.15 for sqrt(n) and
# 0.65-0.82 for sqrt(n) at N = 16; at 2^9 it took 1.2-1.9 at N = 6
# (scripts/fork_floors.py --repeats 7 and 9, three runs).  Squares at
# N = 16, whose bounds leave the kernel a point or two, took 1.1-1.7 up
# to 2^13 products a process: each process repeats the bound pass's
# set-up over the rows of L^-1, about 0.5 ms there.
_MIN_CHUNK_PRODUCTS = 2 ** 11

def _kernel_bounds(inv_rows, lams, rho, grid_points: int,
                   bits: int) -> Callable[[Iterable[int]], Iterator[Tuple[int, tuple]]]:
    """The bound pass of the grid of ``grid_points`` points on [0, rho],
    rho raw, made once for the raw rows of L^-1 and raw exponents at
    ``bits`` = P: a function that gives, for the indices j >= 1 of the
    grid it is handed, (j, U_j) in decreasing order of U_j, a raw mpf
    that holds a binary64 value exactly: U_j >= K_j, the kernel
    ``christoffel_remez`` computes at its x_j = rho j / (grid_points - 1).
    U_j is inf where no finite bound was found.  The U_j are sorted as
    binary64 values and come as an iterator that makes each raw mpf only
    when it is reached, so a piece that stops early converts few of them.

    Binary64 serves here alone.  Each row m of L^-1 is shifted by 2^-e_m,
    its largest entry brought into [1/2, 1), and rounded to binary64:
    r_mk; rho and each lam_k are rounded to nearest, x = rho j /
    (grid_points - 1) in binary64, v_k = pow(x, lam_k), and per row
    f_m = sum_k r_mk v_k, a recursive sum of rounded products.  With
    u = 2^-53, l = |log x| + 4, lam the largest exponent and
    a_m = sum_k |r_mk| v_k, each error is bounded:
    - x lies within 3u + 2^(1-P) < 2^-51 of the P-bit x_j, relative, and
      lam within u of lam_k; together they move the power by
      eta <= 2u lam l;
    - ``pow`` is allowed 2^4 ulps, 2^-48 relative; ``log`` feeds eta only;
    - the P-bit powers (``_powers``, at most prec + 10 bits inside, a
      pow_int over a sqrt for half-integers) are off by at most
      p = 2^(8-P) (1 + lam l), relative;
    - so |v_P - v| <= e v + 2^-1068, e = 1.01 (2^-47 + eta + p);
    - r_mk is off by u |r_mk| + 2^-1074 and each product by u, and the
      recursive sum of N terms, where a correctly rounded one erred by u,
      adds gamma_N a_m, gamma_N = N u / (1 - N u) <= 1.01 N u; with the
      terms above, |L^-1 v|_m 2^-e_m <= |f_m| + a_m c + floor,
      c = 1.01 e + 2^-49 + 1.01 N u + N 2^(1-2P) + 2^(1-P): the last two
      for ``_dot``'s drop branch (each dropped part at most 2^-2P of a sum
      of |terms|) and the rounding of y_m;
    - floor = N 2^-1064 (1 + max v) for anything that underflows.
    The rows are then bounded together, norm-wise.  With F_m = 2^e_m f_m,
    Minkowski gives ||L^-1 v|| <= ||F|| + c ||(2^e_m a_m)_m|| +
    floor ||(2^e_m)_m||, and ||(2^e_m a_m)_m|| <= sum_k w_k v_k, with w_k
    the l2 norm of column k of |L^-1|, entries 2^e_m |r_mk|.  Once, as the
    function is made:
    the w_k, taken relative to 2^E, E the largest e_m, so that an entry
    that underflows errs by far less than floor, and ||(2^e_m)_m|| come
    from ``hypot`` rounded up by 1 + 2^-50; sum_k w_k v_k, a recursive sum
    of positive terms, is at least 1 - gamma_N of its value, for which c
    is taken times 1 + N 2^-52; and floor is rounded up to
    N 2^-1062 max(1, v), v the largest power at the largest x of the grid.
    K, one more ``_dot`` of positive terms rounded once, is at most
    (1 + 2^-P) ||L^-1 v||^2.  So U_j squares ||F|| (one ``hypot``, within
    an ulp) + c sum_k w_k v_k + floor ||(2^e_m)_m|| and takes it times
    1 + 2^-40, which absorbs the roundings of ||F||, of the sum and of the
    square, plus N 2^-1070 for squares that underflow; an absolute error
    d, from products that underflow, adds at most (1 + 2^42) d^2, far
    below that.  A point gets U_j = inf where x is not a normal binary64
    value, where eta + p would exceed 2^-20, or where its largest power
    would overflow (lam log x >= 709), all outside an interval of x found
    once, and where its arithmetic overflows; every point does
    when a row's 2^e_m lies outside 2^+-1000.

    The points go in blocks of at most 1024, so that memory stays
    O(N 1024) up to ``MAX_GRID_POINTS``; a point's U_j does not depend on
    its block.  In a block each product runs in a C-level pass over the
    block's points: one ``pow`` pass per exponent, then one multiply-add
    pass per entry r_mk into f_m, and one per w_k: one binary64 product
    per entry of L^-1 and point, where the row sums a_m took a second.
    No P-bit x_j is formed here (about 7 us a point at 256 bits); the
    kernel forms its own for the points it evaluates.
    """
    # binary64 lives in this function alone; nothing it computes is reported
    import math
    from mpmath.libmp import from_float, to_float

    n = len(lams)
    exps = [max(r[2] + r[3] for r in row if r[1]) for row in inv_rows]
    usable = all(-1000 <= e <= 1000 for e in exps)
    if usable:
        lam_f = [to_float(lam, rnd=round_nearest) for lam in lams]
        # an upper bound on the largest exponent that no division meets as 0
        lam_max = max(lam_f + [2.0 ** -1000])
        rows = [[to_float(mpf_shift(r, -e), rnd=round_nearest) for r in row]
                for row, e in zip(inv_rows, exps)]
        scales = [2.0 ** e for e in exps]
        top = max(exps)
        top_scale = 2.0 ** top
        up = 1 + 2.0 ** -50
        # w_k / 2^E: exact powers of two times the scaled rows, then hypot
        w = [math.hypot(*[2.0 ** (e - top) * row[k] for e, row in zip(exps[k:], rows[k:])]) * up
             for k in range(n)]
        sigma = math.hypot(*scales) * up
        # eta + p = slope l + p_term, l = |log x| + 4; c = 1.01 e + 2^-49 +
        # gamma_N + ..., times 1 + N 2^-52 for the recursive sum of w_k v_k,
        # as c0 + c1 |log x|
        p_term = 2.0 ** (8 - bits)
        slope = lam_max * (2.0 ** -52 + p_term)
        sum_up = 1 + n * 2.0 ** -52
        c0 = (1.0201 * (2.0 ** -47 + p_term + 4 * slope) + 2.0 ** -49 + 1.01 * n * 2.0 ** -53
              + n * 2.0 ** (1 - 2 * bits) + 2.0 ** (1 - bits)) * sum_up
        c1 = 1.0201 * slope * sum_up
        # the x where eta + p <= 2^-20 and lam log x < 709: an interval
        log_max = (2.0 ** -20 - p_term) / slope - 4
        log_hi = min(log_max, 709 / lam_max)
        x_lo = max(2.0 ** -1022, math.exp(-log_max))
        x_hi = math.exp(log_hi) if log_hi < 709 else math.inf
        rho_f, step = to_float(rho, rnd=round_nearest), grid_points - 1
        # floor ||(2^e_m)_m|| with max v taken at the largest bounded x
        floor = n * 2.0 ** -1062 * max(1.0, math.pow(min(rho_f, x_hi), lam_max)) * sigma
        grow, tiny = 1 + 2.0 ** -40, n * 2.0 ** -1070

    def bound_pass(points: Iterable[int]) -> Iterator[Tuple[int, tuple]]:
        points = list(points)
        bounds = [math.inf] * len(points)
        if usable:
            for start in range(0, len(points), 1024):
                live = [(i, x) for i in range(start, min(start + 1024, len(points)))
                        if x_lo <= (x := rho_f * points[i] / step) <= x_hi]
                xs = [x for _, x in live]
                powers = [list(map(math.pow, xs, repeat(lam))) for lam in lam_f]
                # f_m for each row, then sum_k w_k v_k the same way: one
                # multiply-add pass over the block per entry
                sums = []
                for row in rows + [w]:
                    f = [0.0] * len(xs)
                    for r, v in zip(row, powers):
                        f = list(map(add, f, map(mul, v, repeat(r))))
                    sums.append(f)
                weighted = sums.pop()
                fs = [map(mul, f, repeat(scale)) for f, scale in zip(sums, scales)]
                for (i, x), norm, s in zip(live, map(math.hypot, *fs), weighted):
                    t = norm + (c0 + c1 * abs(math.log(x))) * s * top_scale + floor
                    bound = t * t * grow + tiny
                    # a nan, from arithmetic that overflowed, bounds nothing either
                    if bound < math.inf:
                        bounds[i] = bound
        order = sorted(range(len(points)), key=bounds.__getitem__, reverse=True)
        return ((points[i], from_float(bounds[i])) for i in order)

    return bound_pass


def _remez_chunk(inv_rows, lams, rho, grid_points: int, order: List[int], bits: int,
                 spans: Iterable[_Span]) -> Iterator[List[List[tuple]]]:
    """[[K]] for each span (lo, hi) drawn from ``spans``, K the largest raw
    kernel over the grid points order[lo:hi] and those of the spans drawn
    before it here, from the raw rows of L^-1, raw exponents and raw rho
    at ``bits``.  A span's bounds come in decreasing order, so the first
    below the best ends it, and the best carries over to the next span:
    a process that runs several skips every point one of them beat.
    The rows of L^-1 are aligned once a call and v(x) once a point, so
    that each entry of y is an ``_exact_dot``; K, y's one dot with
    itself, stays a ``_dot``."""
    bound_pass = _kernel_bounds(inv_rows, lams, rho, grid_points, bits)
    rows = [_aligned(row, bits) for row in inv_rows]
    best = fzero
    for lo, hi in spans:
        for j, bound in bound_pass(order[lo:hi]):
            if mpf_lt(bound, best):
                break
            x = mpf_div(mpf_mul(rho, from_int(j), bits, round_nearest),
                        from_int(grid_points - 1), bits, round_nearest)
            v = _aligned(_powers(x, lams, bits), bits)
            y = [_exact_dot(row, v, bits) for row in rows]
            kernel = _dot(y, y, bits)
            if mpf_gt(kernel, best):
                best = kernel
        yield [[best]]


def christoffel_remez(g: GramMatrix, rho: Real, grid_points: int) -> mpmath.mpf:
    """Grid maximum of the section's pointwise-to-norm constant on [0, rho].

    The kernel K(x) = v(x)^T G^-1 v(x) with v(x)_k = x**lam_k is the
    largest value of |f(x)|^2 / ||f||^2 over the section span; its square
    root, maximized over a uniform grid, is the p = 2 bound constant at
    grid resolution.  Monotone in the section size at fixed grid; callers
    wanting monotone-in-rho sweeps should use nested grids.  The grid
    maximum is only a lower bound on the supremum of sqrt(K) over
    [0, rho]: for sqrt(n) exponents on [0, 1] at N = 16 and rho = 0.9,
    grids of 101, 1001 and 10001 points give 10.75, 27.07 and 60.01.

    L^-1 of the factor G = L L^T is cut from the one of the section's
    stored attempt, grown here before the split when it falls short.  At
    width P a grid point's kernel costs its powers and one dot per entry:
    K(x) = ||L^-1 v(x)||^2, every dot of exact products rounded once.
    Point 0 has v = 0 and K = 0, never the maximum, as every exponent is
    positive.  Points 1..grid_points-1 are split by ``_forked_map`` in one
    pass: one process per usable core, this one included, and at least
    ``_MIN_CHUNK_PRODUCTS`` products of the bound pass a process, one per
    entry of L^-1 and point, each process claiming pieces of the points
    (``_pieces``) until none is left.  The points go to it as residue
    classes modulo 2^k, the smallest power of two with four classes per
    process, the classes in bit-reversed order: on 2 processes the
    classes 0, 4, 2, 6, 1, 5, 3, 7 modulo 8, so that the two large pieces
    are the classes {0, 4, 2} and {6, 1, 5} and the two small ones 3 and
    7, and on one process the order is the grid's own.  So every piece's
    points spread over the whole of [0, rho] and meet a kernel near the
    grid maximum early, where a piece of contiguous points without it ran
    kernels the serial pass skips.  Each process finds the largest kernel
    over the points of its pieces, its best carried from one to the next
    (``_remez_chunk``):
    - a bound pass, ``_kernel_bounds``: binary64 rows of L^-1, scaled by
      powers of two, against binary64 powers, in C-level passes over
      blocks of points at one binary64 product per entry of L^-1 and
      point, give each point j a proven U_j >= K_j.  Its norm-wise error
      term covers the binary64 roundings of x, the exponents and L^-1,
      ``pow`` to 2^4 ulps, the P-bit powers, the recursive sums,
      ``_dot``'s dropped terms and the roundings of y and K, and an
      absolute term for what underflows;
    - the P-bit kernel, largest bounds first, each bound made a raw mpf
      only when reached, from the first point on until a bound lies below
      the best kernel computed so far.
    Every point skipped has a kernel below one its own process computed,
    so the largest of the pieces' maxima is bit for bit the maximum over
    the whole grid, split or not, whichever process runs which piece.
    Where L^-1 v cancels past about 2^50 (sqrt(n) exponents from N = 20)
    the bounds rule out few points, and nearly every point pays for its
    bound as well as its kernel.
    """
    check_grid_points(grid_points)
    bits = g.precision_bits
    rho_m = to_mpf(rho, bits)
    if rho_m <= 0:
        raise ValidationError("rho must be positive")
    inv_rows = _inverse_rows(g)
    lams = [lam._mpf_ for lam in g.lams]
    min_points = -(-_MIN_CHUNK_PRODUCTS // (g.n * (g.n + 1) // 2))
    processes = _processes(grid_points - 1, min_points)
    # points 1..grid_points-1 by residue modulo step, the classes in
    # bit-reversed order: 0, 4, 2, 6, 1, 5, 3, 7 for step = 8
    step, residues = 1, [0]
    while step < (4 * processes if processes > 1 else 1):
        step, residues = 2 * step, [2 * r for r in residues] + [2 * r + 1 for r in residues]
    order = [j for r in residues for j in range(r or step, grid_points, step)]
    maxima = _forked_map(_remez_chunk, (inv_rows, lams, rho_m._mpf_, grid_points, order, bits),
                         grid_points - 1, min_points)
    best = max((m for (m,) in maxima), key=mp.make_mpf)
    return mp.sqrt(mp.make_mpf(best), prec=bits)
