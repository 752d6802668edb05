"""Power series over an exponent sequence: projection, evaluation,
coefficient-convergence tracking and the grid Christoffel bound.

All targets are restricted to forms whose inner products against the
section powers reduce to closed-form moments, so every projection is
free of quadrature error.  The grid bound skips the points that a
binary64 bound pass, ``_kernel_bounds``, proves below a kernel already
computed; that pass is the library's one use of floats, and no float
reaches a value it reports.

``_forked_map`` is the one place the library runs more than one
process: it splits a range of independent work items over forked
children, one per usable core, and returns their results in index
order.  ``christoffel_remez`` splits its grid points with it, each
process bounding its own (at least ``_MIN_CHUNK_POINTS`` a process, so
from twice that many), ``operator.hereditary_sweep`` its
subset walks (``operator._MIN_SWEEP_TASKS``) and ``duals.dual_family``
its inverse columns with their residual maxima
(``duals._MIN_CHUNK_COLUMNS``); each value is bit for bit the serial
one.  The dual family and the sweep make their ``gram._unit_columns``
reader, and the grid cuts the L^-1, before the fork, so that the
section's stored L^-1 is grown once, in the calling process.  Children
send their results back as ``marshal`` bytes, and a chunk whose results
hold an error is recomputed in the calling process, which raises it as
the serial run does.
"""

from __future__ import annotations

import marshal
import os
from contextlib import suppress
from dataclasses import dataclass
from operator import mul
from typing import Callable, Iterable, List, Optional, Tuple, Union

import mpmath
from mpmath import mp
from mpmath.libmp import MPZ, fzero, mpf_gt, mpf_lt, mpf_shift, round_nearest

from .domain import WeightedDomain, _moments, _powers
from .errors import (
    LengthMismatch,
    MalformedConfig,
    NegativeResidualSquared,
    NumericalError,
    OutsideRadius,
    ValidationError,
)
from .exponents import ExponentSequence
from .gram import GramMatrix, _dot, _inverse_cut, leading_sections, solve_spd
from .precision import DEFAULT_PRECISION_BITS, Real, to_mpf, workbits


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
        return TargetFunction.muntz_combo(MuntzSeries(lam, coeffs, wd.r_a, precision_bits))
    raise MalformedConfig(f"unknown target kind {kind!r}")


def evaluate(s: MuntzSeries, x: Real) -> mpmath.mpf:
    """Pointwise value sum a_k * x**lam_k for 0 <= x < radius, at the
    series' own width."""
    bits = s.precision_bits
    with workbits(bits):
        xv = x if isinstance(x, mpmath.mpf) else to_mpf(x, bits)
        if xv < 0 or xv >= s.radius:
            raise OutsideRadius(f"x = {xv} outside [0, {s.radius})")
        lams = s.lam_ref.values_at(bits, len(s.coeffs))
        total = mp.mpf(0)
        for a, lam_k in zip(s.coeffs, lams):
            total += a * xv ** lam_k
        return total


def _settle_residual_sq(value, bits: int):
    """Residuals squared must be nonnegative; tiny negatives are rounding
    debris and clamp to zero, anything larger aborts loudly."""
    if value >= 0:
        return value
    with workbits(bits):
        if abs(value) < mp.mpf(2) ** (-(bits // 2)):
            return mp.mpf(0)
    raise NegativeResidualSquared(
        f"residual^2 = {value} is negative beyond the rounding floor"
    )


def project(g: GramMatrix, f: TargetFunction) -> Tuple[MuntzSeries, mpmath.mpf]:
    """Best approximation of the target in the span of a factored section.

    Coefficients solve G c = b with b_k = <f, x**lam_k>; the squared
    residual is <f, f> - b^T c, which vanishes for targets already in
    the span.  Every moment comes from one kernel call over the target's
    exponents followed by the section's, so a target exponent equal to
    lam_k gives exactly the Gram entries of column k.
    """
    wd, bits = g.domain, g.precision_bits
    with workbits(bits):
        terms = f.terms(bits)
        moment = _moments(wd.pieces, [e for _, e in terms] + list(g.lams), bits)
        pairs = list(enumerate(a for a, _ in terms))
        # sums taken left to right from 0, one rounding per term
        b = [sum((a * mp.make_mpf(moment(i, k)) for i, a in pairs), mp.mpf(0))
             for k in range(len(terms), len(terms) + g.n)]
        norm_sq = sum((a * a_j * mp.make_mpf(moment(i, j)) for i, a in pairs for j, a_j in pairs),
                      mp.mpf(0))
        c = solve_spd(g, b)
        res_sq = norm_sq - mp.fsum(bk * ck for bk, ck in zip(b, c))
        res = mp.sqrt(_settle_residual_sq(res_sq, bits))
        series = MuntzSeries(
            lam_ref=g.lam, coeffs=tuple(c), radius=wd.r_a, precision_bits=bits
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

    The coefficient differences are taken at g's precision.
    """
    rows = [(s.n, project(s, f)[0].coeffs) for s in leading_sections(g, sizes)]
    n_tracked = rows[0][0]
    diffs = []
    flags = []
    with workbits(g.precision_bits):
        for k in range(n_tracked):
            track = [coeffs[k] for _, coeffs in rows]
            dk = tuple(abs(b - a) for a, b in zip(track, track[1:]))
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


# A fork, its pipe and its wait cost about 2 ms on a 2-core x86 VM, and
# where the bounds are tight a chunk's work is mostly bounding its
# points.  With at least 256 grid points a process the split starts at
# 512: over 2 cores the whole call at N = 16 and rho = 0.9 took, of its
# serial time, 1.03-1.07 at 256 points past point 0, 0.89-0.96 at 384,
# 0.87-0.97 at 512 and 0.68-0.78 at 1024 for squares, and 0.59-0.88 at
# 256 and 0.77-0.92 at 512 for sqrt(n), whose bounds leave the kernel
# more points (three runs of ``scripts/fork_floors.py --repeats 7`` on a
# noisy shared host).
_MIN_CHUNK_POINTS = 256

# What one index of a ``_forked_map`` gives: a list of raw mpfs, or the
# NumericalError computing them raised.
_Result = Union[List[tuple], NumericalError]


def _usable_cores() -> int:
    """The cores this process may run on, else the host's core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _other_cores() -> List[int]:
    """The usable cores but the one this process last ran on, or none
    where the platform does not tell.  A child left to the kernel may
    share its parent's core: on a 2-vCPU x86 VM about 4 forks in 10 ran
    beside the parent for 300 ms or more while the other core idled."""
    try:
        with open("/proc/self/stat") as stat:
            here = int(stat.read().rsplit(")", 1)[1].split()[36])
        return sorted(os.sched_getaffinity(0) - {here})
    except (AttributeError, OSError, IndexError, ValueError):
        return []


def _forked_map(chunk_fn: Callable[[int, int], List[_Result]], count: int,
                min_chunk: int) -> List[_Result]:
    """The lists ``chunk_fn(lo, hi)`` gives for the indices lo..hi-1 of
    contiguous chunks of 0..count-1, concatenated in index order.

    The range is cut into one chunk per usable core, at most one per
    ``min_chunk`` indices.  This process takes the first chunk and a
    forked child each other one, each child on its own core of
    ``_other_cores`` where it has one.  A child writes its results to a
    pipe as ``marshal`` bytes, each mantissa a plain int read back
    through ``MPZ``, and leaves through ``os._exit``: status 0 once
    written, 1 on any error.  Where ``os.fork`` is missing or fails, or a
    child exits non-zero or writes what ``marshal.loads`` cannot read,
    this process computes the chunk itself.  ``marshal`` cannot write an
    exception, so a chunk with a NumericalError among its results exits
    1 in the child and is recomputed here; ``chunk_fn`` is deterministic,
    so it gives the same error, type and message, as a serial run.  The
    cost: a report that fails this way (exit 3) takes up to its serial
    time.  On any exception here the live children are sent SIGTERM and
    reaped before it propagates, so no process outlives the call.
    """
    cores = _usable_cores() if hasattr(os, "fork") else 1
    workers = max(1, min(cores, count // min_chunk))
    bounds = [count * k // workers for k in range(workers + 1)]
    others = _other_cores() if workers > 1 else []
    children = {}  # chunk index -> (pid, read fd), until reaped
    try:
        for k in range(1, workers):
            with suppress(OSError):
                read_fd, write_fd = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_fd)
                    os.close(write_fd)
                    raise
                if pid == 0:
                    status = 1
                    try:
                        os.close(read_fd)
                        with suppress(OSError, IndexError):
                            os.sched_setaffinity(0, {others[k - 1]})
                        # a NumericalError result is not iterable: the child exits 1
                        # and the caller recomputes its chunk, error and all
                        data = marshal.dumps([[(s, int(m), e, b) for s, m, e, b in r]
                                              for r in chunk_fn(bounds[k], bounds[k + 1])])
                        with open(write_fd, "wb") as pipe:
                            pipe.write(data)
                        status = 0
                    finally:
                        os._exit(status)
                os.close(write_fd)
                children[k] = pid, read_fd
        results = list(chunk_fn(bounds[0], bounds[1]))
        for k in range(1, workers):
            chunk = None
            if k in children:
                pid, fd = children[k]
                with open(fd, "rb", closefd=False) as pipe:
                    data = pipe.read()
                os.close(fd)
                if os.waitpid(pid, 0)[1] == 0:
                    with suppress(ValueError, EOFError, TypeError):
                        chunk = [[(s, MPZ(m), e, b) for s, m, e, b in r]
                                 for r in marshal.loads(data)]
                del children[k]
            results += chunk if chunk is not None else chunk_fn(bounds[k], bounds[k + 1])
    finally:
        if children:
            # imported here: only this path signals, and the import costs ~1 ms
            from signal import SIGTERM
        for pid, fd in children.values():
            with suppress(OSError):
                os.kill(pid, SIGTERM)
            with suppress(OSError):
                os.close(fd)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return results


def _kernel_bounds(inv_rows, lams, rho, grid_points: int, points: Iterable[int],
                   bits: int) -> List[Tuple[int, tuple]]:
    """(j, U_j) for each index j >= 1 in ``points`` of the grid of
    ``grid_points`` points on [0, rho], rho raw, in decreasing order of
    U_j, a raw mpf that holds a binary64 value exactly: U_j >= K_j, the
    kernel ``christoffel_remez`` computes at its x_j = rho j /
    (grid_points - 1) from the raw rows of L^-1 and raw exponents at
    ``bits`` = P.  U_j is inf where no finite bound was found.

    Binary64 serves here alone.  Each row m of L^-1 is shifted by 2^-e_m,
    its largest entry brought into [1/2, 1), and rounded to binary64:
    r_k; rho and each lam_k are rounded to nearest, x = rho j /
    (grid_points - 1) in binary64, v_k = pow(x, lam_k), and per row
    f = fsum(r_k v_k) and a = fsum(|r_k| v_k).  With u = 2^-53,
    l = |log x| and lam the largest exponent, each error is bounded:
    - x lies within 3u + 2^(1-P) < 2^-51 of the P-bit x_j, relative, and
      lam within u of lam_k; together they move the power by
      eta <= 2u lam (l + 4);
    - ``pow`` is allowed 2^4 ulps, 2^-48 relative; ``log`` feeds eta only;
    - the P-bit powers (``_powers``, at most prec + 10 bits inside, a
      pow_int over a sqrt for half-integers) are off by at most
      2^(8-P) (1 + lam (l + 4)), relative;
    - so |v_P - v| <= e v + 2^-1068, e = 1.01 (2^-47 + eta + that term);
    - r_k off by u |r_k| + 2^-1074, each product and the fsums by u,
      which with the terms above gives |L^-1 v|_m 2^-e_m <= |f| + a c +
      floor, c = 1.01 e + 2^-49 + N 2^(1-2P) + 2^(1-P): the last two for
      ``_dot``'s drop branch (each dropped part at most 2^-2P of a sum of
      |terms|) and the rounding of y_m;
    - floor = N 2^-1064 (1 + max v) for anything that underflows.
    K, one more ``_dot`` of positive terms rounded once, is then at most
    (1 + 2^-P) times the sum of the squared row bounds 2^e_m (|f| + a c +
    floor); U_j takes that sum times 1 + 2^-40, for its own roundings,
    plus N 2^-1070 for squares that underflow.  A point whose x is not a
    normal binary64 value, whose eta or P-bit term exceeds 2^-20, or
    whose arithmetic overflows or fails gets U_j = inf, as do all points
    when a row's 2^e_m lies outside 2^+-1000.  No P-bit x_j is formed
    here (about 7 us a point at 256 bits); the kernel forms its own for
    the points it evaluates.
    """
    # binary64 lives in this function alone; nothing it computes is reported
    import math
    from mpmath.libmp import from_float, to_float

    n = len(lams)
    lam_f = [to_float(lam, rnd=round_nearest) for lam in lams]
    lam_max = max(lam_f)
    rows = []
    for row in inv_rows:
        e = max(r[2] + r[3] for r in row if r[1])
        scaled = [to_float(mpf_shift(r, -e), rnd=round_nearest) for r in row]
        rows.append((2.0 ** e if -1000 <= e <= 1000 else math.nan, scaled,
                     [abs(r) for r in scaled]))
    rho_f, step = to_float(rho, rnd=round_nearest), grid_points - 1
    p_term = 2.0 ** (8 - bits)
    slack = 2.0 ** -49 + n * 2.0 ** (1 - 2 * bits) + 2.0 ** (1 - bits)
    bounds = []
    for j in points:
        bound = math.inf
        x = rho_f * j / step
        if x >= 2.0 ** -1022:
            with suppress(OverflowError, ValueError):
                log_x = abs(math.log(x)) + 4
                eta = 2.0 ** -52 * lam_max * log_x
                p = p_term * (1 + lam_max * log_x)
                if eta + p <= 2.0 ** -20:
                    v = [math.pow(x, lam) for lam in lam_f]
                    c = 1.01 * (2.0 ** -47 + eta + p) + slack
                    floor = n * 2.0 ** -1064 * (1 + max(v))
                    total = math.fsum([(scale * (abs(math.fsum(map(mul, row, v)))
                                                 + math.fsum(map(mul, mags, v)) * c + floor)) ** 2
                                       for scale, row, mags in rows])
                    bound = total * (1 + 2.0 ** -40) + n * 2.0 ** -1070
        # a nan, from a row scale outside 2^+-1000, bounds nothing either
        bounds.append((bound if bound < math.inf else math.inf, j))
    bounds.sort(reverse=True)
    return [(j, from_float(bound)) for bound, j in bounds]


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
    stored attempt, grown here before any fork when it falls short.  At
    width P a grid point's kernel costs its powers and one dot per entry:
    K(x) = ||L^-1 v(x)||^2, every dot of exact products rounded once.
    Point 0 has v = 0 and K = 0, never the maximum, as every exponent is
    positive.  Points 1..grid_points-1 are split by ``_forked_map`` in one
    pass: one process per usable core, this one included, and at least
    ``_MIN_CHUNK_POINTS`` a process, so fewer than twice that many run
    here.  Each process finds the largest kernel over its own points:
    - a bound pass, ``_kernel_bounds``: binary64 rows of L^-1, scaled by
      powers of two, against binary64 powers give each point j a proven
      U_j >= K_j.  Its error terms cover the binary64 roundings of x, the
      exponents and L^-1, ``pow`` to 2^4 ulps, the P-bit powers,
      ``_dot``'s dropped terms and the roundings of y and K, and an
      absolute term for what underflows;
    - the P-bit kernel, largest bounds first, from the first point on
      until a bound lies below the best kernel computed so far.
    Every point skipped has a kernel below one its own process computed,
    so the largest of the processes' maxima is bit for bit the maximum
    over the whole grid, forked or not.  Where L^-1 v cancels past about
    2^50 (sqrt(n) exponents from N = 20) the bounds rule out few points,
    and nearly every point pays for its bound as well as its kernel.
    """
    check_grid_points(grid_points)
    bits = g.precision_bits
    with workbits(bits):
        rho_m = to_mpf(rho, bits)
        if rho_m <= 0:
            raise ValidationError("rho must be positive")
        cols = _inverse_cut(g)
        inv_rows = [[col[i - j] for j, col in enumerate(cols[:i + 1])] for i in range(g.n)]
        lams = [lam._mpf_ for lam in g.lams]

        def chunk_max(lo, hi):
            # the best raw K over grid points lo + 1..hi; the bounds come in
            # decreasing order, so the first below the best ends the chunk
            best = fzero
            for j, bound in _kernel_bounds(inv_rows, lams, rho_m._mpf_, grid_points,
                                           range(lo + 1, hi + 1), bits):
                if mpf_lt(bound, best):
                    break
                v = _powers((rho_m * j / (grid_points - 1))._mpf_, lams, bits)
                y = [_dot(row, v, bits) for row in inv_rows]
                kernel = _dot(y, y, bits)
                if mpf_gt(kernel, best):
                    best = kernel
            return [[best]]

        maxima = _forked_map(chunk_max, grid_points - 1, _MIN_CHUNK_POINTS)
        best = max((m for (m,) in maxima), key=mp.make_mpf)
        return mp.sqrt(mp.make_mpf(best))
