"""Power series over an exponent sequence: projection, evaluation,
coefficient-convergence tracking and the grid Christoffel bound.

All targets are restricted to forms whose inner products against the
section powers reduce to closed-form moments, so every projection is
free of quadrature error.

``_forked_map`` is the one place the library runs more than one
process: it splits a range of independent work items over forked
children, one per usable core, and returns their results in index
order.  ``christoffel_remez`` splits its grid points with it (at least
``_MIN_CHUNK_POINTS`` a process), ``operator.hereditary_sweep`` its
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
from typing import Callable, Iterable, List, Optional, Tuple, Union

import mpmath
from mpmath import mp
from mpmath.libmp import MPZ, fzero, mpf_gt

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


# A fork, its pipe and its wait cost about 2 ms on a 2-core x86 VM, the
# work of some 30 grid points at N = 6 (65 us each, more at larger N).
# A chunk of at least 64 points keeps that under half of what it saves.
_MIN_CHUNK_POINTS = 64

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
    stored attempt, grown here before any fork when it falls
    short; then each grid point costs its powers and one dot per entry:
    K(x) = ||L^-1 v(x)||^2, every dot of exact products rounded once.

    The grid is split by ``_forked_map``: one process per usable core,
    this one included, each with at least ``_MIN_CHUNK_POINTS`` points,
    and a single-core host or one without ``os.fork`` runs serially.
    The chunk maxima are combined in index order, so the value is bit
    for bit the serial one.
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

        def kernel_max(lo: int, hi: int) -> List[List[tuple]]:
            # [[raw K]] at the first strict maximum over grid points lo..hi-1
            best = fzero
            for j in range(lo, hi):
                v = _powers((rho_m * j / (grid_points - 1))._mpf_, lams, bits)
                y = [_dot(row, v, bits) for row in inv_rows]
                kernel = _dot(y, y, bits)
                if mpf_gt(kernel, best):
                    best = kernel
            return [[best]]

        maxima = _forked_map(kernel_max, grid_points, _MIN_CHUNK_POINTS)
        return mp.sqrt(max(mp.make_mpf(m) for (m,) in maxima))
