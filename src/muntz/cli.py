"""Command-line front end: JSON configs in, machine-readable reports out.

Every report embeds the fully resolved configuration, so re-running from
that block reproduces the report byte for byte.  All numbers serialize
as decimal strings at a digit count derived from the working precision;
binary floats never appear in the output.

A report is written in one pass (``_json``): each distinct mpf is
formatted once, by ``precision.fmt``, and the indented JSON is written
directly, byte for byte what ``json.dumps(report, indent=2,
sort_keys=True)`` writes once the mpfs are strings.  A CSV report formats
the rows of its table through the same memo of texts.

One pipeline serves every command: load the config, resolve the
precision, resolve every input the command reads in the order
``COMMANDS`` lists them, compute, and emit.  A command's one Gram
section is one of those inputs, factored after the domain, exponents and
sizes at the requested precision; the blocks whose values hang on the
width (target, moment data, operator) come after it and are parsed once,
at the width it settles at.

A process that reports more than once (a script or server calling ``run``)
keeps, as ``gram`` keeps factored sections, the config blocks it has
parsed: the domain, exponents, moment data, target and operator.  A block
met again at the same width, after the same blocks, is not parsed again;
inputs with a flag are cheap and always parsed.  A one-shot ``muntz`` run
does the same work as before.

Exit codes: 0 success, 2 validation or config problems, 3 numerical
failures that more precision might fix.  No config, however malformed,
makes ``run`` raise.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from collections import OrderedDict
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Optional

from mpmath import mp

from . import duals, momentsolve, operator, series
from .domain import domain_from_json, domain_to_json
from .errors import MalformedConfig, MuntzError, NumericalError
from .exponents import exponents_from_json, exponents_to_json
from .gram import GramMatrix, gram, leading_section, leading_sections
from .precision import DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS, MIN_PRECISION_BITS
from .precision import fmt, to_fraction, to_int

ENV_PRECISION = "MUNTZ_PRECISION_BITS"
REQUIRED = object()


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _expect(json.load(fh), dict, "config root")
    except OSError as exc:
        raise MalformedConfig(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise MalformedConfig(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedConfig("config is nested too deeply to read") from exc


def _resolve_precision(cfg: dict, args) -> tuple:
    """(precision_bits, max_precision_bits): flag > environment > config >
    default, where a null config value counts as not given."""
    given = (args.precision_bits, os.environ.get(ENV_PRECISION) or None,
             cfg.get("precision_bits"), DEFAULT_PRECISION_BITS)
    bits = to_int(next(v for v in given if v is not None))
    if bits < MIN_PRECISION_BITS:
        raise MalformedConfig(f"precision_bits must be at least {MIN_PRECISION_BITS}")
    top = cfg.get("max_precision_bits")
    top = to_int(MAX_PRECISION_BITS if top is None else top)
    # checked before anything is parsed at that width: 3e6 bits ran past 15 s
    if not bits <= top <= MAX_PRECISION_BITS:
        raise MalformedConfig(f"need precision_bits {bits} <= max_precision_bits {top} "
                              f"<= {MAX_PRECISION_BITS}")
    return bits, top


def _expect(raw, kind: type, name: str):
    if not isinstance(raw, kind):
        raise MalformedConfig(f"{name} must be a JSON {'object' if kind is dict else 'list'}")
    return raw


@dataclass(frozen=True)
class Param:
    """One input of a command: its config ``key`` ("block.key" inside a
    block, empty where no config value feeds it), the argparse keywords
    of its overriding ``--name`` flag (or None), ``parse(raw, inputs)``
    for a given value (None is not given), the ``default`` (a value, a
    function of the inputs, or REQUIRED), and ``echo``, which writes the
    value into the report's config."""

    name: str
    key: str
    parse: Callable[[Any, "_Inputs"], Any]
    default: Any = None
    flag: Optional[dict] = None
    echo: Optional[Callable[[Any], Any]] = None


# A process reporting on a few domains and exponent families, with their
# data, targets and operators at each width they settle at: the bench's
# seed-1 runs parse 38 distinct blocks in 5 rounds of section_sweep, 20 in
# 7 of partition_sweep and 8 in 6 of grid, and an LRU of 34, 20 and 8
# keeps every one that is parsed again.  Each is a few tuples of mpf.
MAX_PARSED_INPUTS = 64
# (parser, width, canonical JSON of each config block the command lists,
# up to and including this one) -> parsed value, least recently used first
_PARSED: OrderedDict[tuple, Any] = OrderedDict()


class _Inputs:
    """One report's inputs, resolved in the order the command lists them,
    so that a parser reads only inputs listed before its own.  Each is
    parsed once, at ``width``: the requested ``bits`` until the section
    ``g`` (``SECTION``) is factored, the width it settles at after.

    Every required input is looked up before any is parsed, so an absent
    one is reported first.  A config block (an input with no flag) parsed
    before in this process is taken from ``_PARSED``.  A block parser
    reads only the width, the domain and the exponents, which every
    command lists first, and of those two only what no width rounds, so
    the width and the raws of the blocks up to its own key its value.  A
    parse that raises is not kept, and raises again on the next report.
    """

    def __init__(self, cfg: dict, args, params):
        self.cfg, self.params, self.g = cfg, params, None
        self.bits, self.max_bits = _resolve_precision(cfg, args)
        raws = []
        for param in params:
            raw = getattr(args, param.name) if param.flag is not None else None
            if raw is None and param.key:
                block, _, key = param.key.rpartition(".")
                section = cfg.get(block) if block else cfg
                raw = None if section is None else _expect(section, dict, block).get(key)
            if raw is None and param.default is REQUIRED:
                raise MalformedConfig(f"config is missing required block {param.key!r}")
            raws.append(raw)
        blocks = ()  # the canonical JSON of each config block so far, all required
        for param, raw in zip(params, raws):
            if raw is None:
                value = param.default(self) if callable(param.default) else param.default
            elif param.flag is not None:
                value = param.parse(raw, self)
            else:
                blocks += (json.dumps(raw, sort_keys=True),)
                memo = (param.parse, self.width, *blocks)
                value = _PARSED.pop(memo) if memo in _PARSED else param.parse(raw, self)
                _PARSED[memo] = value
                if len(_PARSED) > MAX_PARSED_INPUTS:
                    _PARSED.popitem(last=False)
            setattr(self, param.name, value)

    width = property(lambda self: self.bits if self.g is None else self.g.precision_bits)

    def echo(self) -> dict:
        """The config as given, with every resolved input written back."""
        config = dict(self.cfg, precision_bits=self.bits)
        blocks = {}
        for param in self.params:
            value = getattr(self, param.name)
            if param.echo is not None and value is not None:
                block, _, key = param.key.rpartition(".")
                (blocks.setdefault(block, {}) if block else config)[key] = param.echo(value)
        config.update(blocks)
        return config


def _ints(raw) -> list:
    """Integers from a JSON list or a comma-separated string."""
    if not isinstance(raw, list):
        raw = [tok for tok in str(raw).split(",") if tok.strip()]
    return [to_int(v) for v in raw]


def _real(raw, _):
    """A real number as the decimal string the report echoes, so that a
    JSON number computes with the value its echo shows, not its binary
    float, and re-running from the echo reproduces the report."""
    to_fraction(raw)
    return raw if isinstance(raw, str) else str(raw)


def _bounded(n: int, top: int) -> int:
    if not 1 <= n <= top:
        raise MalformedConfig(f"size or index {n} outside 1..{top}")
    return n


def _sizes(raw, inputs) -> list:
    """Section sizes, strictly increasing."""
    sizes = [_bounded(n, len(inputs.lam)) for n in _ints(raw)]
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise MalformedConfig(f"need strictly increasing section sizes, got {sizes}")
    return sizes


def _sweep(raw, inputs):
    if not isinstance(raw, bool):
        raise MalformedConfig("sweep must be true or false")
    return raw or None


def _partition_side(raw, inputs):
    """One side of the partition; a sweep reads neither side."""
    return None if inputs.sweep else sorted(set(_ints(raw)))


def _section(inputs) -> GramMatrix:
    """The one section a command factors, of the largest size it reads:
    N, or the last N_list entry when that is larger or there is no N.
    Every input after it is parsed at the width it settles at."""
    size = max(getattr(inputs, "N", 0), (getattr(inputs, "N_list", None) or [0])[-1])
    return gram(inputs.wd, inputs.lam, size, inputs.bits, inputs.max_bits)


WD = Param("wd", "domain", lambda raw, i: domain_from_json(raw, i.width), REQUIRED)
LAM = Param("lam", "exponents", lambda raw, i: exponents_from_json(raw, i.width), REQUIRED)
N = Param("N", "N", lambda raw, i: _bounded(to_int(raw), len(i.lam)), lambda i: len(i.lam),
          {"type": int}, int)
N_DATA = replace(N, default=lambda i: len(_expect(i.cfg["d"], list, "d")))
N_LIST = Param("N_list", "N_list", _sizes, None, {}, list)
N_LIST_ALL = replace(N_LIST, default=lambda i: [len(i.lam)])
INDEX = Param("n", "n", lambda raw, i: _bounded(to_int(raw), i.N_list[0]), 1, {"type": int}, int)
REL_TOL = Param("rel_tol", "rel_tol", _real, "0.01", {}, str)
EPSILON = Param("epsilon", "epsilon", _real, None, {}, str)
RHO = Param("rho", "rho", _real, REQUIRED, {}, str)
GRID = Param("grid_points", "grid_points", lambda raw, i: series.check_grid_points(to_int(raw)),
             1000, {"type": int}, int)
SECTION = Param("g", "", None, _section)
TARGET = Param("target", "target", lambda raw, i: series.target_from_json(
    raw, i.lam, i.wd, i.width), REQUIRED)
DATA = Param("data", "d", lambda raw, i: momentsolve.build_moment_data(
    i.wd, i.lam, _expect(raw, list, "d"), i.width), REQUIRED)
OPERATOR = Param("operator", "operator", lambda raw, i: operator.operator_from_json(
    raw, i.lam, i.width), REQUIRED)
N1 = Param("n1", "partition.N1", _partition_side, lambda i: _partition_side([], i),
           {"help": "comma-separated power indices"}, list)
N2 = replace(N1, name="n2", key="partition.N2", flag={"help": "comma-separated dual indices"})
SWEEP = Param("sweep", "sweep", _sweep, None, {"action": "store_true", "default": None}, bool)


# -- per-command results: mpf values, rendered at the section's precision --------


def _validate(i: _Inputs, g) -> dict:
    return {"r_A": i.wd.r_a, "r_w": i.wd.r_a, "total_measure": i.wd.total_measure,
            "weight_mass": i.wd.weight_mass, "exponent_count": len(i.lam), "gap": i.lam.gap,
            "summability_tag": i.lam.summability_tag}


def _gram(i: _Inputs, g: GramMatrix) -> dict:
    entries = g.entries()
    rows = [[r + 1, c + 1, entries[r][c]] for r in range(g.n) for c in range(g.n)]
    return {"n": g.n, "entries": entries, "rows": rows}


def _distances(i: _Inputs, g: GramMatrix) -> dict:
    rep = duals.distance_sweep(g, i.N_list, i.n, i.rel_tol)
    oracle = {"applicable": False, "reason": "closed form needs [0,1] with unit weight"}
    if i.wd.is_unit_lebesgue:
        oracle = {"applicable": True,
                  "source": "classical closed-form distance on [0,1], unit weight",
                  "values": {str(m): fmt(duals.oracle_distance(i.lam, i.n, m, i.bits), i.bits)
                             for m in i.N_list}}
    results = {"n": i.n, "stabilized": rep.stabilized, "limit_estimate": rep.limit_estimate,
               "sections": rep.sections, "rows": rep.sections, "oracle": oracle,
               "exponent_slopes": rep.exponent_slopes()}
    if i.epsilon is not None:
        cert = duals.lower_bound_certificate(rep, i.epsilon)
        results["certificate"] = {"epsilon": str(i.epsilon), **vars(cert)}
    return results


def _duals(i: _Inputs, g: GramMatrix) -> dict:
    fam = duals.dual_family(g)
    return {
        "coefficient_columns": fam.coeffs, "norms": fam.norms, "distances": fam.distances,
        "max_biorthogonality_residual": fam.residual,
        "rows": [[k + 1, fam.norms[k], fam.distances[k]] for k in range(g.n)],
    }


def _expand(i: _Inputs, g: GramMatrix) -> dict:
    proj, residual = series.project(leading_section(g, i.N), i.target)
    results = {"coefficients": proj.coeffs, "residual": residual,
               "rows": [[k + 1, c] for k, c in enumerate(proj.coeffs)]}
    if i.N_list is not None:
        table = series.coefficient_convergence(g, i.N_list, i.target)
        results["convergence"] = {
            "section_sizes": table.section_sizes, "coefficient_rows": table.rows,
            "diffs": table.diffs, "cauchy_flags": table.cauchy_flags}
    return results


def _remez(i: _Inputs, g: GramMatrix) -> dict:
    values = [series.christoffel_remez(s, i.rho, i.grid_points)
              for s in leading_sections(g, i.N_list)]
    return {"rho": str(i.rho), "grid_points": i.grid_points, "rows": list(zip(i.N_list, values))}


def _moments(i: _Inputs, g: GramMatrix) -> dict:
    # one forward solve serves the section and every size of the certificate
    solutions = {} if i.N_list is None else momentsolve.moment_solutions(
        g, i.data, [i.N, *i.N_list])
    solution, residuals = momentsolve.solve_moments(leading_section(g, i.N), i.data,
                                                    solutions.get(i.N))
    results = {
        "fitted_a": i.data.fitted_a, "fitted_C": i.data.fitted_c, "growth_ok": i.data.growth_ok,
        "coefficients": solution.coeffs, "residuals": residuals,
        "rows": [[k + 1, solution.coeffs[k], residuals[k]] for k in range(i.N)],
    }
    if i.N_list is not None:
        results["certificate"] = vars(momentsolve.convergence_certificate(
            g, i.N_list, i.data, solutions))
    return results


def _operator(i: _Inputs, g: GramMatrix) -> dict:
    spec, rep = i.operator, operator.eigen_check(i.operator, g)
    # hold by construction: the section diag(u) has the powers as
    # eigenvectors, and eigen_check raises unless u is nonzero and distinct
    return {"apply_demo": operator.apply_demo(spec, g), "kind": spec.kind, "rho": spec.rho,
            "u": spec.u[:g.n], "rows": rep.tail_bounds, "eigen_ok": True,
            "simplicity_ok": True, "kernel_trivial_ok": True, **vars(rep)}


def _hereditary(i: _Inputs, g: GramMatrix) -> dict:
    reports = (operator.hereditary_sweep(g) if i.sweep
               else [operator.hereditary_check(g, (i.n1, i.n2))])
    rows = [[",".join(map(str, rep.n1)) or "-", ",".join(map(str, rep.n2)) or "-",
             rep.mixed_matrix_det, rep.min_singular_value, rep.nonsingular] for rep in reports]
    if i.sweep:
        return {"partitions": len(rows), "rows": rows,
                "min_over_partitions": min(rep.min_singular_value for rep in reports)}
    return {"mixed_matrix_det": reports[0].mixed_matrix_det, "rows": rows,
            "min_singular_value": reports[0].min_singular_value,
            "nonsingular": reports[0].nonsingular}


class _Texts(dict):
    """The decimal text at ``bits`` of each mpf of one report, by raw
    value, formatted on its first lookup: a value that recurs (a named
    block and its ``rows``, the two halves of a symmetric section) costs
    one ``fmt``."""

    def __init__(self, bits: int):
        super().__init__()
        self.bits = bits

    def __missing__(self, raw) -> str:
        text = self[raw] = fmt(mp.make_mpf(raw), self.bits)
        return text


# what the JSON encoder writes for None, the bools and the special floats
_CONSTANTS = {None: "null", True: "true", False: "false",
              "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(obj, texts: _Texts, out: list, pad: str = "\n") -> None:
    """Append to ``out`` the text of ``obj``, every mpf its text in
    ``texts``, as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it,
    each line after its first led by ``pad``.  One walk, one frame per
    level of nesting, so every config the decoder reads is echoed, and
    each piece of text is copied once, into the final join.  The mpfs and
    ints of a list are written in its own loop."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for value in obj:
            kind = type(value)
            if kind is mp.mpf:
                out.append(sep + '"' + texts[value._mpf_] + '"')
            elif kind is int:
                out.append(sep + int.__repr__(value))
            else:
                out.append(sep)
                _json(value, texts, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + encode_basestring_ascii(key if isinstance(key, str) else _key(key))
                       + ": ")
            _json(value, texts, out, inner)
            sep = "," + inner
        out.append(pad + "}")
    else:
        out.append(_leaf(obj, texts))


def _leaf(obj, texts: _Texts) -> str:
    """A value that is not a list or a dict, as the JSON encoder writes it,
    an mpf as its text; ``json.dumps`` raises the encoder's TypeError for
    what it cannot write."""
    if isinstance(obj, mp.mpf):
        return '"' + texts[obj._mpf_] + '"'
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return _CONSTANTS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _CONSTANTS.get(text, text)
    return json.dumps(obj)


def _key(key) -> str:
    """A dict key that is not a string, as the JSON encoder writes it."""
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


@dataclass(frozen=True)
class Command:
    """A command's results function, every input it reads, and the column
    names of its table.  A command with a table lists one section among
    its inputs (``SECTION``) and cuts every other size from it."""

    results: Callable[[_Inputs, Optional[GramMatrix]], dict]
    params: tuple
    columns: Optional[list] = None


COMMANDS = {
    "validate": Command(_validate, (replace(WD, echo=domain_to_json),
                                    replace(LAM, echo=exponents_to_json))),
    "gram": Command(_gram, (WD, LAM, N, SECTION), ["i", "j", "value"]),
    "distances": Command(_distances, (WD, LAM, N_LIST_ALL, INDEX, REL_TOL, EPSILON, SECTION),
                         ["N", "distance"]),
    "duals": Command(_duals, (WD, LAM, N, SECTION), ["n", "norm", "distance"]),
    "expand": Command(_expand, (WD, LAM, N, N_LIST, SECTION, TARGET), ["n", "coefficient"]),
    "remez": Command(_remez, (WD, LAM, N_LIST_ALL, RHO, GRID, SECTION), ["N", "c_N"]),
    "moments": Command(_moments, (WD, LAM, N_DATA, N_LIST, SECTION, DATA),
                       ["n", "coefficient", "residual"]),
    "operator": Command(_operator, (WD, LAM, N, SECTION, OPERATOR), ["m", "tail_bound"]),
    "hereditary": Command(_hereditary, (WD, LAM, N, SWEEP, N1, N2, SECTION),
                          ["N1", "N2", "det", "min_singular_value", "nonsingular"]),
}


def _emit(report: dict, args, bits: int) -> None:
    texts, results = _Texts(bits), report["results"]
    if args.format == "json":
        out = []
        _json(report, texts, out)
        text = "".join(out) + "\n"
    elif "rows" not in results:
        raise MalformedConfig("this command has no tabular output; use --format json")
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([results["columns"], *(
            [texts[v._mpf_] if isinstance(v, mp.mpf) else v for v in row]
            for row in results["rows"])])
        text = buf.getvalue()
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise MalformedConfig(f"cannot write {args.out}: {exc}") from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``run`` and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="muntz", description="Arbitrary-precision toolkit for weighted power systems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--precision-bits", dest="precision_bits", type=int)
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        for param in command.params:
            if param.flag is not None:
                p.add_argument("--" + param.name.replace("_", "-"), **param.flag)
    return parser


def run(argv) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    command = COMMANDS[args.command]
    try:
        inputs = _Inputs(_load_config(args.config), args, command.params)
        g = inputs.g
        results = command.results(inputs, g)
        if g is not None:
            own = leading_section(g, getattr(inputs, "N", g.n))
            results.update(precision_bits_used=g.precision_bits, cond_estimate=own.cond_estimate,
                           columns=command.columns)
        _emit({"command": args.command, "config": inputs.echo(), "results": results}, args,
              inputs.width)
        return 0
    except MuntzError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericalError) else 2


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
