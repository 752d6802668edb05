"""Span tracing of the muntz layers from outside the package.

``Tracer`` wraps every public function of each layer module, and
``ExponentSequence.values_at``.  A wrapper is installed on the defining
module's global and on every other muntz module that imported the same
function by name, so calls such as ``gram`` -> ``power_moment`` or
``cli`` -> ``fmt`` are seen.  Wrappers are installed only around traced
reports; untraced reports run the original functions.

Each span records its name, start, end, parent span and report id.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("precision", "exponents", "domain", "gram", "duals", "series", "momentsolve",
          "operator", "cli")

# Leaf conversions called several times per moment: a span around each
# would time the tracer rather than the layer.  ``workbits`` only builds
# a context manager.
UNTRACED = {"workbits", "to_fraction", "mpf_from_fraction", "to_mpf", "decimal_digits"}


# Span name -> aggregates reported for it.  Spans in DISTINCT also get
# the ratio of distinct inputs (within one report) to calls.
REPORTED = {
    "domain.power_moment": ("calls", "ms"),
    "exponents.values_at": ("calls", "ms"),
    "gram.gram": ("calls", "self_ms"),
    "gram.solve_spd": ("calls", "ms"),
    "gram.gram_inverse": ("calls", "ms"),
    "gram.gram_inverse_column": ("calls",),
    "gram.forward_substitution": ("calls", "ms"),
    "duals.distance_sweep": ("ms",),
    "duals.dual_family": ("ms",),
    "duals.oracle_distance": ("ms",),
    "series.project": ("ms",),
    "series.christoffel_remez": ("self_ms",),
    "momentsolve.solve_moments": ("ms",),
    "momentsolve.convergence_certificate": ("ms",),
    "operator.hereditary_check": ("calls", "self_ms"),
    "operator.eigen_check": ("self_ms",),
    "operator.finite_sections": ("self_ms",),
    "precision.fmt": ("calls", "ms"),
    "cli.run": ("self_ms",),
}


DISTINCT = ("domain.power_moment", "gram.gram", "gram.gram_inverse_column")


def _mpf_key(x):
    return getattr(x, "_mpf_", x)


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []          # (name id, start, end, parent, report)
        self.report = -1
        self._stack = []
        self._patches = []       # (owner, attribute, original, wrapper)
        self.keys = defaultdict(set)   # distinct-input keys, tagged by report
        self.gram_bits = []
        self._build()

    # -- installation ------------------------------------------------------

    def _build(self):
        modules = [importlib.import_module(f"muntz.{layer}") for layer in LAYERS]
        owners = modules + [sys.modules["muntz"]]
        for layer, mod in zip(LAYERS, modules):
            for attr, func in vars(mod).items():
                if (attr.startswith("_") or attr in UNTRACED or not inspect.isfunction(func)
                        or func.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(func, f"{layer}.{attr}")
                for owner in owners:
                    for name, value in vars(owner).items():
                        if value is func:
                            self._patches.append((owner, name, func, wrapper))
        cls = sys.modules["muntz.exponents"].ExponentSequence
        original = cls.values_at
        self._patches.append((cls, "values_at", original,
                              self._wrap(original, "exponents.values_at")))

    @contextmanager
    def tracing(self, report: int):
        """Install the wrappers for the duration of one report."""
        self.report = report
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)
        try:
            yield
        finally:
            for owner, name, original, _ in self._patches:
                setattr(owner, name, original)

    def _wrap(self, func, name):
        name_id = len(self.names)
        self.names.append(name)
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.report)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -- inputs recorded for distinct-work ratios ----------------------------

    def _observe_domain_power_moment(self, args, kwargs, result):
        wd, s = args[0], args[1] if len(args) > 1 else kwargs["s"]
        bits = (args[2] if len(args) > 2 else kwargs.get("precision_bits")) or wd.precision_bits
        self.keys["domain.power_moment"].add((self.report, wd.pieces, _mpf_key(s), bits))

    def _observe_gram_gram(self, args, kwargs, result):
        wd, lam, n = args[0], args[1], args[2] if len(args) > 2 else kwargs["n"]
        bits = args[3] if len(args) > 3 else kwargs.get("precision_bits")
        lam_key = (lam.generator, lam.raw)
        self.keys["gram.gram"].add((self.report, wd.pieces, lam_key, n, bits))
        self.gram_bits.append(result.precision_bits)

    def _observe_gram_gram_inverse_column(self, args, kwargs, result):
        g, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
        section = (g.domain.pieces, g.precision_bits, tuple(_mpf_key(v) for v in g.lams))
        self.keys["gram.gram_inverse_column"].add((self.report, section, n))

    # -- results -------------------------------------------------------------

    def metrics(self):
        """The per-layer metrics named in BENCHMARK.json, as (value, unit)."""
        calls = defaultdict(int)
        total = defaultdict(float)
        own = [end - start for _, start, end, _, _ in self.spans]
        for nid, start, end, parent, _ in self.spans:
            calls[nid] += 1
            total[nid] += end - start
            if parent >= 0:
                own[parent] -= end - start
        self_time = defaultdict(float)
        for (nid, *_), t in zip(self.spans, own):
            self_time[nid] += t

        ids = {name: i for i, name in enumerate(self.names)}
        gram_id = ids["gram.gram"]
        attempts = sum(1 for nid, _, _, parent, _ in self.spans
                       if nid == ids["exponents.values_at"] and parent >= 0
                       and self.spans[parent][0] == gram_id)
        read = {
            "calls": lambda i: (calls[i], "count"),
            "ms": lambda i: (total[i] * 1000.0, "ms"),
            "self_ms": lambda i: (self_time[i] * 1000.0, "ms"),
        }
        out = {}
        for name, kinds in REPORTED.items():
            for kind in kinds:
                out[f"{name}.{kind}"] = read[kind](ids[name])
            if name in DISTINCT:
                n = calls[ids[name]]
                out[f"{name}.distinct_ratio"] = (len(self.keys[name]) / n if n else 0.0, "ratio")
        n = calls[gram_id]
        out["gram.gram.attempts_per_call"] = (attempts / n if n else 0.0, "ratio")
        out["gram.gram.bits_used_max"] = (max(self.gram_bits, default=0), "bits")
        return out

    def write(self, path: Path) -> None:
        """Write all spans as tab-separated text, times in microseconds
        from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_us\tend_us\tparent\treport\n")
            for i, (nid, start, end, parent, report) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[nid]}\t{(start - origin) * 1e6:.1f}\t"
                         f"{(end - origin) * 1e6:.1f}\t{parent}\t{report}\n")
