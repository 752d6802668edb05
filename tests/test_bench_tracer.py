"""The benchmark tracer wraps every span name it reports.

A reported name with no wrapper, such as a library function that was
renamed or removed, makes ``bench/run.py --trace 1`` fail with a
KeyError; this notices it without running the benchmark."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_reported_span_is_traced(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    names = set(tracer.Tracer().names)
    assert sorted(set(tracer.REPORTED) - names) == []
