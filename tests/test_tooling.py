"""Checks on the benchmark's view of the package, read from ``bench/``
without importing the benchmark runner."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_name_resolves_on_its_module():
    # the span tracer wraps these by name, so a renamed or removed public
    # function would break only a traced benchmark run
    traced = _traced()
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module(f"pictomata.{layer}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            holder = getattr(module, owner) if owner else module
            assert attr in vars(holder), f"pictomata.{layer}.{name}"
            assert callable(vars(holder)[attr]), f"pictomata.{layer}.{name}"
