"""The benchmark's tracer wraps program functions by module attribute name
(`latbench/tracer.py`, `SPANS` and `COUNTERS`).  A traced run looks each one
up with getattr, so renaming or deleting any of them breaks every traced
benchmark run.  This checks that every name still resolves."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "latbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("latbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
WRAPPED = [(mod, attr) for _, mod, attr, _ in [*_tracer.SPANS, *_tracer.COUNTERS]]


def test_tracer_wraps_something():
    assert WRAPPED and all(mod.startswith("latgad.") for mod, _ in WRAPPED)


@pytest.mark.parametrize("mod, attr", WRAPPED, ids=[f"{mod}.{attr}" for mod, attr in WRAPPED])
def test_wrapped_attribute_resolves(mod, attr):
    assert callable(getattr(importlib.import_module(mod), attr, None)), f"{mod} has no callable {attr}"
