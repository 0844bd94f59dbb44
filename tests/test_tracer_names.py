"""The benchmark's tracer wraps program functions by module attribute name
(`latbench/tracer.py`, `SPANS` and `COUNTERS`).  A traced run looks each one
up with getattr, so renaming or deleting any of them breaks every traced
benchmark run.  This checks that every name still resolves."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from latgad import gadgets, reductions, serialize
from latgad.formulas import Clause, CspFormula

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


def test_cold_reads_call_the_wrapped_parsers(monkeypatch):
    # the readers look parse_columns and parse_vector up at call time, so the
    # tracer's wrappers, set on the module attributes, see every array read
    wrapped = [(mod, attr) for mod, attr in WRAPPED if attr in ("parse_columns", "parse_vector")]
    assert sorted(attr for _, attr in wrapped) == ["parse_columns", "parse_vector"]
    calls = []
    for mod, attr in wrapped:
        module = importlib.import_module(mod)
        parse = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda doc, parse=parse, attr=attr: calls.append(attr) or parse(doc))
    g = gadgets.find_isolating_parallelepiped(3, 3.0)
    formula = CspFormula(n=3, constraints=[Clause((1, -2, 3))])
    reads = {
        "gadget": (serialize.gadget_from_json, serialize.gadget_to_json(g)),
        "prep": (serialize.cvpp_from_json, serialize.cvpp_to_json(reductions.cvpp_header(3, 2, gadgets.to_on_off(g)))),
        "instance": (serialize.instance_from_json, serialize.instance_to_json(reductions.sat_to_cvp(formula, g))),
    }
    for name, (read, payload) in reads.items():
        calls.clear()
        read(json.loads(serialize.dumps(payload)))
        assert sorted(set(calls)) == ["parse_columns", "parse_vector"], name
