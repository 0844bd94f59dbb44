"""Tests of the benchmark itself.

    python3 -m pytest -q latbench/tests
"""

from __future__ import annotations

import importlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from tracer import COUNTERS, SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, random_3cnf, dimacs  # noqa: E402

from latgad import cli  # noqa: E402


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert cli.dispatch(list(argv)) == 0, argv
    return out.getvalue()


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _bump(vec: list[str], i: int, delta: float) -> None:
    vec[i] = repr(float(vec[i]) + delta)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    w = WORKLOADS[name]
    fix = tmp_path / "fix"

    def inputs(seed):
        return [(j.params, j.files, w.steps(j, tmp_path, fix)) for j in w.plan(seed, 8)]

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def _originals():
    return {(mod, attr): getattr(importlib.import_module(mod), attr) for _, mod, attr, _ in SPANS + COUNTERS}


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    before = _originals()
    tracer = Tracer()
    tracer.job = 0
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert cli.dispatch is not before[("latgad.cli", "dispatch")]
            _cli("gadget", "find", "--k", "3", "--p", "3", "--out", str(tmp_path / "g.json"))
            raise RuntimeError("job failed inside the traced block")
    after = _originals()
    assert all(after[key] is before[key] for key in before)
    names = {s.name for s in tracer.spans}
    assert {"cli.dispatch", "gadgets.find_shift", "distmatrix.distance_matrix"} <= names
    assert all(s.end >= s.start for s in tracer.spans)


def test_failed_job_logs_its_exception_class(tmp_path):
    runner = run.Runner(WORKLOADS["gadget-build"], 1, tmp_path / "work", None)
    code, exc, _, message = runner._dispatch(["gadget", "find", "--k", "10", "--p", "2.5"])
    assert (code, exc) == (1, "NumericDegeneracyError")
    assert "no nonsingular shift" in message


def test_gadget_check_rejects_a_corrupted_copy(tmp_path):
    g, o = tmp_path / "g.json", tmp_path / "o.json"
    _cli("gadget", "find", "--k", "4", "--p", "2.5", "--out", str(g))
    _cli("gadget", "onoff", "--in", str(g), "--out", str(o))
    assert checks.check_gadget(_load(g), _load(o)) == []

    bad_t = _load(g)
    _bump(bad_t["t"], 3, 1e-3)
    assert checks.check_gadget(bad_t, _load(o))
    bad_v = _load(g)
    _bump(bad_v["V"][1], 5, 1e-3)
    assert checks.check_gadget(bad_v, _load(o))
    bad_off = _load(o)
    _bump(bad_off["t_off"], 0, 1e-3)
    assert checks.check_gadget(_load(g), bad_off)


def test_sat_check_rejects_a_corrupted_copy(tmp_path):
    g, cnf, inst = tmp_path / "g3.json", tmp_path / "f.cnf", tmp_path / "inst.json"
    clauses = random_3cnf(np.random.default_rng(3), 6, 25)
    cnf.write_bytes(dimacs(6, clauses))
    _cli("gadget", "find", "--k", "3", "--p", "3", "--out", str(g))
    _cli("reduce", "sat", "--cnf", str(cnf), "--gadget", str(g), "--out", str(inst))
    report = _cli("oracle", "validate", "--cnf", str(cnf), "--instance", str(inst), "--box=-1..2")
    assert checks.check_sat_instance(clauses, 6, _load(inst), report) == []

    bad_t = _load(inst)
    _bump(bad_t["target"], 2, 0.25)
    assert checks.check_sat_instance(clauses, 6, bad_t, report)
    bad_b = _load(inst)
    _bump(bad_b["basis"][0], 1, 0.25)
    assert checks.check_sat_instance(clauses, 6, bad_b, report)


def test_cvpp_check_rejects_a_corrupted_copy(tmp_path):
    g4, prep, cnf, q = (tmp_path / f for f in ("g4.json", "prep.json", "q.cnf", "q.json"))
    clauses = [(1, -2, 3), (-1, 2, 4), (2, 3, -4), (-1, -3, -4), (1, 2, 3)]
    cnf.write_bytes(dimacs(4, clauses))
    _cli("gadget", "find", "--k", "4", "--p", "3", "--out", str(g4))
    _cli("cvpp", "prep", "--n", "4", "--k", "3", "--gadget", str(g4), "--out", str(prep))
    _cli("cvpp", "query", "--prep", str(prep), "--cnf", str(cnf), "--out", str(q))

    def check(doc):
        return checks.check_cvpp_query(clauses, 4, 3, doc, np.random.default_rng(0))

    assert check(_load(q)) == []
    bad_t = _load(q)
    _bump(bad_t["target"], 5, 0.25)
    assert check(bad_t)
    bad_b = _load(q)
    _bump(bad_b["basis"][0], 1, 0.25)
    assert check(bad_b)
