"""Per-layer tracing from outside the program.

The traced run replaces module attributes that the program calls (for
example `latgad.gadgets.find_shift`) with wrappers that record a span:
name, start, end, parent span and job id.  Spans stay in memory and are
written out when the run ends.  Wrappers exist only inside `installed()`;
the original functions are put back on exit, also when a job raises.

Layers are named after latgad's modules.  Where the program imported a
function by name, the wrapper sits on the importing module's attribute
(`gadgets.pnorm`, `oracle.integer_grid`, `cli.parse_dimacs`) because that
is the name the program looks up at call time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

TO_JSON = ("gadget_to_json", "onoff_to_json", "instance_to_json", "cvpp_to_json", "fmt_columns", "fmt_vector")
FROM_JSON = (
    "gadget_from_json",
    "onoff_from_json",
    "instance_from_json",
    "cvpp_from_json",
    "parse_columns",
    "parse_vector",
)


def _k_bytes(args, kwargs, result):
    return {"bytes": 8 * 4 ** int(args[0])}


def _vertices(args, kwargs, result):
    return {"vertices": 2 ** int(args[0].k)}


def _box(args, kwargs, result):
    inst = args[1]
    box = args[2] if len(args) > 2 else kwargs.get("box")
    lo, hi = box if box is not None else (0, 1)
    return {"box_points": (hi - lo + 1) ** inst.n, "d": inst.d, "wide": lo < 0 or hi > 1}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result)}


# (layer name, module the program looks the attribute up in, attribute, sizer)
SPANS = [
    ("cli.dispatch", "latgad.cli", "dispatch", None),
    ("formulas.parse_dimacs", "latgad.cli", "parse_dimacs", None),
    ("distmatrix.distance_matrix", "latgad.distmatrix", "distance_matrix", _k_bytes),
    ("distmatrix.eigen_report", "latgad.distmatrix", "eigen_report", None),
    ("gadgets.find_isolating_parallelepiped", "latgad.gadgets", "find_isolating_parallelepiped", None),
    ("gadgets.find_shift", "latgad.gadgets", "find_shift", None),
    ("gadgets.solve_weights", "latgad.gadgets", "solve_weights", None),
    ("gadgets.verify_parallelepiped", "latgad.gadgets", "verify_parallelepiped", _vertices),
    ("gadgets.verify_on_off", "latgad.gadgets", "verify_on_off", None),
    ("oracle.validate_reduction", "latgad.oracle", "validate_reduction", _box),
    ("oracle.cvp_enumerate", "latgad.oracle", "cvp_enumerate", None),
    ("oracle.max_sat_brute", "latgad.oracle", "max_sat_brute", None),
    ("reductions.sat_to_cvp", "latgad.reductions", "sat_to_cvp", None),
    ("reductions.cvpp_preprocess", "latgad.reductions", "cvpp_preprocess", None),
    ("reductions.cvpp_query", "latgad.reductions", "cvpp_query", None),
    ("serialize.dumps", "latgad.serialize", "dumps", _text_bytes),
    *[("serialize.to_json", "latgad.serialize", a, None) for a in TO_JSON],
    *[("serialize.from_json", "latgad.serialize", a, None) for a in FROM_JSON],
]

# counted, not timed: a span per call would cost more than the call
# (layer name, module, attribute, True when the function is a generator of row chunks)
COUNTERS = [
    ("numeric.pnorm", "latgad.gadgets", "pnorm", False),
    ("numeric.integer_grid", "latgad.oracle", "integer_grid", True),
]


class Span:
    __slots__ = ("id", "name", "parent", "job", "start", "end", "exc", "info")

    def __init__(self, id, name, parent, job, start):
        self.id, self.name, self.parent, self.job, self.start = id, name, parent, job, start
        self.end = None
        self.exc = None
        self.info = Counter()

    def to_json(self, t0: float) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "job": self.job,
            "start": self.start - t0,
            "end": self.end - t0,
            "exc": self.exc,
            "info": dict(self.info),
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job = None
        self.t0 = time.perf_counter()

    def _span(self, name, fn, sizer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a layer nested in itself (fmt_columns inside cvpp_to_json) is one span
            if any(s.name == name for s in self.stack):
                return fn(*args, **kwargs)
            parent = self.stack[-1].id if self.stack else None
            span = Span(len(self.spans), name, parent, self.job, time.perf_counter())
            self.spans.append(span)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.exc = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if sizer is not None:
                span.info.update(sizer(args, kwargs, result))
            return result

        return wrapper

    def _counter(self, name, fn, rows):
        key = name + (".points" if rows else ".calls")

        if rows:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = self.stack[-1]
                for chunk in fn(*args, **kwargs):
                    span.info[key] += len(chunk)
                    yield chunk

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.stack[-1].info[key] += 1
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Replace the traced attributes for the duration of the block."""
        saved = []
        try:
            for name, mod, attr, sizer in SPANS:
                module = importlib.import_module(mod)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._span(name, saved[-1][2], sizer))
            for name, mod, attr, rows in COUNTERS:
                module = importlib.import_module(mod)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._counter(name, saved[-1][2], rows))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json(self.t0)) + "\n")


# (layer, "s" for its total time or "self_s" for its self time), per job
PER_JOB_TIMES = [
    ("distmatrix.distance_matrix", "s"),
    ("gadgets.solve_weights", "self_s"),
    ("gadgets.find_isolating_parallelepiped", "self_s"),
    ("gadgets.verify_parallelepiped", "s"),
    ("gadgets.verify_on_off", "s"),
    ("distmatrix.eigen_report", "s"),
    ("gadgets.find_shift", "s"),
    ("oracle.cvp_enumerate", "s"),
    ("oracle.validate_reduction", "self_s"),
    ("oracle.max_sat_brute", "s"),
    ("serialize.dumps", "s"),
    ("serialize.to_json", "s"),
    ("serialize.from_json", "s"),
    ("cli.dispatch", "self_s"),
    ("reductions.cvpp_query", "s"),
    ("reductions.sat_to_cvp", "s"),
    ("formulas.parse_dimacs", "s"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], jobs: int, setups: int) -> dict[str, float]:
    """Per-layer figures from the spans.  Times and counts are per attempted
    job (spans whose job id is an int); reductions.cvpp_preprocess.s is per
    set-up; ratios are ratios of totals."""
    names = {s.id: s.name for s in spans}
    child_time = defaultdict(float)
    child_points = Counter()
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
            child_points[s.parent] += s.info["numeric.integer_grid.points"]
    total, selft, calls, info = defaultdict(float), defaultdict(float), Counter(), defaultdict(Counter)
    counts = Counter()
    setup_total = defaultdict(float)
    accepted = shift_probes = row_products = 0
    grid = {False: [0, 0], True: [0, 0]}  # wide box -> [points walked, box points]
    for s in spans:
        dur = s.end - s.start
        if not isinstance(s.job, int):
            setup_total[s.name] += dur
            continue
        total[s.name] += dur
        selft[s.name] += dur - child_time[s.id]
        calls[s.name] += 1
        info[s.name].update(s.info)
        counts.update(s.info)
        if s.name == "gadgets.find_shift" and s.exc is None:
            accepted += 1
        elif s.name == "distmatrix.eigen_report" and names.get(s.parent) == "gadgets.find_shift":
            shift_probes += 1
        elif s.name == "oracle.validate_reduction" and s.exc is None:
            # integer_grid rows land on the innermost span: cvp_enumerate,
            # or validate_reduction itself for its exclusion walk
            walked = s.info["numeric.integer_grid.points"] + child_points[s.id]
            acc = grid[bool(s.info["wide"])]
            acc[0] += walked
            acc[1] += s.info["box_points"]
            row_products += walked * s.info["d"]

    out = {f"{layer}.{kind}": (selft if kind == "self_s" else total)[layer] / jobs for layer, kind in PER_JOB_TIMES}
    out.update(
        {
            "distmatrix.distance_matrix.bytes": info["distmatrix.distance_matrix"]["bytes"] / jobs,
            "gadgets.verify_parallelepiped.vertices": info["gadgets.verify_parallelepiped"]["vertices"] / jobs,
            "numeric.pnorm.calls": counts["numeric.pnorm.calls"] / jobs,
            "distmatrix.eigen_report.calls": calls["distmatrix.eigen_report"] / jobs,
            "gadgets.shift_accept_ratio": _ratio(accepted, shift_probes),
            "numeric.integer_grid.points": counts["numeric.integer_grid.points"] / jobs,
            "oracle.points_per_box_point": _ratio(grid[False][0] + grid[True][0], grid[False][1] + grid[True][1]),
            "oracle.points_per_box_point.binary_box": _ratio(*grid[False]),
            "oracle.points_per_box_point.wide_box": _ratio(*grid[True]),
            "oracle.row_products": row_products / jobs,
            "serialize.dumps.bytes": info["serialize.dumps"]["bytes"] / jobs,
            "cli.dispatch.calls": calls["cli.dispatch"] / jobs,
            "reductions.cvpp_preprocess.s": _ratio(setup_total["reductions.cvpp_preprocess"], setups),
        }
    )
    return out
