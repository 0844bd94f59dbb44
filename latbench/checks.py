"""Independent output checks.

These read the artifacts the CLI wrote and recompute what they claim with
plain numpy, without importing latgad, so a defect in the code under test
cannot hide itself.  Each check returns a list of problems; empty means
the job's outputs are correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REL = 1e-9
CVPP_SAMPLES = 32


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _columns(cols) -> np.ndarray:
    """latgad stores matrices as lists of columns of decimal strings."""
    return np.array(cols, dtype=float).T


def _vector(v) -> np.ndarray:
    return np.array(v, dtype=float)


def boolean_points(n: int) -> np.ndarray:
    """All of {0, 1}^n as rows, all-zeros first."""
    return ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)


def _pow_dists(V, t, p, Z) -> np.ndarray:
    """||V z - t||_p^p for every row z of Z."""
    return np.sum(np.abs(Z @ V.T - t) ** p, axis=1)


def satisfied_counts(clauses, Z: np.ndarray) -> np.ndarray:
    """Number of clauses each boolean row of Z satisfies."""
    count = np.zeros(Z.shape[0], dtype=np.int64)
    for clause in clauses:
        sat = np.zeros(Z.shape[0], dtype=bool)
        for lit in clause:
            col = Z[:, abs(lit) - 1]
            sat |= (col == 1) if lit > 0 else (col == 0)
        count += sat
    return count


def _far(a, b) -> bool:
    """Whether any a differs from b by more than REL, relative to the larger
    magnitude (and to 1 near zero)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.any(np.abs(a - b) > REL * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)))


def _closed_form(clauses, Z, M: int, n: int, p: float, eps: float, alpha: float) -> np.ndarray:
    """||Bz - t||_p^p of a clause-block reduction at boolean z: a satisfied
    clause's block sits at 1, a falsified one at (1+eps)^p, each of the M - m
    absent blocks at 1, and the identity block adds n alpha^p."""
    return M + n * alpha**p + (len(clauses) - satisfied_counts(clauses, Z)) * ((1.0 + eps) ** p - 1.0)


def _report(text: str, problems: list[str]) -> dict:
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        problems.append("report on stdout is not JSON")
        return {}
    if report.get("passed") is not True:
        problems.append("report says passed: false")
    return {c["name"]: c for c in report.get("conditions", [])}


def check_gadget(g_doc: dict, o_doc: dict) -> list[str]:
    """Close vertices at 1 and the origin at 1 + eps from t; for the on-off
    gadget, the same from t_on and every vertex at 1 from t_off."""
    problems = []
    p = float(g_doc["p"])
    V, t, eps = _columns(g_doc["V"]), _vector(g_doc["t"]), float(g_doc["eps"])
    d = _pow_dists(V, t, p, boolean_points(V.shape[1])) ** (1.0 / p)
    if _far(d[1:], 1.0):
        problems.append(f"gadget: close vertex off 1 by {np.max(np.abs(d[1:] - 1.0)):.3g}")
    if _far(d[0], 1.0 + eps):
        problems.append(f"gadget: origin at {d[0]!r}, expected 1+eps={1.0 + eps!r}")
    V, eps = _columns(o_doc["V"]), float(o_doc["eps"])
    Z = boolean_points(V.shape[1])
    d_on = _pow_dists(V, _vector(o_doc["t_on"]), p, Z) ** (1.0 / p)
    d_off = _pow_dists(V, _vector(o_doc["t_off"]), p, Z) ** (1.0 / p)
    if _far(d_on[1:], 1.0):
        problems.append("on-off: nonzero vertex off 1 from t_on")
    if _far(d_on[0], 1.0 + eps):
        problems.append("on-off: origin not at 1+eps from t_on")
    if _far(d_off, 1.0):
        problems.append("on-off: vertex off 1 from t_off")
    return problems


def check_sat_instance(clauses, n: int, inst_doc: dict, report_text: str) -> list[str]:
    """Brute force over every boolean z: each distance against the closed
    form, the SAT decision, the closest set against the optimal assignments
    (the witness bijection), and the report's residuals."""
    problems = []
    conditions = _report(report_text, problems)
    p = float(inst_doc["p"])
    B, t, r = _columns(inst_doc["basis"]), _vector(inst_doc["target"]), float(inst_doc["radius"])
    eps, alpha = float(inst_doc["meta"]["eps"]), float(inst_doc["meta"]["alpha"])
    Z = boolean_points(n)
    pow_dist = _pow_dists(B, t, p, Z)
    m = len(clauses)
    if _far(pow_dist, _closed_form(clauses, Z, m, n, p, eps, alpha)):
        problems.append("distance: some boolean z off m + (m - sat(z))((1+eps)^p - 1) + n alpha^p")
    if _far(r**p, m + n * alpha**p):
        problems.append(f"radius: r^p={r**p!r}, expected m + n alpha^p")
    dist = pow_dist ** (1.0 / p)
    best = float(dist.min())
    sat = satisfied_counts(clauses, Z)
    satisfiable = bool(sat.max() == m)
    if (best <= r * (1.0 + REL)) != satisfiable:
        problems.append(f"decision: min distance {best!r} vs radius {r!r}, satisfiable={satisfiable}")
    closest = set(np.flatnonzero(dist <= best * (1.0 + REL)))
    optimal = set(np.flatnonzero(sat == sat.max()))
    if closest != optimal:
        problems.append(f"witness: {len(closest ^ optimal)} closest/optimal assignments differ")
    agreement = conditions.get("decision-agreement")
    if agreement is None or abs(agreement["residual"] - abs(best - r)) > REL * max(r, 1.0):
        problems.append("report: decision-agreement residual is not |min ||Bz-t|| - r|")
    bijection = conditions.get("witness-bijection")
    if bijection is None or bijection["residual"] != 0:
        problems.append("report: witness-bijection residual is not 0")
    return problems


def check_cvpp_query(clauses, n: int, k: int, q_doc: dict, rng: np.random.Generator) -> list[str]:
    """||Bz - t||_p^p = M + (m - sat(z))((1+eps)^p - 1) + n alpha^p at the
    optimal z and a seeded sample of boolean z, and r^p = M + n alpha^p."""
    problems = []
    p = float(q_doc["p"])
    eps = float(q_doc["meta"]["eps"])
    B, t, r = _columns(q_doc["basis"]), _vector(q_doc["target"]), float(q_doc["radius"])
    M = 2**k * math.comb(n, k)
    alpha = t[-1]
    if np.any(t[-n:] != alpha):
        problems.append("target: identity block is not constant alpha")
    base = M + n * alpha**p
    if _far(r**p, base):
        problems.append(f"radius: r^p={r**p!r}, expected M + n alpha^p={base!r}")
    Z_all = boolean_points(n)
    best = Z_all[int(np.argmax(satisfied_counts(clauses, Z_all)))]
    Z = np.vstack([best, rng.integers(0, 2, size=(CVPP_SAMPLES, n))]).astype(float)
    lhs = _pow_dists(B, t, p, Z)
    rhs = _closed_form(clauses, Z, M, n, p, eps, alpha)
    if _far(lhs, rhs):
        problems.append(f"distance: sampled z off the closed form by up to {np.max(np.abs(lhs - rhs)):.3g}")
    return problems


def check_job(workload: str, job, jobdir: Path, stdouts: list[str], seed: int) -> list[str]:
    """Run the workload's check on a job whose steps all exited 0."""
    if workload == "gadget-build":
        problems = check_gadget(_load(jobdir / "g.json"), _load(jobdir / "o.json"))
        _report(stdouts[1], problems)
        return problems
    if workload == "sat-validate":
        return check_sat_instance(job.clauses, job.params["n"], _load(jobdir / "inst.json"), stdouts[1])
    if workload == "cvpp-serve":
        rng = np.random.default_rng([seed, 4, job.index])
        return check_cvpp_query(job.clauses, job.params["n"], job.params["k"], _load(jobdir / "q.json"), rng)
    raise ValueError(f"no check for workload {workload!r}")
