"""Ground-truth brute-force solvers used to validate every reduction:
bounded-box closest-vector enumeration, exhaustive Max-SAT/parity evaluation,
and decision/witness comparison between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .formulas import CspFormula
from .gadgets import Condition, IsolatingGadget, VerificationReport
from .numeric import DEFAULT_TOL, Tolerance, box_volume, chunk_rows, integer_grid, row_pnorms
from .reductions import CvpInstance

BOX_CAP = 10**7
MAX_BRUTE_VARS = 24


def _ranges(box, n: int) -> list[tuple[int, int]]:
    if isinstance(box, tuple) and len(box) == 2 and all(isinstance(v, (int, np.integer)) for v in box):
        box = [box] * n
    ranges = [(int(lo), int(hi)) for lo, hi in box]
    if len(ranges) != n:
        raise InvalidInputError(f"box must give one range per coordinate ({n})")
    return ranges


@dataclass
class CvpSolution:
    """Exact minimum distance over the searched box and every coordinate
    vector attaining it (within the relative tie band), plus the minimum
    distance over the box points outside {0, 1}^n and the first point that
    attains it (inf and None when the box has no such point)."""

    distance: float
    closest: list[tuple[int, ...]]
    nonboolean_distance: float
    nonboolean_witness: tuple[int, ...] | None


def cvp_enumerate(basis, target, p, box, tol: Tolerance = DEFAULT_TOL) -> CvpSolution:
    """Exhaustive closest-vector search over an integer box, one visit per point.

    `box` is either one (lo, hi) pair applied to every coordinate or a
    per-coordinate list.  Vectors within relative `tol.rel` of the minimum are
    all reported, in ascending mixed-radix order.

    The walk splits the box once: the longest run of trailing coordinates
    whose box fits in one chunk gives a table of B_low x_low - t, built once,
    and each point of the leading coordinates adds its offset B_high x_high
    to the whole table.
    """
    B = np.asarray(basis, dtype=float)
    t = np.asarray(target, dtype=float).ravel()
    ranges = _ranges(box, B.shape[1])
    if box_volume(ranges) > BOX_CAP:
        raise ResourceLimitError(f"box volume exceeds cap {BOX_CAP}")
    budget = chunk_rows(t.size)
    s = len(ranges)
    while s and box_volume(ranges[s - 1 :]) <= budget:
        s -= 1
    (low,) = integer_grid(ranges[s:], budget)
    table = low @ B[:, s:].T - t
    low_out = np.any((low < 0) | (low > 1), axis=1)
    L = len(low)
    per_chunk = budget // L
    # one diff and one power buffer for the whole walk: fresh chunk-sized
    # temporaries come back as fresh pages from the allocator on every chunk
    diff = np.empty((per_chunk, L, t.size))
    work = np.empty((per_chunk * L, t.size))
    best = math.inf
    near: list[tuple[np.ndarray, np.ndarray]] = []
    nb_best, nb_witness = math.inf, None
    for high in integer_grid(ranges[:s], per_chunk):
        m = len(high) * L
        np.add((high @ B[:, :s].T)[:, None, :], table, out=diff[: len(high)])
        d = row_pnorms(diff[: len(high)].reshape(m, t.size), p, out=work[:m])
        best = min(best, float(d.min()))
        # the band only shrinks as best falls, so this keeps a superset of
        # the final tie set; the final band filters it below.  Flat index
        # i of the chunk is the point (high[i // L], low[i % L]).
        keep = np.flatnonzero(d <= tol.ceiling(best))
        near.append((np.hstack([high[keep // L], low[keep % L]]), d[keep]))
        outside = np.flatnonzero((np.any((high < 0) | (high > 1), axis=1)[:, None] | low_out).ravel())
        if outside.size:
            i = outside[np.argmin(d[outside])]
            if d[i] < nb_best:
                nb_best = float(d[i])
                nb_witness = tuple(int(v) for v in (*high[i // L], *low[i % L]))
    band = tol.ceiling(best)
    closest = [tuple(int(v) for v in row) for rows, d in near for row in rows[d <= band]]
    return CvpSolution(best, closest, nb_best, nb_witness)


def verify_lattice_condition(
    gadget: IsolatingGadget, box_radius: int = 3, tol: Tolerance = DEFAULT_TOL
) -> VerificationReport:
    """Enumerate x in [-R, R+1]^k outside {0, 1}^k and check every distance is
    at least 1 + eps - tol.  A finite box is the only desk-scale certificate;
    the residual risk of points beyond it is inherent to the check."""
    if box_radius < 1:
        raise InvalidInputError("box_radius must be at least 1")
    sol = cvp_enumerate(gadget.V, gadget.t, gadget.p, (-box_radius, box_radius + 1), tol)
    floor = 1.0 + gadget.eps
    worst = sol.nonboolean_distance
    condition = Condition(
        "non-boolean-points-far",
        worst >= floor - tol.allowance(floor),
        max(0.0, floor - worst),
        sol.nonboolean_witness,
    )
    return VerificationReport([condition], tol)


def max_sat_brute(formula: CspFormula) -> tuple[int, list[tuple[int, ...]]]:
    """Exhaustive optimum over all 2^n assignments: best satisfied weight and
    every assignment attaining it, in ascending lexicographic order
    (assignment index has y_1 as the most significant bit)."""
    n = formula.n
    if n > MAX_BRUTE_VARS:
        raise ResourceLimitError(f"brute force capped at {MAX_BRUTE_VARS} variables")
    total = 1 << n
    best = -1
    winners: list[int] = []
    chunk = min(total, 1 << 20)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        bits = [(idx >> (n - j)) & 1 for j in range(1, n + 1)]  # bits[j-1] = y_j
        score = np.zeros(idx.size, dtype=np.int64)
        for i, constraint in enumerate(formula.constraints):
            w = formula.weight_of(i)
            if w == 0:
                continue
            if hasattr(constraint, "literals"):
                sat = np.zeros(idx.size, dtype=bool)
                for lit in constraint.literals:
                    b = bits[abs(lit) - 1]
                    sat |= (b == 1) if lit > 0 else (b == 0)
            else:
                acc = np.zeros(idx.size, dtype=np.int64)
                for v in constraint.variables:
                    acc += bits[v - 1]
                sat = (acc % 2) == constraint.bit
            score += w * sat
        top = int(score.max()) if idx.size else -1
        if top > best:
            best = top
            winners = [int(a) for a in idx[score == top]]
        elif top == best:
            winners.extend(int(a) for a in idx[score == top])
    assignments = [tuple((a >> (n - j)) & 1 for j in range(1, n + 1)) for a in winners]
    return best, assignments


def validate_reduction(
    formula: CspFormula, inst: CvpInstance, box=None, tol: Tolerance = DEFAULT_TOL
) -> VerificationReport:
    """Cross-check an instance against brute force.

    Padded and finite-norm preprocessing modes: decision agreement (distance
    <= r iff optimum >= W), witness bijection between boolean closest vectors
    and optimal assignments, and, when the box extends beyond {0, 1}^n,
    exclusion of non-boolean points.  Gap mode: the promise separation (value
    >= c gives distance <= r, value < s gives distance > gamma r).  Max-norm
    preprocessing mode: decision agreement only (every falsifying assignment
    ties at the same distance there, so no witness structure survives).
    """
    n = inst.n
    if formula.n != n:
        raise InvalidInputError("formula and instance disagree on variable count")
    ranges = _ranges(box if box is not None else (0, 1), n)
    best, optimal = max_sat_brute(formula)
    sol = cvp_enumerate(inst.basis, inst.target, inst.p, ranges, tol)
    r = inst.radius
    mode = inst.meta.get("mode")
    conditions: list[Condition] = []
    dist_leq_r = sol.distance <= tol.ceiling(r)

    if mode == "cvpp-inf":
        W = inst.meta.get("threshold", formula.m)
        conditions.append(
            Condition("decision-agreement", dist_leq_r == (best >= W), abs(sol.distance - r))
        )
    elif mode in ("padded", "cvpp-lp"):
        W = inst.meta["threshold"]
        expect_yes = best >= W
        conditions.append(
            Condition("decision-agreement", dist_leq_r == expect_yes, abs(sol.distance - r))
        )
        boolean_closest = sorted(z for z in sol.closest if all(v in (0, 1) for v in z))
        conditions.append(
            Condition(
                "witness-bijection",
                boolean_closest == sorted(optimal),
                float(len(set(boolean_closest) ^ set(optimal))),
            )
        )
        if any(lo < 0 or hi > 1 for lo, hi in ranges):
            worst = sol.nonboolean_distance
            conditions.append(
                Condition(
                    "non-binary-exclusion",
                    worst > tol.ceiling(r),
                    max(0.0, r - worst),
                    sol.nonboolean_witness,
                )
            )
    elif mode == "gap":
        s, c, gamma = inst.meta["s"], inst.meta["c"], inst.meta["gamma"]
        val = best / formula.m
        if val >= c:
            conditions.append(
                Condition("gap-yes-within-radius", dist_leq_r, max(0.0, sol.distance - r))
            )
        elif val < s:
            conditions.append(
                Condition(
                    "gap-no-beyond-gamma-r",
                    sol.distance > gamma * r * (1.0 - tol.rel),
                    max(0.0, gamma * r - sol.distance),
                )
            )
        else:
            conditions.append(Condition("gap-promise-violated-no-claim", True, 0.0))
    else:
        raise InvalidInputError(f"instance has unknown mode {mode!r}")
    return VerificationReport(conditions, tol)
