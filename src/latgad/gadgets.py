"""Construction, transformation and verification of vertex-isolating gadgets.

A gadget is a matrix V (d x k) and target t such that the distances from t to
the parallelepiped vertices V x, x in {0, 1}^k, realize a prescribed two-level
pattern:

* kind "isolating-parallelepiped": every nonzero vertex at distance 1, the
  origin strictly farther (at 1 + eps);
* kind "two-level": vertices satisfying a k-ary boolean constraint at 1, the
  rest at 1 + eps;
* kind "isolating-lattice": a two-level gadget whose pattern extends to all
  of Z^k (every non-boolean point at distance >= 1 + eps).

On-off gadgets carry a second target equidistant from all 2^k vertices, used
to disable absent clauses in preprocessing-based reductions.

The isolating and parity builders weight a +-1 cube by Hamming class, and
one assembly turns the k + 1 class weights into V and t.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import distmatrix
from .errors import (
    DegenerateConstructionError,
    InvalidInputError,
    NumericDegeneracyError,
    ResourceLimitError,
    UnsupportedParametersError,
    VerificationError,
)
from .numeric import (
    DEFAULT_TOL,
    Tolerance,
    chunk_rows,
    column_rank,
    finite_float,
    finite_pvalue,
    float_range_error,
    integer_grid,
    pnorm,
    pnorm_pow,
    row_pnorms,
    sin_half_pi,
)

KIND_ISOLATING = "isolating-parallelepiped"
KIND_TWO_LEVEL = "two-level"
KIND_LATTICE = "isolating-lattice"

SHIFT_SEARCH_DEPTH = 64
SHIFT_GRID_DEPTH = 4

# the full vertex walk costs 2^k d k multiply-adds, 4^14 * 14 (about 2 s) for a
# 2^14-row gadget; above this arity only a certified gadget is checked
MAX_WALK_K = 14

# which vertex check a report comes from: one vertex per Hamming class, or all
CHECK_CLASSES = "hamming-classes"
CHECK_VERTICES = "all-vertices"


# ---------------------------------------------------------------------------
# constraint descriptors (JSON-serializable dicts)


def parity_constraint(bit: int) -> dict:
    if bit not in (0, 1):
        raise InvalidInputError("parity bit must be 0 or 1")
    return {"type": "parity", "bit": int(bit)}


def clause_constraint(negated=()) -> dict:
    """Disjunction of the k gadget inputs, with the listed 1-based positions
    negated (empty: plain OR, falsified only by the all-zeros input)."""
    return {"type": "clause", "negated": sorted(int(s) for s in negated)}


def _check_constraint(c, k: int) -> None:
    """Refuse a descriptor that is not a parity bit or a clause over 1..k."""
    if not isinstance(c, dict):
        raise InvalidInputError(f"constraint descriptor must be an object, got {c!r}")
    if c.get("type") == "parity":
        if type(c.get("bit")) is not int or c["bit"] not in (0, 1):
            raise InvalidInputError(f"parity bit must be 0 or 1, got {c.get('bit')!r}")
    elif c.get("type") == "clause":
        negated = c.get("negated", [])
        if not (
            isinstance(negated, list)
            and all(type(s) is int and 1 <= s <= k for s in negated)
            and len(set(negated)) == len(negated)
        ):
            raise InvalidInputError(
                f"clause negated positions must be distinct integers in 1..{k}, got {negated!r}"
            )
    else:
        raise InvalidInputError(f"unknown constraint descriptor {c!r}")


# ---------------------------------------------------------------------------
# gadget containers


@dataclass(eq=False)
class IsolatingGadget:
    p: float
    k: int
    V: np.ndarray  # d x k
    t: np.ndarray  # length d
    eps: float
    kind: str = KIND_ISOLATING
    constraint: dict | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.V = np.asarray(self.V, dtype=float)
        self.t = np.asarray(self.t, dtype=float).ravel()
        if self.V.ndim != 2 or self.V.shape[1] != self.k or self.V.shape[0] != self.t.size:
            raise InvalidInputError("gadget shape mismatch between V, t and k")
        if self.kind not in (KIND_ISOLATING, KIND_TWO_LEVEL, KIND_LATTICE):
            raise InvalidInputError(f"unknown gadget kind {self.kind!r}")
        if self.kind != KIND_ISOLATING and self.constraint is None:
            raise InvalidInputError(f"kind {self.kind!r} requires a constraint descriptor")
        if self.constraint is not None:
            _check_constraint(self.constraint, self.k)

    @property
    def d(self) -> int:
        return self.t.size


@dataclass(eq=False)
class OnOffGadget:
    p: float
    k: int
    V: np.ndarray
    t_on: np.ndarray
    t_off: np.ndarray
    eps: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.V = np.asarray(self.V, dtype=float)
        self.t_on = np.asarray(self.t_on, dtype=float).ravel()
        self.t_off = np.asarray(self.t_off, dtype=float).ravel()
        if self.V.shape != (self.t_on.size, self.k) or self.t_off.size != self.t_on.size:
            raise InvalidInputError(
                f"on-off gadget shape mismatch: V is {self.V.shape[0]}x{self.V.shape[1]} for k={self.k}, "
                f"t_on has {self.t_on.size} rows, t_off {self.t_off.size}"
            )

    @property
    def d(self) -> int:
        return self.t_on.size


@dataclass
class Condition:
    name: str
    passed: bool
    residual: float
    witness: tuple | None = None


@dataclass
class VerificationReport:
    conditions: list[Condition]
    tol: Tolerance
    check: str | None = None  # CHECK_CLASSES or CHECK_VERTICES for a vertex check

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def failures(self) -> list[Condition]:
        return [c for c in self.conditions if not c.passed]

    def to_json(self) -> dict:
        out = {
            "passed": self.passed,
            "tol": {"rel": self.tol.rel, "abs": self.tol.abs},
            "conditions": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "residual": c.residual,
                    "witness": list(c.witness) if c.witness is not None else None,
                }
                for c in self.conditions
            ],
        }
        if self.check is not None:
            out["check"] = self.check
        return out


# ---------------------------------------------------------------------------
# shift search and weight solve


def _walk_offsets(k: int, q: float) -> np.ndarray:
    """The offsets j of the first-fit walk's shifts j + 2^-i, largest first.
    For p not an integer, or p >= k, only j = k, matching the halting
    guarantee for shifts above k; for odd integers p < k every eigenvalue of
    a full-parity-heavy character vanishes identically above k, so j = k-1
    down to 0."""
    return np.arange(k - 1, -1, -1) if float(q).is_integer() and q < k else np.array([k])


def _walk(k: int, q: float) -> np.ndarray:
    """The first-fit walk's candidates j + 2^-i in its order: i = 1, 2, ...
    up to SHIFT_SEARCH_DEPTH and, for each i, the offsets j in turn."""
    steps = np.ldexp(1.0, -np.arange(1, SHIFT_SEARCH_DEPTH + 1))
    return (_walk_offsets(k, q) + steps[:, None]).ravel()


def _grid(k: int) -> np.ndarray:
    """G_k = {j + 2^-i : 0 <= j <= k, 1 <= i <= SHIFT_GRID_DEPTH}, row i - 1
    holding j = 0..k."""
    steps = np.ldexp(1.0, -np.arange(1, SHIFT_GRID_DEPTH + 1))
    return (np.arange(k + 1.0) + steps[:, None]).ravel()


def _shift_ranking(k: int, q: float) -> list[float]:
    """The nonsingular shifts of G_k (`_grid`), and the walk's first
    nonsingular one (`_walk`), ranked by the gap eps their weight solve
    gives, larger first, ties to the smaller shift.  A shift whose eps is
    not finite drops out.

    One `distmatrix.ShiftBatch` screens G_k and the walk's steps past G_k
    (60 shifts for a one-offset walk, 60 k for a k-offset one), and solves
    the nonsingular ones that are ranked."""
    grid, offsets = _grid(k), _walk_offsets(k, q)
    tail = _walk(k, q)[SHIFT_GRID_DEPTH * offsets.size :]
    batch = distmatrix.ShiftBatch(k, q, np.concatenate([grid, tail]))
    ok = batch.nonsingular
    # the walk's steps as indices into the batch, in the walk's order: its
    # first SHIFT_GRID_DEPTH steps are G_k's columns `offsets`, row by row
    walk = np.concatenate([(np.arange(SHIFT_GRID_DEPTH)[:, None] * (k + 1) + offsets).ravel(),
                           grid.size + np.arange(tail.size)])
    pick = walk[ok[walk]][:1]
    # np.union1d would do, but it imports numpy.ma (1.7 MB of peak RSS)
    picks = np.append(np.flatnonzero(ok[: grid.size]), pick[pick >= grid.size])
    shifts, eps = batch.shifts[picks], batch.gaps(picks)
    keep = np.isfinite(eps)
    if not keep.any():
        if not batch.finite[: grid.size].any():
            raise float_range_error(f"the spectrum of every candidate shift at k={k}, p={q}")
        raise NumericDegeneracyError(
            f"no nonsingular shift with a finite gap found for k={k}, p={q} "
            f"on the grid or within depth {SHIFT_SEARCH_DEPTH}"
        )
    shifts, eps = shifts[keep], eps[keep]
    return shifts[np.lexsort((shifts, -eps))].tolist()


def find_shift(k: int, p) -> float:
    """The shift whose distance-power matrix gives the largest gap eps:
    the first of `_shift_ranking`, over the grid G_k of shifts j + 2^-i
    (0 <= j <= k, 1 <= i <= SHIFT_GRID_DEPTH) and the shift the first-fit
    walk returns (`_walk`), so its eps is never below the walk's.  Even
    integers p < k are refused: no isolating gadget exists there at all.
    NumericDegeneracyError when no candidate is nonsingular (relative
    eigenvalue threshold) with a finite gap.

    The ranking is a float one (`distmatrix.ShiftBatch`); the gadget built
    at the chosen shift comes from `solve_weights` alone.
    """
    q = finite_pvalue(p)
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise InvalidInputError(f"k must be a positive integer, got {k!r}")
    if float(q).is_integer() and int(q) % 2 == 0 and q < k:
        raise UnsupportedParametersError(
            f"no isolating gadget exists for even integer p={q} with p < k={k}"
        )
    return _shift_ranking(distmatrix.check_k(k), q)[0]


def solve_weights(k: int, p, shift: float) -> tuple[np.ndarray, float]:
    """The k + 1 class weights w_j (class j: the vertices with j coordinates
    +1) and eps > 0 with H w = 1 + eps e_0, where H is the distance-power
    matrix at the given shift, w is read at each vertex from its class, and
    e_0 bumps the all-minus-ones vertex (index 0), the one the gadget
    isolates.

    w = (1/lambda) 1 + eps * a with a = H^-1 e_0, eps = 1 / (lambda |min a|)
    when a has a negative entry (the minimum entry of w is then zero), and
    eps = 1 / (lambda * max |a|) otherwise or when the former overflows.

    No 2^k x 2^k matrix is built.  H commutes with the coordinate
    permutations, which fix e_0, so a is constant on the Hamming classes
    (class j: the vertices with j coordinates +1) and solves the
    (k+1) x (k+1) class system
        sum_j Q[J, j] a_j = [J = 0],
        Q[J, j] = sum_m C(J, m) C(k-J, j-m) |k - 2(J + j - 2m) - shift|^p,
    which counts, for one vertex of class J, the vertices of class j sharing
    m of its +1 coordinates.  Each power P_r = |k - 2r - shift|^p is computed
    once, and the spectrum E P and Q = T P come from the same P
    (`distmatrix.class_tables`).  Q's spectral solution is the Krawtchouk sum
    a_j = 2^-k sum_s K_s(j) / lambda_s, but that sum cancels when p >> k (at
    k = 2, p = 50 not one digit of a_0 survives), so the class system is
    solved by elimination.  The weights are exactly equal within a class, and
    the class at the negative minimum is exactly zero, so every weight is
    non-negative.

    This is the one deterministic path from a shift to the weights that a
    gadget's bytes come from; `distmatrix.ShiftBatch.gaps` gives the same
    eps for a whole batch of shifts, in floats, only to rank them
    (`find_shift`).
    """
    k = distmatrix.check_k(k)
    powers = distmatrix.class_powers(k, finite_pvalue(p), shift)
    T, E = distmatrix.class_tables(k)
    report = distmatrix.EigenReport(tuple(distmatrix.class_sums(E, powers)))
    if not report.nonsingular:
        raise InvalidInputError(
            f"distance matrix is singular at shift {shift!r} (min ratio {report.min_ratio:.3g})"
        )
    Q = np.array(distmatrix.class_sums(T.reshape(-1, k + 1), powers)).reshape(k + 1, k + 1)
    # solve at the scale of Q's largest entry: near the float range a's
    # entries, about 1/lambda, are subnormal and lose digits.  Scaling by a
    # power of two is exact, so this moves nothing else.
    e = math.frexp(float(np.abs(Q).max()))[1]
    a = np.linalg.solve(np.ldexp(Q, -e), np.eye(k + 1)[0])
    lam = math.ldexp(report.lambda_all, -e)
    lo = float(a.min())
    top = float(np.abs(a).max())  # H is nonsingular, so H^-1 e_0 is not zero
    # at shift 1.5 the largest gap 1 / (lambda |lo|) overflows at k = 1,
    # p = 448, and eps * a does at k = 1, p = 441 (so would the far level the
    # verification computes): there the smaller gap keeps every weight
    # non-negative
    wide = 1.0 / (lam * -lo) if lo < 0.0 and lam * -lo * sys.float_info.max >= 1.0 else math.inf
    if math.isfinite(wide * top):
        eps = wide
    else:
        lo, eps = 0.0, 1.0 / (lam * top)
    by_class = np.ldexp(1.0 / lam + eps * a, -e)
    floor = float(by_class.min())
    if floor < -1e-12 * max(1.0, float(np.abs(by_class).max())):
        raise NumericDegeneracyError(f"weight solve produced negative entry {floor:.3g}")
    if lo < 0.0:
        by_class[int(a.argmin())] = 0.0
    # a class that ties the minimum up to rounding can sit a hair below zero
    np.clip(by_class, 0.0, None, out=by_class)
    return by_class, eps


def _class_vertices(k: int) -> np.ndarray:
    """Row j: 0..0 1..1 with j ones, the first class-j vertex of integer_grid."""
    return (np.arange(k) >= np.arange(k, -1, -1)[:, None]).astype(np.int64)


@functools.lru_cache(maxsize=distmatrix.MAX_K)
def _cube(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2^k vertices of {0, 1}^k in integer_grid order, as the signs
    2x - 1 (int8 rows) and the popcount of each (its Hamming class).  Listed
    once per k; read-only, shared by every builder."""
    (x,) = integer_grid([(0, 1)] * k, 2**k)
    out = (2 * x - 1).astype(np.int8), x.sum(axis=1)
    for a in out:
        a.flags.writeable = False
    return out


def _class_parallelepiped(by_class: np.ndarray, shift: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """V, t over {0, 1}^k of the +-1 parallelepiped with row u = w^(1/p) u^T
    and target w^(1/p) shift, w read from the class weights by_class (class
    j: j coordinates +1): for y = 2z - 1, ||V z - t||_p^p is the y-entry of
    H w.  Row u becomes 2 w^(1/p) u^T and its target w^(1/p) (sum_i u_i +
    shift), one product s_j (2j - k + shift) per class (the factor is exact
    for every shift of find_shift's grid; adding +0 turns a zero-weight
    class's -0 into 0), so every row of a class has a bit-identical target,
    as the certificate (`_symmetric`) needs.  Rows are in integer_grid
    order, and gather the k + 1 class rows by popcount from the cached cube
    (`_cube`).  Zero-weight rows are kept so d = 2^k is stable."""
    k = by_class.size - 1
    s = by_class ** (1.0 / q)
    t = s * ((2.0 * np.arange(k + 1) - k) + float(shift)) + 0.0
    signs, c = _cube(k)
    return (2.0 * s)[c][:, None] * signs, t[c]


def _ranked_shifts(k: int, q: float):
    """find_shift's shift, then the rest of its ranking (computed again,
    only if the first does not build)."""
    yield find_shift(k, q)
    yield from _shift_ranking(k, q)[1:]


def find_isolating_parallelepiped(k: int, p) -> IsolatingGadget:
    """An isolating parallelepiped for arity k in the p norm.

    Exists iff p is not an even integer below k (or p >= k).  Builds the
    shifts of find_shift's ranking in turn (`_isolating_at`) and returns the
    first gadget that verifies; NumericDegeneracyError when none does.
    """
    q = finite_pvalue(p)
    failure = None
    for shift in _ranked_shifts(k, q):  # refuses even integers p < k
        try:
            return _isolating_at(k, q, shift)
        except (NumericDegeneracyError, VerificationError) as exc:
            failure = exc
    raise NumericDegeneracyError(f"no ranked shift builds a verified gadget for k={k}, p={q}: {failure}")


def _isolating_at(k: int, q: float, shift: float) -> IsolatingGadget:
    """The isolating parallelepiped at one shift: solve for the class
    weights with the all-minus vertex bumped, assemble the parallelepiped
    over {0, 1}^k, normalize so the 2^k - 1 close vertices sit at distance
    exactly 1, and verify it (VerificationError when it fails)."""
    by_class, solve_eps = solve_weights(k, q, shift)
    Vb, tb = _class_parallelepiped(by_class, shift, q)
    ref = np.ones(k)  # any vertex off the isolated one; all-ones is z = 1^k
    scale = pnorm(Vb @ ref - tb, q)
    if scale <= 0.0:
        raise NumericDegeneracyError("degenerate construction: reference vertex at distance 0")
    Vb /= scale
    tb /= scale
    gadget = IsolatingGadget(
        p=q,
        k=int(k),
        V=Vb,
        t=tb,
        eps=pnorm(tb, q) - 1.0,
        kind=KIND_ISOLATING,
        meta={"shift": shift, "solve_eps": solve_eps},
    )
    report = verify_parallelepiped(gadget)
    if not report.passed:
        raise VerificationError(f"constructed gadget failed verification: {report.failures()}")
    return gadget


# ---------------------------------------------------------------------------
# parity gadgets


def parity_eps_lower_bound(k: int, p) -> float:
    """Guaranteed separation gap of the parity gadget:
    |sin(pi p/2)| / p^2 * (2p / (e^2 pi^2 k))^((p+1)/2)."""
    q = finite_pvalue(p)
    return abs(sin_half_pi(q)) / q**2 * (2 * q / (math.e**2 * math.pi**2 * k)) ** ((q + 1) / 2)


def parity_gadget(k: int, p, bit: int) -> IsolatingGadget:
    """Two-level gadget whose close vertices are exactly the {0, 1}^k points
    of Hamming-weight parity `bit`.

    Built from vertex weights 1 + (-1)^(eta + b') prod u_i with
    eta = floor(k/2) + floor(p/2) and shift 1 for odd k, 0 for even k; b' is
    the requested bit adjusted by k mod 2 so that the {0, 1} re-expression
    lands the requested parity class on the close level.  The level
    assignment is then checked on every vertex (`verify_parallelepiped`).
    """
    q = finite_pvalue(p)
    if bit not in (0, 1):
        raise InvalidInputError("parity bit must be 0 or 1")
    if not (isinstance(k, (int, np.integer)) and k >= 3):
        raise InvalidInputError(f"parity gadget needs k >= 3, got {k!r}")
    distmatrix.check_k(k)  # the gadget has 2^k rows of k entries
    if not 1 <= q < k:
        raise InvalidInputError(f"parity gadget needs 1 <= p < k, got p={q}, k={k}")
    if float(q).is_integer() and int(q) % 2 == 0:
        raise DegenerateConstructionError(
            f"even integer p={q} < k makes the parity eigenvalue vanish (zero gap)"
        )

    shift = (1 + (-1) ** (k + 1)) / 2  # 1 for odd k, 0 for even k
    by_size = distmatrix.eigen_report(k, q, shift).by_size
    lam, lam_par = by_size[0], by_size[k]
    if lam_par == 0.0:
        raise DegenerateConstructionError(f"parity eigenvalue vanished for k={k}, p={q}")
    low, high = lam - abs(lam_par), lam + abs(lam_par)
    if low <= 0.0:
        raise NumericDegeneracyError("parity construction lost positivity of the close level")

    eta = k // 2 + math.floor(q / 2)
    formula_bit = (bit + k) % 2
    sign = (-1) ** (eta + formula_bit)
    # the full-parity character prod u_i is (-1)^(k - j) on class j
    by_class = 1.0 + sign * (-1.0) ** (k - np.arange(k + 1))
    Vb, tb = _class_parallelepiped(by_class, shift, q)
    scale = low ** (1.0 / q)
    Vb /= scale
    tb /= scale
    eps = (high / low) ** (1.0 / q) - 1.0
    gadget = IsolatingGadget(
        p=q,
        k=int(k),
        V=Vb,
        t=tb,
        eps=eps,
        kind=KIND_TWO_LEVEL,
        constraint=parity_constraint(bit),
        meta={
            "shift": shift,
            "lambda": lam,
            "lambda_par": lam_par,
            "levels": (low, high),
        },
    )
    report = verify_parallelepiped(gadget)
    if not report.passed:
        raise VerificationError(f"parity gadget failed its level check: {report.failures()}")
    return gadget


# ---------------------------------------------------------------------------
# gadget transformations


def to_isolating_lattice(gadget: IsolatingGadget) -> IsolatingGadget:
    """Extend a two-level gadget so the separation holds over all of Z^k.

    Appends scaled identity rows 2 mu^(1/p) I_k to V and mu^(1/p) 1 to t with
    mu = (1 + eps)^p / (3^p - 1), then rescales by (1 + k mu)^(-1/p).  The new
    gap is eps' = (((1+eps)^p + k mu) / (1 + k mu))^(1/p) - 1 >= eps/(1+k mu).
    The constraint is the gadget's own, or the plain clause when it has none.
    3^p leaves the float range above p = 646 (NumericDegeneracyError).
    """
    if gadget.eps <= 0.0:
        raise InvalidInputError("lattice extension needs a strictly positive gap")
    q = gadget.p
    k = gadget.k
    mu = finite_float(
        lambda: (1.0 + gadget.eps) ** q / (3.0**q - 1.0), f"3^p or (1 + eps)^p of the lattice extension at p={q}"
    )
    denom = (1.0 + k * mu) ** (1.0 / q)
    V = np.vstack([gadget.V, 2.0 * mu ** (1.0 / q) * np.eye(k)]) / denom
    t = np.concatenate([gadget.t, mu ** (1.0 / q) * np.ones(k)]) / denom
    eps = (((1.0 + gadget.eps) ** q + k * mu) / (1.0 + k * mu)) ** (1.0 / q) - 1.0
    return IsolatingGadget(
        p=q,
        k=k,
        V=V,
        t=t,
        eps=eps,
        kind=KIND_LATTICE,
        constraint=gadget.constraint if gadget.constraint is not None else clause_constraint(),
        meta={"mu": mu, "parent_eps": gadget.eps, **gadget.meta},
    )


def to_on_off(gadget: IsolatingGadget) -> OnOffGadget:
    """Drop the last column of a (k+1)-ary isolating parallelepiped to get an
    arity-k on-off gadget: t_on = t and t_off = t - v_{k+1}."""
    if gadget.kind != KIND_ISOLATING:
        raise InvalidInputError("on-off conversion needs an isolating parallelepiped")
    if gadget.k < 2:
        raise InvalidInputError("on-off conversion needs arity k >= 2")
    k = gadget.k - 1
    out = OnOffGadget(
        p=gadget.p,
        k=k,
        V=gadget.V[:, :k].copy(),
        t_on=gadget.t.copy(),
        t_off=gadget.t - gadget.V[:, k],
        eps=gadget.eps,
        meta=dict(gadget.meta),
    )
    report = verify_on_off(out)
    if not report.passed:
        raise VerificationError(f"on-off conversion failed verification: {report.failures()}")
    return out


# ---------------------------------------------------------------------------
# verification


def _row_multiset(M: np.ndarray) -> np.ndarray:
    """The rows of M as byte strings in sorted order (-0 counted as 0): two
    matrices hold the same rows, with multiplicity, iff these are equal."""
    M = np.ascontiguousarray(M + 0.0)
    return np.sort(M.view(np.dtype((np.void, M.shape[1] * M.itemsize))).ravel())


# two generators per arity, each for a few row counts 2^k r
@functools.lru_cache(maxsize=4 * distmatrix.MAX_K)
def _row_map(perm: tuple[int, ...], d: int) -> np.ndarray:
    """Row i of a d = 2^k r row gadget in integer_grid order stands for the
    vertex x whose bits are the top k bits of i; the row of x[perm], with
    the same low bits.  Read-only: one array is shared by every caller."""
    k = len(perm)
    shifts = np.arange(k - 1, -1, -1)
    bits = (np.arange(2**k)[:, None] >> shifts) & 1
    top = (bits[:, list(perm)] << shifts).sum(axis=1)
    r = d >> k
    rows = (top[:, None] * r + np.arange(r)).ravel()
    rows.flags.writeable = False
    return rows


def _symmetric(V: np.ndarray, targets: list[np.ndarray]) -> bool:
    """Certificate that every permutation of V's columns only permutes the
    rows of [V | targets].  Each target's distance to V x then depends on
    the popcount of x alone.  A transposition and a k-cycle generate all
    permutations, so two comparisons decide it.

    Each comparison first tries the row bijection the permutation induces
    on integer_grid order (`_row_map`), which is how the builders lay out
    their 2^k r rows: equal rows under a bijection prove equal row
    multisets in one array pass, made on the float64 bits of V and of each
    target apart.  When that guess fails it sorts the rows of [V | targets]
    (`_row_multiset`), so a gadget whose rows come in another order, or
    that has extra rows (the lattice kind), is still certified exactly
    when its row multisets agree."""
    d, k = V.shape
    perms = ((1, 0, *range(2, k)), (*range(1, k), 0)) if k > 1 else ()
    if d % 2**k == 0:
        v_bits, *t_bits = [(a + 0.0).view(np.uint64) for a in (V, *targets)]
        for perm in perms:
            rows = _row_map(perm, d)
            if not (np.array_equal(v_bits[:, list(perm)], v_bits[rows])
                    and all(np.array_equal(b, b[rows]) for b in t_bits)):
                break
        else:
            return True
    M = np.column_stack([V, *targets]) + 0.0
    tail = list(range(k, M.shape[1]))
    rows = _row_multiset(M)
    return all(np.array_equal(_row_multiset(M[:, [*perm, *tail]]), rows) for perm in perms)


def _vertex_distances(V: np.ndarray, p, targets: list[np.ndarray], by_popcount: bool):
    """The vertices to check, in integer_grid order, each target's distances
    to them, and the name of the check.

    When the level masks depend on popcount alone (`by_popcount`) and
    `_symmetric` certifies the gadget, the first vertex of each Hamming class,
    0..0 1..1, stands for its class: k + 1 vertices.  Otherwise every vertex
    of {0, 1}^k is walked in chunks of the shared entry budget, up to arity
    MAX_WALK_K."""
    k = V.shape[1]
    if by_popcount and _symmetric(V, targets):
        x = _class_vertices(k)
        xv = x @ V.T
        return x, [row_pnorms(xv - t, p) for t in targets], CHECK_CLASSES
    if k > MAX_WALK_K:
        raise ResourceLimitError(
            f"walking all 2^{k} vertices exceeds the cap k={MAX_WALK_K}; the class check needs "
            "a gadget symmetric under coordinate permutations and a level split by popcount"
        )
    chunks = list(integer_grid([(0, 1)] * k, chunk_rows(V.shape[0])))
    parts = [[] for _ in targets]
    for x in chunks:
        xv = x @ V.T
        for part, t in zip(parts, targets):
            part.append(row_pnorms(xv - t, p))
    return np.vstack(chunks), [np.concatenate(part) for part in parts], CHECK_VERTICES


def _by_popcount(gadget: IsolatingGadget) -> bool:
    """Whether the close level is a union of Hamming classes."""
    c = gadget.constraint
    return gadget.kind == KIND_ISOLATING or c["type"] == "parity" or not c.get("negated")


def _close_mask(gadget: IsolatingGadget, x: np.ndarray) -> np.ndarray:
    """Which vertices (rows of x) belong to the close (distance-1) level."""
    if gadget.kind == KIND_ISOLATING:
        return x.any(axis=1)
    c = gadget.constraint
    if c["type"] == "parity":
        return x.sum(axis=1) % 2 == c["bit"]
    # only the vertex with x_s = 1 exactly at the negated positions falsifies the clause
    falsifier = np.isin(np.arange(1, gadget.k + 1), c.get("negated", []))
    return np.any(x != falsifier, axis=1)


def _level_condition(name: str, x, dist, mask, level: float, tol: Tolerance) -> Condition:
    """Largest |distance - level| over the masked vertices, witnessed by the
    first vertex that reaches it (residual 0 and no witness when none is masked)."""
    res = np.abs(dist[mask] - level)
    if res.size == 0:
        return Condition(name, True, 0.0)
    i = int(np.argmax(res))
    worst = float(res[i])
    return Condition(name, worst <= tol.allowance(level), worst, tuple(int(v) for v in x[mask][i]))


def _gap_condition(eps: float, tol: Tolerance) -> Condition:
    """eps above the noise floor and finite: at eps = inf the far level and
    its allowance are infinite, so any far vertex would pass."""
    return Condition("positive-gap", tol.rel < eps < math.inf, max(0.0, tol.rel - eps) if eps < math.inf else math.inf)


def verify_parallelepiped(gadget: IsolatingGadget, tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    """Check the two-level distance pattern over all 2^k boolean vertices,
    one per Hamming class when the gadget is certified symmetric.

    Conditions: close vertices at distance 1, far vertices at 1 + eps, gap
    above the noise floor, and (for the lattice kind only) full column rank.
    Failures are report entries, never exceptions; the report names the
    check that ran.  An uncertified gadget above arity MAX_WALK_K raises
    ResourceLimitError.
    """
    x, (dist,), check = _vertex_distances(gadget.V, gadget.p, [gadget.t], _by_popcount(gadget))
    close = _close_mask(gadget, x)
    conditions = [
        _level_condition("close-vertices-at-1", x, dist, close, 1.0, tol),
        _level_condition("far-vertices-at-1+eps", x, dist, ~close, 1.0 + gadget.eps, tol),
        _gap_condition(gadget.eps, tol),
    ]
    if gadget.kind == KIND_LATTICE:
        rank = column_rank(gadget.V)
        conditions.append(Condition("full-column-rank", rank == gadget.k, float(gadget.k - rank)))
    return VerificationReport(conditions, tol, check)


def verify_on_off(gadget: OnOffGadget, tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    """The on-off pattern, checked like `verify_parallelepiped`: t_on puts
    every nonzero vertex at 1 and the origin at 1 + eps, t_off every vertex
    at 1."""
    targets = [gadget.t_on, gadget.t_off]
    x, (d_on, d_off), check = _vertex_distances(gadget.V, gadget.p, targets, by_popcount=True)
    far = 1.0 + gadget.eps
    origin_res = abs(float(d_on[0]) - far)  # x[0] is the origin
    conditions = [
        _level_condition("on-target-nonzero-at-1", x, d_on, x.any(axis=1), 1.0, tol),
        Condition("on-target-origin-isolated", origin_res <= tol.allowance(far), origin_res),
        _level_condition("off-target-all-at-1", x, d_off, np.ones(len(x), dtype=bool), 1.0, tol),
        _gap_condition(gadget.eps, tol),
    ]
    return VerificationReport(conditions, tol, check)


# ---------------------------------------------------------------------------
# even-exponent obstruction


def even_p_obstruction(V, t, p: int, k: int):
    """Alternating inclusion-exclusion sum over vertex subsets:
    sum_S (-1)^|S| ||t - sum_{i in S} v_i||_p^p.

    Identically zero for even integer p < k (the obstruction killing
    isolating gadgets there); generically nonzero for odd p.  Computed
    exactly in arbitrary-precision integers when all inputs are integers.
    """
    if not (isinstance(p, (int, np.integer)) and p >= 1):
        raise InvalidInputError(f"obstruction sum takes an integer p >= 1, got {p!r}")
    if not k > p:
        raise InvalidInputError(f"obstruction needs k > p, got k={k}, p={p}")
    # object arrays keep Python ints as they are, so pnorm_pow gives an exact
    # int for every subset when all entries are integers
    Vm = np.array(V, dtype=object)
    tv = np.array(t, dtype=object).ravel()
    if Vm.ndim != 2 or Vm.shape != (tv.size, k) or tv.size == 0:
        raise InvalidInputError("V must be d x k with t of length d >= 1")
    terms = [
        (-1) ** size * pnorm_pow((tv - Vm[:, list(S)].sum(axis=1)).tolist(), p)
        for size in range(k + 1)
        for S in combinations(range(k), size)
    ]
    return sum(terms) if all(isinstance(x, int) for x in terms) else math.fsum(terms)
