"""Ground-truth solvers used to validate every reduction: exact bounded-box
closest-vector search, exhaustive Max-SAT/parity evaluation, and
decision/witness comparison between the two.

The closest-vector search gives what a walk over every box point would: the
minimum, its tie set in mixed-radix order, and the non-boolean minimum with
its first witness.  It is one branch and bound over the coordinates in order,
fixing several coordinates per step while a step's children fit STEP_BLOCK
rows.  Rows of B are grouped by support and tabulated over their support
boxes, which suits the row-sparse bases every reduction builds (one gadget
block per clause over its k variables, then one identity row per variable); a
row whose support box is wider than one chunk, as in the dense lattice-gadget
check, is summed directly once its last column is fixed.  The search's cut
starts from a hint when it has one: `validate_reduction` passes the first
optimal assignment of brute-force Max-SAT, and the hint and its neighbours
are evaluated in one pass before the walk.  A hint only bounds the minima
from above, so a wrong one, from a broken reduction, changes the time taken
and at most the rounding of a distance, never the points found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .formulas import CspFormula
from .gadgets import Condition, IsolatingGadget, VerificationReport
from .numeric import (
    CHUNK_ENTRIES,
    DEFAULT_TOL,
    Tolerance,
    abs_powers,
    box_volume,
    chunk_rows,
    float_range_error,
    integer_grid,
    pvalue,
)
from .reductions import CvpInstance

BOX_CAP = 10**7
MAX_BRUTE_VARS = 24
# the most children of one search step: a step fixes as many coordinates as
# keep its prefixes' children within this many rows
STEP_BLOCK = 64


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


def cvp_enumerate(basis, target, p, box, tol: Tolerance = DEFAULT_TOL, hint=None) -> CvpSolution:
    """Exact closest-vector search over an integer box.

    `box` is either one (lo, hi) pair applied to every coordinate or a
    per-coordinate list.  Vectors within relative `tol.rel` of the minimum are
    all reported, in ascending mixed-radix order.

    The search is a branch and bound over the coordinates in order
    (`_support_search`) on the tables of `_support_tables`, fixing several
    coordinates per step.  It gives a full walk's minimum, tie set and order,
    and non-boolean minimum.  The non-boolean witness is the first point at
    that minimum in mixed-radix order, counting distances that differ only by
    the rounding of the search's summation order as equal.  `hint`, a box
    point believed close, seeds the search's cut with its distance and its
    neighbours'; one outside the box or of the wrong length is ignored.  Any
    hint, or none, gives the same tie set and witness, but the distances
    only within that rounding: the cut sets how many coordinates a step
    fixes, and so the order a leaf is summed in.  A minimum whose p-th power
    leaves the float range, or reads 0 although no point attaining it has a
    zero residual B z - t (the powers underflowed), raises float_range_error.
    """
    B = np.asarray(basis, dtype=float)
    t = np.asarray(target, dtype=float).ravel()
    ranges = _ranges(box, B.shape[1])
    if box_volume(ranges) > BOX_CAP:
        raise ResourceLimitError(f"box volume exceeds cap {BOX_CAP}")
    q = pvalue(p)
    try:
        # an overflowing power reads inf, which prunes or outranks its point
        # correctly; only a minimum that reads inf is wrong, refused below
        with np.errstate(over="ignore"):
            sol = _support_search(q, ranges, tol, _support_tables(B, t, q, ranges), hint)
    except OverflowError:  # a cut raised to the p-th power
        sol = None
    overflowed = sol is None or math.isinf(sol.distance)
    if overflowed or (sol.nonboolean_witness is not None and math.isinf(sol.nonboolean_distance)):
        raise float_range_error(f"a distance at p={q:g}")
    witness = [] if sol.nonboolean_witness is None else [sol.nonboolean_witness]
    if (sol.distance == 0 and not _any_exact(B, t, sol.closest)) or (
        sol.nonboolean_distance == 0 and not _any_exact(B, t, witness)
    ):
        raise float_range_error(f"a distance at p={q:g}", underflow=True)
    return sol


def _any_exact(B, t, points) -> bool:
    """Whether B z - t is all zero at some z of `points`."""
    rows = chunk_rows(max(1, len(t)))
    for a in range(0, len(points), rows):
        Z = np.array(points[a : a + rows], dtype=float)
        if np.any(np.all(Z @ B.T == t, axis=1)):
            return True
    return False


@dataclass
class _SupportTables:
    """The rows of B grouped by support, each group's summed p-th powers (max
    |.| for p = inf) tabulated over its support box.  For a point with digits
    x - lo, group g's entry is flat[digits @ index[:, g] + offset[g]].  Rows
    whose support box holds more points than one chunk are kept as they are:
    at digits x - lo, such a row is |coef_row . digits - shifted_row|."""

    flat: np.ndarray
    index: np.ndarray  # (n, groups) mixed-radix strides, 0 off the support
    offset: np.ndarray
    closes: np.ndarray  # each group's last support column + 1; 0 for no support
    mins: np.ndarray  # each group's table minimum
    coef: np.ndarray  # (rows, n) the untabulated rows of B, by row_closes
    shifted: np.ndarray  # their targets less B lo
    row_closes: np.ndarray  # their last nonzero column + 1, ascending


def _support_tables(B, t, q, ranges) -> _SupportTables:
    """Tabulate the support groups of B, except the rows whose support box
    holds more points than one `integer_grid` chunk of its width.  The check
    reads CHUNK_ENTRIES itself, so a smaller `chunk_rows` keeps the tables."""
    n = B.shape[1]
    sizes = np.array([hi - lo + 1 for lo, hi in ranges], dtype=np.int64)
    shifted = t - B @ np.array([lo for lo, _ in ranges], dtype=float)
    mask = B != 0
    width = mask.sum(axis=1)
    direct = np.prod(np.where(mask, sizes, 1), axis=1) > np.maximum(1, CHUNK_ENTRIES // np.maximum(width, 1))
    row_closes = (mask[direct] * np.arange(1, n + 1)).max(axis=1, initial=0)
    order = np.argsort(row_closes, kind="stable")
    coef, row_shifted, row_closes = B[direct][order], shifted[direct][order], row_closes[order]
    if direct.any():  # the copies cost the reductions' bases 1% of a search
        B, shifted, mask, width = B[~direct], shifted[~direct], mask[~direct], width[~direct]
    d = len(B)
    packed = np.ascontiguousarray(np.packbits(mask, axis=1) if n else np.zeros((d, 1), dtype=np.uint8))
    _, first, owner = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_index=True, return_inverse=True)
    owner = owner.ravel()
    support, width = mask[first], width[first]
    G = len(first)
    rows = np.argsort(owner, kind="stable")  # grouped by support
    row_group = owner[rows]
    group_of, cols = np.nonzero(support)
    starts = np.cumsum(width) - width
    # groups whose supports have equal sizes, column by column, share one
    # grid of digits and are tabulated together; the lows go into the target
    shape = np.zeros((G, int(width.max(initial=0)) + 1), dtype=np.int64)
    shape[group_of, np.arange(cols.size) - starts[group_of]] = sizes[cols]
    _, batch = np.unique(shape.view(f"V{shape.shape[1] * 8}").ravel(), return_inverse=True)
    batch = batch.ravel()
    index = np.zeros((n, G))
    offset = np.zeros(G, dtype=np.int64)
    mins = np.zeros(G)
    flats = []
    for b in range(int(batch.max(initial=-1)) + 1):
        members = np.flatnonzero(batch == b)
        size = shape[members[0], : width[members[0]]]
        (digits,) = integer_grid([(0, int(z) - 1) for z in size], int(np.prod(size)))
        colmat = cols[starts[members][:, None] + np.arange(size.size)]
        local = np.zeros(G, dtype=np.int64)
        local[members] = np.arange(members.size)
        mine = rows[batch[row_group] == b]
        group = local[owner[mine]]
        table = _group_tables(B[mine[:, None], colmat[group]], shifted[mine], group, digits, members.size, q)
        index[colmat, members[:, None]] = np.cumprod(np.concatenate([[1], size[:0:-1]]))[::-1]
        offset[members] = sum(map(len, flats)) + np.arange(members.size) * len(digits)
        mins[members] = table.min(axis=1)
        flats.append(table.ravel())
    closes = np.zeros(G, dtype=np.int64)
    np.maximum.at(closes, group_of, cols + 1)
    flat = np.concatenate(flats) if flats else np.zeros(0)
    return _SupportTables(flat, index, offset, closes, mins, coef, row_shifted, row_closes)


def _group_tables(coef, target, group, digits, count, q) -> np.ndarray:
    """(count, len(digits)) table: for each group, the sum over its rows of
    |coef_row . x - target_row|^p (max |.| for p = inf) at every point x of
    the shared grid `digits`.  Rows come sorted by group, and each distance
    block holds at most `CHUNK_ENTRIES` entries."""
    fold = np.add if math.isfinite(q) else np.maximum
    grid = digits.T.astype(float)
    tables = np.zeros((count, len(digits)))
    step = chunk_rows(len(digits))
    for a in range(0, len(coef), step):
        block = slice(a, a + step)
        w = abs_powers(coef[block] @ grid - target[block, None], q)
        who = group[block]
        heads = np.flatnonzero(np.concatenate([[True], who[1:] != who[:-1]]))
        ids = who[heads]
        tables[ids] = fold(tables[ids], fold.reduceat(w, heads, axis=0))
    return tables


class _Step(NamedTuple):
    """One step of the search from k fixed coordinates to `depth`: the grid
    of the digits of coordinates k..depth-1 in mixed-radix order and which
    of its points leave {0, 1}, the index columns and offsets of the groups
    closing in the step, the coefficients and targets of the untabulated rows
    closing in it (None for none), and the rows per chunk."""

    depth: int
    grid: np.ndarray
    grid_out: np.ndarray
    lookup: tuple[np.ndarray, np.ndarray] | None
    rows: tuple[np.ndarray, np.ndarray] | None
    chunk: int


def _support_search(q, ranges, tol: Tolerance, tab: _SupportTables, hint=None) -> CvpSolution:
    """Branch and bound over the coordinates in order, bounded by row supports.

    A prefix that fixes the first k coordinates carries the sum of the
    support groups and untabulated rows whose last column is among them;
    its lower bound adds the table minima of the groups still open, and 0
    for the untabulated rows still open.  One step gives each of a list of
    prefixes every value of the next coordinates, parent-major and then in
    mixed-radix order: as many coordinates as keep the step's children
    within STEP_BLOCK, and at least one.  The groups and rows closing at any
    of those depths are summed in that step.  Prefixes are expanded depth
    first, in chunks of at most `chunk_rows` rows, so leaves arrive in
    mixed-radix order.  A prefix is pruned only when its bound exceeds the
    cut by more than the rounding of the two summation orders: the tie band
    tol.ceiling(best), or the larger of that and the non-boolean minimum
    while the prefix can still reach a point outside {0, 1}^n.  So every
    point of the tie band and every point within rounding of the non-boolean
    minimum are reached, as in a full walk.

    The cut starts from seeds, distances of box points.  A `hint` in the box
    gives its own distance and those of the box points one unit away from it
    in one coordinate, summed in one pass over the tables and the
    untabulated rows.  Without one, a greedy dive to one leaf gives the
    seed, and a second dive the non-boolean seed when the box reaches
    outside {0, 1}^n and no seed does.  Any hint is sound, a wrong one
    included: each seed is the distance of a box point, computed from B and
    t, so it only bounds the minima from above, and its sum, one term per
    group and row, is within the `slack` every cut allows.  The search
    returns the points it returns unseeded, at distances within that slack.
    """
    n = len(ranges)
    finite = math.isfinite(q)
    fold = np.add if finite else np.maximum
    lows = np.array([lo for lo, _ in ranges], dtype=np.int64)
    sizes = [hi - lo + 1 for lo, hi in ranges]
    flat = tab.flat
    # groups complete once `closes` coordinates are fixed; those with no
    # support give the constant every point starts from, and rest[k] is the
    # minima of the groups still open once k coordinates are fixed
    mins = np.zeros(n + 1)
    fold.at(mins, tab.closes, tab.mins)
    const = mins[0]
    rest = np.append(fold.accumulate(mins[:0:-1])[::-1], 0.0)
    by_depth = np.argsort(tab.closes, kind="stable")
    bounds = np.searchsorted(tab.closes[by_depth], np.arange(n + 2)).tolist()
    row_bounds = np.searchsorted(tab.row_closes, np.arange(n + 2)).tolist()
    wide = [lo < 0 or hi > 1 for lo, hi in ranges]
    reaches_out = np.logical_or.accumulate(wide[::-1])[::-1].tolist() + [False]
    # relative rounding of a sum of nonnegative terms, one per group, row
    # and depth, in either order, and of raising it to 1/q and back
    slack = 4 * (tab.closes.size + tab.row_closes.size + n + (q if finite else 0) + 8) * np.finfo(float).eps
    power = q if finite else 1.0
    steps: dict[tuple[int, int], _Step] = {}

    def step(k, count) -> _Step:
        """The step from `count` prefixes of k fixed coordinates."""
        b, span = k + 1, sizes[k]
        while b < n and count * span * sizes[b] <= STEP_BLOCK:
            span *= sizes[b]
            b += 1
        if (k, b) not in steps:
            grid = np.zeros((span, b - k), dtype=np.int64)
            stride = 1
            for i in range(b - 1, k - 1, -1):  # mixed radix, the last coordinate fastest
                grid[:, i - k] = np.arange(span) // stride % sizes[i]
                stride *= sizes[i]
            values = grid + lows[k:b]
            closing = by_depth[bounds[k + 1] : bounds[b + 1]]
            r0, r1 = row_bounds[k + 1], row_bounds[b + 1]
            steps[k, b] = _Step(
                b,
                grid.astype(float),
                np.any((values < 0) | (values > 1), axis=1),
                (tab.index[:b, closing], tab.offset[closing]) if closing.size else None,
                (tab.coef[r0:r1, :b].T, tab.shifted[r0:r1]) if r1 > r0 else None,
                chunk_rows(max(n, closing.size + r1 - r0)),
            )
        return steps[k, b]

    def children(k, st, digits, partial, out, start, stop):
        """Flat children start..stop of the prefixes: each prefix in turn
        with every value of step st's coordinates, and the groups and rows
        closing there."""
        parent, local = np.divmod(np.arange(start, stop), len(st.grid))
        child = np.empty((len(parent), st.depth))
        child[:, :k] = digits[parent]
        child[:, k:] = st.grid[local]
        partial = partial[parent]
        out = out[parent] | st.grid_out[local]
        if st.lookup is not None:
            index, offset = st.lookup
            at = (child @ index).astype(np.int64) + offset
            fold(partial, fold.reduce(flat[at], axis=1), out=partial)
        if st.rows is not None:
            coef, shifted = st.rows
            fold(partial, fold.reduce(abs_powers(child @ coef - shifted, q), axis=1), out=partial)
        return child, partial, out

    def dive(outside: bool):
        """Greedy descent to one leaf by lowest bound, kept able to reach a
        point outside {0, 1}^n when `outside`: its distance and whether it
        is outside."""
        k, digits, partial, out = 0, np.zeros((1, 0)), np.array([const]), np.zeros(1, dtype=bool)
        while k < n:
            st = step(k, 1)
            # a column outside every support may be wide; its first three
            # values hold one outside {0, 1} whenever it has one.  Where
            # rows are summed, a chunk bounds their power block
            count = st.chunk if st.rows is not None else max(st.chunk, 3)
            digits, partial, out = children(k, st, digits, partial, out, 0, min(len(st.grid), count))
            k = st.depth
            score = fold(partial, rest[k])
            if outside:
                score[~(out | reaches_out[k])] = math.inf
            i = int(np.argmin(score))
            digits, partial, out = digits[i : i + 1], partial[i : i + 1], out[i : i + 1]
        return float(partial[0]) ** (1.0 / power), bool(out[0])

    def neighbours(h):
        """The distances of box point h (digits) and of every box point one
        unit away from it in one coordinate, and which leave {0, 1}^n."""
        points = [h]
        for i in range(n):
            for v in (h[i] - 1, h[i] + 1):
                if 0 <= v < sizes[i]:
                    points.append(h.copy())
                    points[-1][i] = v
        X = np.array(points, dtype=float)
        sums = np.empty(len(X))
        rows = chunk_rows(max(n, tab.offset.size, tab.row_closes.size))
        for a in range(0, len(X), rows):
            x = X[a : a + rows]
            s = fold.reduce(flat[(x @ tab.index).astype(np.int64) + tab.offset], axis=1, initial=0.0)
            if tab.row_closes.size:
                fold(s, fold.reduce(abs_powers(x @ tab.coef.T - tab.shifted, q), axis=1), out=s)
            sums[a : a + rows] = s
        values = X + lows
        out = np.any((values < 0) | (values > 1), axis=1)
        return list(zip((sums ** (1.0 / power)).tolist(), out.tolist()))

    # seeds end at box points, so they bound the minima from above and can
    # cut before the walk reaches its first leaf
    h = _box_digits(hint, ranges)
    seeds = [dive(False)] if h is None else neighbours(h)
    if reaches_out[0] and not any(o for _, o in seeds):
        seeds.append(dive(True))
    seed_best = min(v for v, _ in seeds)
    seed_nb = min((v for v, o in seeds if o), default=math.inf)

    # two distances equal in exact arithmetic differ by at most twice the
    # rounding of one
    walk = _Minima(tol, 2 * slack)
    # (fixed coordinates k, the step from them, their digits x - lo, partial
    # sums, outside {0, 1} so far, first flat child index still to expand)
    stack = [(0, step(0, 1) if n else None, np.zeros((1, 0)), np.array([const]), np.zeros(1, dtype=bool), 0)]
    while stack:
        k, st, digits, partial, out, start = stack.pop()
        if k == n:
            walk.add(partial ** (1.0 / power), out, lambda i, x=digits: x[i].astype(np.int64) + lows)
            continue
        total = len(digits) * len(st.grid)
        stop = min(start + st.chunk, total)
        if stop < total:
            stack.append((k, st, digits, partial, out, stop))
        child, partial, out = children(k, st, digits, partial, out, start, stop)
        k = st.depth
        cut = tol.ceiling(min(walk.best, seed_best)) ** power
        nb_cut = max(cut, (min(walk.nb_best, seed_nb) * (1.0 + walk.rounding)) ** power)
        if reaches_out[k]:
            cut = nb_cut
        elif nb_cut > cut:
            cut = np.where(out, nb_cut, cut)
        live = np.flatnonzero(fold(partial, rest[k]) <= cut * (1.0 + slack))
        if live.size < len(partial):
            child, partial, out = child[live], partial[live], out[live]
        if live.size:
            stack.append((k, step(k, live.size) if k < n else None, child, partial, out, 0))
    return walk.solution()


def _box_digits(hint, ranges) -> np.ndarray | None:
    """hint - lo, when hint is an integer point of the box; else None."""
    if hint is None:
        return None
    h = np.asarray(hint, dtype=float)
    lows, highs = np.array(ranges, dtype=float).reshape(-1, 2).T
    if h.shape != lows.shape or not np.all((h == np.floor(h)) & (lows <= h) & (h <= highs)):
        return None
    return (h - lows).astype(np.int64)


class _Minima:
    """What a walk over box points in mixed-radix order keeps: the running
    minimum and the points within its tie band, and the minimum over points
    outside {0, 1}^n and the points within `rounding` (relative) of it.  The
    bands only shrink as the minima fall, so each list is a superset of its
    final set, filtered in `solution`.  The non-boolean witness is the first
    point within `rounding` of that minimum, so distances that are equal in
    exact arithmetic tie, whatever order the search summed them in."""

    def __init__(self, tol: Tolerance, rounding: float):
        self.tol = tol
        self.rounding = rounding
        self.best = self.nb_best = math.inf
        self.near: list[tuple[np.ndarray, np.ndarray]] = []
        self.nb_near: list[tuple[np.ndarray, np.ndarray]] = []

    def add(self, d: np.ndarray, outside: np.ndarray, points) -> None:
        """Take the next chunk of points: their distances `d`, a mask of those
        outside {0, 1}^n, and `points(i)`, the coordinates of the chunk's
        points at index array i."""
        self.best = min(self.best, float(d.min()))
        keep = np.flatnonzero(d <= self.tol.ceiling(self.best))
        if keep.size:
            self.near.append((points(keep), d[keep]))
        outside = np.flatnonzero(outside)
        if outside.size:
            d_out = d[outside]
            low = float(d_out.min())
            if low <= self.nb_best * (1.0 + self.rounding):
                self.nb_best = min(self.nb_best, low)
                tied = d_out <= self.nb_best * (1.0 + self.rounding)
                self.nb_near.append((points(outside[tied]), d_out[tied]))

    def solution(self) -> CvpSolution:
        band = self.tol.ceiling(self.best)
        closest = [tuple(row) for rows, d in self.near for row in rows[d <= band].tolist()]
        band = self.nb_best * (1.0 + self.rounding)
        witness = None
        for rows, d in self.nb_near:
            if np.any(d <= band):
                witness = tuple(rows[d <= band][0].tolist())
                break
        return CvpSolution(self.best, closest, self.nb_best, witness)


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
    (assignment index has y_1 as the most significant bit).

    Bit-sliced over Python ints of 2^n bits: bit a of tables[j] is y_{j+1} of
    assignment a, and a constraint's table of satisfying assignments is the
    OR (clause) or XOR (parity) of those.  The weighted count lives in
    bit-planes, plane b holding bit b of every assignment's count; a table of
    weight w is added at each set bit of w with ripple carry.  The optimum is
    read off the planes from the top."""
    n = formula.n
    if n > MAX_BRUTE_VARS:
        raise ResourceLimitError(f"brute force capped at {MAX_BRUTE_VARS} variables")
    size = 1 << n
    full = (1 << size) - 1
    tables = []
    for j in range(1, n + 1):
        half = 1 << (n - j)
        table, width = ((1 << half) - 1) << half, 2 * half  # one period: 0...0 1...1
        while width < size:
            table |= table << width
            width *= 2
        tables.append(table)
    planes: list[int] = []
    for i, constraint in enumerate(formula.constraints):
        w = formula.weight_of(i)
        if w == 0:
            continue
        if hasattr(constraint, "literals"):
            sat = 0
            for lit in constraint.literals:
                sat |= tables[lit - 1] if lit > 0 else full ^ tables[-lit - 1]
        else:
            sat = 0 if constraint.bit else full
            for v in constraint.variables:
                sat ^= tables[v - 1]
        planes.extend([0] * (w.bit_length() - len(planes)))
        for low in range(w.bit_length()):
            if not (w >> low) & 1:
                continue
            carry, bit = sat, low
            while carry:
                if bit == len(planes):
                    planes.append(carry)
                    break
                planes[bit], carry = planes[bit] ^ carry, planes[bit] & carry
                bit += 1
    best, winners = 0, full
    for bit in range(len(planes) - 1, -1, -1):
        top = winners & planes[bit]
        if top:
            best, winners = best | (1 << bit), top
    flags = np.unpackbits(np.frombuffer(winners.to_bytes((size + 7) // 8, "little"), dtype=np.uint8), bitorder="little")
    index, shifts = np.flatnonzero(flags), np.arange(n - 1, -1, -1)
    assignments: list[tuple[int, ...]] = []
    for start in range(0, index.size, 1 << 16):  # bounds the int64 bit matrix
        assignments.extend(map(tuple, ((index[start : start + (1 << 16), None] >> shifts) & 1).tolist()))
    return best, assignments


def _meta(inst: CvpInstance, *keys: str) -> list:
    """The instance's meta values under keys, which its mode needs."""
    if missing := [key for key in keys if key not in inst.meta]:
        raise InvalidInputError(f"{inst.meta.get('mode')} instance meta lacks {', '.join(missing)}")
    return [inst.meta[key] for key in keys]


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
    Every condition compares against {0, 1}^n, so a box that leaves out 0 or
    1 in some coordinate is refused.
    """
    n = inst.n
    if formula.n != n:
        raise InvalidInputError("formula and instance disagree on variable count")
    ranges = _ranges(box if box is not None else (0, 1), n)
    # every condition compares against the points of {0, 1}^n
    for lo, hi in ranges:
        if lo > 0 or hi < 1:
            raise InvalidInputError(f"a validation box must hold 0 and 1 in every coordinate, got {lo}..{hi}")
    # the mode and its meta are checked before the brute force they judge
    mode = inst.meta.get("mode")
    if mode in ("padded", "cvpp-lp", "cvpp-inf"):
        (W,) = _meta(inst, "threshold")
    elif mode == "gap":
        if formula.weights is not None or formula.m == 0:
            raise InvalidInputError("gap instances come from unweighted formulas with constraints")
        s, c, gamma = _meta(inst, "s", "c", "gamma")
    else:
        raise InvalidInputError(f"instance has unknown mode {mode!r}")
    best, optimal = max_sat_brute(formula)
    # the optimum is the closest boolean point when the reduction is right;
    # as a hint it only speeds the search, whatever the instance
    sol = cvp_enumerate(inst.basis, inst.target, inst.p, ranges, tol, hint=optimal[0])
    r = inst.radius
    conditions: list[Condition] = []
    dist_leq_r = sol.distance <= tol.ceiling(r)

    if mode != "gap":
        conditions.append(
            Condition("decision-agreement", dist_leq_r == (best >= W), abs(sol.distance - r))
        )
        if mode == "cvpp-inf":
            # every falsifying assignment ties at one max-norm distance
            return VerificationReport(conditions, tol)
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
    else:
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
    return VerificationReport(conditions, tol)
