import contextlib
import functools
import importlib.util
import itertools
import math
import random
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latgad import gadgets, numeric, oracle, reductions
from latgad.errors import InvalidInputError, ResourceLimitError
from latgad.formulas import Clause, CspFormula, XorConstraint, parse_dimacs
from latgad.numeric import CHUNK_ENTRIES, DEFAULT_TOL, Tolerance, abs_powers, box_volume, chunk_rows, pnorm


def random_3sat(n, m, seed):
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), 3)
        clauses.append(Clause(tuple(v if rng.random() < 0.5 else -v for v in variables)))
    return CspFormula(n=n, constraints=clauses)


@st.composite
def mixed_formulas(draw):
    """Clause and parity formulas on n = 1..10 variables, duplicate and
    complementary literals allowed, weights 0..9 or none, m = 0 included."""
    n = draw(st.integers(min_value=1, max_value=10))
    literal = st.integers(min_value=1, max_value=n).flatmap(lambda v: st.sampled_from((v, -v)))
    clause = st.lists(literal, min_size=1, max_size=4).map(lambda lits: Clause(tuple(lits)))
    parity = st.builds(
        XorConstraint,
        st.lists(st.integers(min_value=1, max_value=n), min_size=1, max_size=n, unique=True).map(tuple),
        st.integers(min_value=0, max_value=1),
    )
    constraints = draw(st.lists(st.one_of(clause, parity), max_size=8))
    m = len(constraints)
    weights = draw(st.none() | st.lists(st.integers(min_value=0, max_value=9), min_size=m, max_size=m))
    return CspFormula(n=n, constraints=constraints, weights=weights)


ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def latbench_workloads():
    """latbench/workloads.py, the benchmark's seeded job plans."""
    spec = importlib.util.spec_from_file_location("latbench_workloads", ROOT / "latbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gadget3():
    return gadgets.find_isolating_parallelepiped(3, 3.0)


class TestCvpEnumerate:
    def test_half_target_euclidean(self):
        sol = oracle.cvp_enumerate(np.eye(2), [0.5, 0.5], 2.0, (0, 1))
        assert sol.distance == pytest.approx(math.sqrt(0.5))
        assert len(sol.closest) == 4

    def test_half_target_max_norm(self):
        sol = oracle.cvp_enumerate(np.eye(2), [0.5, 0.5], math.inf, (0, 1))
        assert sol.distance == pytest.approx(0.5)
        assert len(sol.closest) == 4

    def test_distance_monotone_in_box(self):
        B = np.array([[2.0, 0.3], [0.1, 1.7]])
        t = np.array([3.3, -2.9])
        d_small = oracle.cvp_enumerate(B, t, 2.0, (0, 1)).distance
        d_big = oracle.cvp_enumerate(B, t, 2.0, (-2, 3)).distance
        assert d_big <= d_small

    def test_box_cap(self):
        with pytest.raises(ResourceLimitError):
            oracle.cvp_enumerate(np.eye(8), np.zeros(8), 2.0, (-10, 10))

    def test_deterministic_order(self):
        sol = oracle.cvp_enumerate(np.eye(2), [0.5, 0.5], 2.0, (0, 1))
        assert sol.closest == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_support_over_64_columns(self):
        # the all-ones row's support group spans 70 columns; its one-point
        # support box is tabulated through integer_grid
        B, t = np.vstack([np.ones((1, 70)), np.eye(70)]), np.eye(71)[0]
        sol = oracle.cvp_enumerate(B, t, 2.0, (0, 0))
        assert sol.distance == 1.0 and sol.closest == [(0,) * 70]


def point_distances(B, t, p, ranges) -> dict:
    """Per-point reference for cvp_enumerate: every box point in mixed-radix
    order, mapped to its own distance."""
    return {x: pnorm(B @ np.array(x, dtype=float) - t, p) for x in box_points(ranges)}


def naive_enumerate(ref):
    """The minimum of the per-point reference, the tie set, the minimum over
    points outside {0, 1}^n, and those points with distances."""
    best = min(ref.values())
    band = best * (1.0 + DEFAULT_TOL.rel) + DEFAULT_TOL.abs
    closest = [x for x, d in ref.items() if d <= band]
    outside = [(x, d) for x, d in ref.items() if any(v not in (0, 1) for v in x)]
    nb_best = min((d for _, d in outside), default=math.inf)
    return best, closest, nb_best, outside


@st.composite
def small_cvp(draw):
    """Integer bases and half-integer targets, so that equal distances are
    exactly equal and distinct ones are far apart compared to the tie band."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(n, 4))
    B = np.array(draw(st.lists(st.integers(-3, 3), min_size=d * n, max_size=d * n)), dtype=float)
    t = np.array(draw(st.lists(st.integers(-8, 8), min_size=d, max_size=d)), dtype=float) / 2
    p = draw(st.sampled_from([1.0, 2.0, 3.0, math.inf]))
    shape = draw(st.sampled_from(["binary", "wide", "mixed"]))
    if shape == "binary":
        ranges = [(0, 1)] * n
    elif shape == "wide":
        ranges = [(-1, 2)] * n
    else:
        lows = draw(st.lists(st.integers(-2, 1), min_size=n, max_size=n))
        ranges = [(lo, lo + draw(st.integers(0, 3))) for lo in lows]
    chunk = draw(st.integers(1, 9))
    return B.reshape(d, n), t, p, ranges, chunk


TIE = (np.eye(2), np.array([0.5, 0.5]))
B3 = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0], [2.0, 0.0, -1.0]])


def assert_matches_reference(sol, ref):
    best, closest, nb_best, outside = naive_enumerate(ref)
    assert sol.distance == pytest.approx(best, rel=1e-12, abs=1e-12)
    assert sol.closest == closest
    if not outside:
        assert sol.nonboolean_distance == math.inf
        assert sol.nonboolean_witness is None
    else:
        assert sol.nonboolean_distance == pytest.approx(nb_best, rel=1e-12, abs=1e-12)
        first = next(x for x, d in outside if d <= nb_best * (1 + 1e-12) + 1e-12)
        assert sol.nonboolean_witness == first


def box_points(ranges):
    return list(itertools.product(*(range(lo, hi + 1) for lo, hi in ranges)))


def walk(B, t, p, ranges, chunk=None, hint=None):
    """cvp_enumerate (given `hint`) with the points of every evaluated chunk
    recorded and, when `chunk` is given, the chunk budget forced to that many
    rows.

    Checks the search's bookkeeping against the per-point reference: each
    chunk's distances and outside-{0, 1} mask, no point evaluated twice,
    every skipped point beyond the tie band and, outside {0, 1}^n, beyond
    the non-boolean minimum.  With the budget unforced, every 2-D block
    raised by `abs_powers` (tables, directly summed rows and the hint's
    seeding pass) holds at most max(CHUNK_ENTRIES, width) entries.  Returns the solution, the rows per
    chunk and the reference, for `assert_matches_reference`."""
    chunks, blocks = [], []
    add = oracle._Minima.add
    ref = point_distances(B, t, p, ranges)

    def record(self, d, outside, points):
        # copied now, checked together once the search is done
        chunks.append((points(np.arange(len(d))), np.array(d, dtype=float), np.array(outside, dtype=bool)))
        return add(self, d, outside, points)

    def budget(width):
        return chunk_rows(width) if chunk is None else chunk

    def powers(x, q):
        blocks.append(x.shape)
        return abs_powers(x, q)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(oracle._Minima, "add", record))
        stack.enter_context(mock.patch.object(oracle, "chunk_rows", budget))
        stack.enter_context(mock.patch.object(oracle, "abs_powers", powers))
        sol = oracle.cvp_enumerate(B, t, p, ranges, hint=hint)
    for pts, d, outside in chunks:
        assert np.array_equal(outside, np.any((pts < 0) | (pts > 1), axis=1))
    evaluated = [tuple(x) for pts, _, _ in chunks for x in pts.tolist()]
    if evaluated:
        d = np.concatenate([d for _, d, _ in chunks])
        expected = np.array([ref[x] for x in evaluated])
        assert np.all(np.abs(d - expected) <= 1e-12 * (1 + np.abs(expected)))
    assert len(set(evaluated)) == len(evaluated)  # no point evaluated twice
    band = DEFAULT_TOL.ceiling(min(ref.values()))
    nb_best = min((dist for x, dist in ref.items() if any(v not in (0, 1) for v in x)), default=math.inf)
    for x in set(ref) - set(evaluated):
        assert ref[x] > band
        if any(v not in (0, 1) for v in x):
            assert ref[x] > nb_best
    if chunk is None:
        entries = numeric.CHUNK_ENTRIES
        assert all(rows * cols <= max(entries, cols) for rows, cols in (b for b in blocks if len(b) == 2))
    return sol, [len(pts) for pts, _, _ in chunks], ref


class TestSingleWalk:
    @settings(max_examples=150, deadline=None)
    @given(case=small_cvp())
    @example(case=(*TIE, 2.0, [(0, 1)] * 2, 1))
    @example(case=(*TIE, 2.0, [(-1, 2)] * 2, 3))
    @example(case=(*TIE, math.inf, [(0, 1)] * 2, 2))
    @example(case=(*TIE, math.inf, [(-1, 2)] * 2, 5))
    def test_matches_per_point_reference(self, case):
        B, t, p, ranges, chunk = case
        sol, walked, ref = walk(B, t, p, ranges, chunk)
        assert all(rows <= chunk for rows in walked)
        assert_matches_reference(sol, ref)

    @pytest.mark.parametrize(
        "B, t, p, ranges, chunk, expected",
        [
            # chunks as wide as the whole box, on the binary and a wide box
            (B3, np.array([0.5, 1.5, -0.5]), 3.0, [(0, 1)] * 3, 9, [(0, 0, 0), (0, 0, 1), (0, 1, 1)]),
            (B3, np.array([0.5, 1.5, -0.5]), 1.0, [(-1, 1)] * 3, 27, [(0, 0, 0), (0, 0, 1), (0, 1, 1)]),
            # single-point ranges, leading and trailing, inside and outside {0, 1}
            (B3, np.array([1.5, 0.0, 2.5]), 2.0, [(1, 1), (0, 1), (-1, -1)], 1, [(1, 0, -1)]),
            (B3, np.array([1.5, 0.0, 2.5]), 2.0, [(1, 1), (0, 1), (-1, -1)], 2, [(1, 0, -1)]),
            (B3, np.array([1.5, 0.0, 2.5]), 2.0, [(2, 2)] * 3, 1, [(2, 2, 2)]),
            # ties that span chunks: (0, y) and (1, y) in separate chunks
            (*TIE, 2.0, [(0, 1)] * 2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]),
            (*TIE, math.inf, [(0, 1)] * 2, 3, [(0, 0), (0, 1), (1, 0), (1, 1)]),
            # wide first coordinate, binary rest, and the other way round
            (B3, np.array([0.5, -1.0, 1.5]), 3.0, [(-1, 2), (0, 1), (0, 1)], 5, [(1, 0, 0)]),
            (B3, np.array([0.5, -1.0, 1.5]), 3.0, [(0, 1), (0, 1), (-1, 2)], 9, [(1, 0, 0)]),
        ],
    )
    def test_split_edge_cases(self, B, t, p, ranges, chunk, expected):
        # `expected` is the tie set, pinned; walk() checks what is skipped
        sol, walked, ref = walk(B, t, p, ranges, chunk)
        assert all(rows <= chunk for rows in walked)
        assert sol.closest == expected
        assert_matches_reference(sol, ref)

    @pytest.mark.parametrize("d", [CHUNK_ENTRIES + 5, CHUNK_ENTRIES // 3, 7])
    def test_chunks_sized_by_entries(self, d):
        # the search tabulates the two one-column groups and the empty-support
        # rows; walk() checks that every 2-D power block it raises holds at
        # most CHUNK_ENTRIES entries, or one row when a row is wider than that
        B = np.zeros((d, 2))
        B[0, 0] = B[1, 1] = 1.0
        t = np.zeros(d)
        t[:2] = 0.75
        sol, _, ref = walk(B, t, 2.0, [(0, 1)] * 2)
        assert sol.closest == [(1, 1)]
        assert_matches_reference(sol, ref)


@st.composite
def sparse_cvp(draw):
    """Row-sparse integer bases like the reductions' instances: blocks of
    rows over a few columns each (repeated blocks, one-column rows, rows of
    any support size), empty-support rows with a nonzero target, and
    half-integer targets, so that equal distances are exactly equal."""
    n = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["binary", "wide", "mixed"]))
    if shape == "binary":
        ranges = [(0, 1)] * n
    elif shape == "wide":
        ranges = [(-1, 2)] * min(n, 5) + [(0, 1)] * (n - min(n, 5))
    else:
        ranges = [(lo, lo + draw(st.integers(0, 2))) for lo in draw(st.lists(st.integers(-2, 1), min_size=n, max_size=n))]
        while box_volume(ranges) > 1024:
            ranges[ranges.index(max(ranges, key=lambda r: r[1] - r[0]))] = (0, 0)
    entry = st.integers(-3, 3)
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=min(n, 4), unique=True))
        rows = draw(st.integers(1, 3))
        block = np.zeros((rows, n))
        block[:, cols] = np.array(draw(st.lists(entry, min_size=rows * len(cols), max_size=rows * len(cols)))).reshape(
            rows, len(cols)
        )
        t = np.array(draw(st.lists(st.integers(-8, 8), min_size=rows, max_size=rows))) / 2
        blocks += [(block, t)] * draw(st.integers(1, 2))
    if draw(st.booleans()):
        blocks.append((np.eye(n), np.full(n, 0.5)))
    B = np.vstack([b for b, _ in blocks])
    t = np.concatenate([t for _, t in blocks])
    p = draw(st.sampled_from([1.0, 2.0, 2.5, 3.0, math.inf]))
    chunk = draw(st.sampled_from([1, 2, 5, 64, None]))
    return B, t, p, ranges, chunk


class TestSupportSearch:
    @settings(max_examples=80, deadline=None)
    @given(case=sparse_cvp())
    @example(case=(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.5, 0.5]), 1.0, [(0, 1), (-1, 1)], 1))
    def test_sparse_matches_reference(self, case):
        B, t, p, ranges, chunk = case
        sol, walked, ref = walk(B, t, p, ranges, chunk)
        if chunk is not None:
            assert all(rows <= chunk for rows in walked)
        assert_matches_reference(sol, ref)

    @settings(max_examples=150, deadline=None)
    @given(case=st.one_of(small_cvp(), sparse_cvp()), entries=st.integers(1, 16))
    def test_small_chunk_entries_mix_tables_and_sums(self, case, entries):
        # a budget of a few entries leaves only small support boxes
        # tabulated: the other rows are summed as their last column is fixed
        B, t, p, ranges, _ = case
        with mock.patch.object(oracle, "CHUNK_ENTRIES", entries), mock.patch.object(numeric, "CHUNK_ENTRIES", entries):
            sol, _, ref = walk(B, t, p, ranges)
        assert_matches_reference(sol, ref)

    @settings(max_examples=150, deadline=None)
    @given(
        case=st.one_of(small_cvp(), sparse_cvp()),
        kind=st.sampled_from(["random", "best", "worst", "outside", "length"]),
        entries=st.sampled_from([None, 1, 4, 16]),
        data=st.data(),
    )
    def test_any_hint_is_sound(self, case, kind, entries, data):
        # a hint only seeds the cut; a far point, one outside the box and one
        # of the wrong length give what no hint gives.  Small CHUNK_ENTRIES
        # leave rows untabulated, which the seeding pass sums in chunks
        B, t, p, ranges, chunk = case
        chunk = data.draw(st.sampled_from([chunk, None]))
        ref = point_distances(B, t, p, ranges)
        hint = {
            "random": tuple(data.draw(st.integers(lo, hi)) for lo, hi in ranges),
            "best": min(ref, key=ref.get),
            "worst": max(ref, key=ref.get),
            "outside": (ranges[0][1] + 1,) + tuple(lo for lo, _ in ranges[1:]),
            "length": tuple(lo for lo, _ in ranges) + (0,) * data.draw(st.sampled_from([-1, 1])),
        }[kind][: len(ranges) + 1]
        with contextlib.ExitStack() as stack:
            if entries is not None:
                stack.enter_context(mock.patch.object(oracle, "CHUNK_ENTRIES", entries))
                stack.enter_context(mock.patch.object(numeric, "CHUNK_ENTRIES", entries))
            plain = oracle.cvp_enumerate(B, t, p, ranges)
            sol, walked, ref = walk(B, t, p, ranges, chunk, hint=hint)
        if chunk is not None:
            assert all(rows <= chunk for rows in walked)
        assert_matches_reference(sol, ref)
        assert sol.closest == plain.closest
        assert sol.nonboolean_witness == plain.nonboolean_witness
        assert sol.distance == pytest.approx(plain.distance, rel=1e-12, abs=1e-12)
        assert sol.nonboolean_distance == pytest.approx(plain.nonboolean_distance, rel=1e-12, abs=1e-12)

    def test_hint_evaluates_fewer_leaves(self, gadget3):
        # counted, not timed: the rows handed to _Minima.add on binary boxes
        add = oracle._Minima.add

        def leaves(inst, hint):
            rows = []

            def record(self, d, outside, points):
                rows.append(len(d))
                return add(self, d, outside, points)

            with mock.patch.object(oracle._Minima, "add", record):
                sol = oracle.cvp_enumerate(inst.basis, inst.target, inst.p, (0, 1), hint=hint)
            return sol, sum(rows)

        totals = np.zeros(2, dtype=np.int64)
        for seed in range(10):
            f = random_3sat(13, 55, seed)
            inst = reductions.sat_to_cvp(f, gadget3)
            _, optimal = oracle.max_sat_brute(f)
            plain, plain_rows = leaves(inst, None)
            hinted, hinted_rows = leaves(inst, optimal[0])
            assert hinted.closest == plain.closest == optimal
            assert hinted_rows <= plain_rows
            totals += (plain_rows, hinted_rows)
        assert totals[1] < totals[0]

    @pytest.mark.parametrize("seed", [777, 4242])
    def test_hint_moves_at_most_the_rounding_on_the_benchmark_plans(self, gadget3, seed):
        # the sat-validate jobs of a 20 s plan: the hint validate passes (the
        # first optimum) gives the unhinted closest set, witness and
        # decisions.  The cut sets how many coordinates a step fixes, so the
        # order a leaf is summed in, and a distance can move by its rounding
        # (15.220149732059516 against ...518 on four of these jobs)
        workload = latbench_workloads().WORKLOADS["sat-validate"]
        moved = 0
        for job in workload.plan(seed, latbench_workloads().plan_size(workload, 20.0)):
            formula = parse_dimacs(job.files["f.cnf"].decode())
            inst = reductions.sat_to_cvp(formula, gadget3)
            box = tuple(map(int, job.params["box"].split("..")))
            _, optimal = oracle.max_sat_brute(formula)
            hinted = oracle.cvp_enumerate(inst.basis, inst.target, inst.p, box, hint=optimal[0])
            plain = oracle.cvp_enumerate(inst.basis, inst.target, inst.p, box)
            assert (hinted.closest, hinted.nonboolean_witness) == (plain.closest, plain.nonboolean_witness)
            r = DEFAULT_TOL.ceiling(inst.radius)
            for sol in (hinted, plain):
                assert (sol.distance <= r, sol.nonboolean_distance > r) == (
                    plain.distance <= r, plain.nonboolean_distance > r)
            # _support_search's slack: the rounding of one sum of a term per
            # group, row and depth, and of the 1/p-th root
            tab = oracle._support_tables(inst.basis, inst.target, inst.p, oracle._ranges(box, inst.n))
            slack = 4 * (tab.closes.size + tab.row_closes.size + inst.n + inst.p + 8) * np.finfo(float).eps
            for a, b in ((hinted.distance, plain.distance), (hinted.nonboolean_distance, plain.nonboolean_distance)):
                assert a == b or abs(a - b) <= 2 * slack * min(a, b)
            moved += hinted.distance != plain.distance
        assert moved <= 4

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_near_ties_inside_band_kept(self, p):
        # distances 1e-11 apart are distinct but share the tie band, so the
        # search must not cut at the running minimum itself
        B, t = np.eye(3), np.array([0.5, 0.5 + 1e-11, 0.5 - 2e-11])
        sol, _, ref = walk(B, t, p, [(0, 1)] * 3, chunk=2)
        assert len(sol.closest) == 8
        assert_matches_reference(sol, ref)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("p", [1.5, 2.5])
    def test_rounding_ties_give_first_witness(self, n, p):
        # every point with one coordinate at -1 or 2 is at the non-boolean
        # minimum in exact arithmetic; summed in the search's order, some
        # later ones round below the first
        B, t = np.eye(n), np.full(n, 0.5)
        sol, _, ref = walk(B, t, p, [(-1, 2)] * n)
        assert sol.nonboolean_witness == (-1,) + (0,) * (n - 1)
        assert_matches_reference(sol, ref)

    def test_many_single_point_coordinates(self):
        # one level per coordinate, none of them recursive
        n = 3000
        assert n > sys.getrecursionlimit()
        B = np.zeros((n // 10, n))
        for i in range(n // 10):
            B[i, 10 * i : 10 * i + 10] = 1.0 + i % 3
        t = np.arange(n // 10) % 5 - 2.0
        sol = oracle.cvp_enumerate(B, t, 3.0, (0, 0))
        assert sol.distance == pytest.approx(pnorm(t, 3.0), rel=1e-12)
        assert sol.closest == [(0,) * n]
        assert sol.nonboolean_witness is None

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("over", [0, 1])
    def test_support_box_over_budget_summed_directly(self, width, over):
        # the support box of the row over columns 0..width-1 holds
        # chunk_rows(width) + over points: one over, it is not tabulated
        hi = chunk_rows(width) + over - 1
        B = np.array([[1.0] * width, [2.0] + [0.0] * (width - 1)])
        t = np.array([10.5, 21.0])
        ranges = [(0, hi)] + [(0, 0)] * (width - 1)
        summed = oracle._support_tables(B, t, 2.0, ranges).coef
        assert any(np.array_equal(row, B[0]) for row in summed) == bool(over)
        sol = oracle.cvp_enumerate(B, t, 2.0, ranges)
        x = np.arange(hi + 1, dtype=float)
        d = np.sqrt((x - 10.5) ** 2 + (2 * x - 21.0) ** 2)
        assert sol.distance == pytest.approx(d.min(), rel=1e-12)
        assert sol.closest == [(10,) + (0,) * (width - 1), (11,) + (0,) * (width - 1)]
        assert sol.nonboolean_witness == sol.closest[0]

    def test_sat_instance_at_n20(self, gadget3):
        f = random_3sat(20, 84, 7)
        inst = reductions.sat_to_cvp(f, gadget3)
        start = time.perf_counter()
        sol = oracle.cvp_enumerate(inst.basis, inst.target, inst.p, (0, 1))
        assert time.perf_counter() - start < 2.0
        best, optimal = oracle.max_sat_brute(f)
        assert sorted(sol.closest) == optimal
        eps, alpha = inst.meta["eps"], inst.meta["alpha"]
        predicted = (best + (84 - best) * (1 + eps) ** 3 + 20 * alpha**3) ** (1 / 3)
        assert sol.distance == pytest.approx(predicted, rel=1e-9)


class TestMaxSatBrute:
    def test_single_clause_count(self):
        f = CspFormula(n=3, constraints=[Clause((1, 2, 3))])
        best, assignments = oracle.max_sat_brute(f)
        assert best == 1
        assert len(assignments) == 7  # all but the all-zeros assignment

    def test_empty_formula(self):
        f = CspFormula(n=2, constraints=[])
        best, assignments = oracle.max_sat_brute(f)
        assert best == 0
        assert len(assignments) == 4

    def test_inconsistent_xor_system(self):
        f = CspFormula(
            n=2,
            constraints=[XorConstraint((1, 2), 0), XorConstraint((1, 2), 1)],
        )
        best, _ = oracle.max_sat_brute(f)
        assert best == 1

    def test_weighted(self):
        f = CspFormula(n=1, constraints=[Clause((1,)), Clause((-1,))], weights=[5, 2])
        best, assignments = oracle.max_sat_brute(f)
        assert best == 5
        assert assignments == [(1,)]

    def test_deterministic_assignment_order(self):
        f = CspFormula(n=2, constraints=[])
        _, assignments = oracle.max_sat_brute(f)
        assert assignments == [(0, 0), (0, 1), (1, 0), (1, 1)]

    @given(formula=mixed_formulas())
    @example(formula=CspFormula(n=3, constraints=[Clause((2, -2)), Clause((1, 1, -3))], weights=[4, 9]))
    @settings(max_examples=80, deadline=None)
    def test_matches_exhaustive_reference(self, formula):
        scores = {a: formula.satisfied_weight(a) for a in itertools.product((0, 1), repeat=formula.n)}
        best = max(scores.values())
        assert oracle.max_sat_brute(formula) == (best, [a for a, w in scores.items() if w == best])


class TestValidateReduction:
    def test_random_instances_pass(self, gadget3):
        for seed in range(5):
            f = random_3sat(6, 10, seed)
            inst = reductions.sat_to_cvp(f, gadget3)
            assert oracle.validate_reduction(f, inst).passed

    @pytest.mark.parametrize(
        "meta, message",
        [
            ({"mode": "sat"}, "unknown mode 'sat'"),
            ({}, "unknown mode None"),
            ({"mode": "padded"}, "padded instance meta lacks threshold"),
            ({"mode": "cvpp-inf"}, "cvpp-inf instance meta lacks threshold"),
            ({"mode": "gap", "s": 0.6, "c": 0.9}, "gap instance meta lacks gamma"),
        ],
    )
    def test_meta_is_checked_before_the_brute_force(self, monkeypatch, gadget3, meta, message):
        f = random_3sat(6, 10, 0)
        inst = reductions.sat_to_cvp(f, gadget3)
        inst.meta = meta
        monkeypatch.setattr(oracle, "max_sat_brute", lambda formula: pytest.fail("ran the brute force"))
        monkeypatch.setattr(oracle, "cvp_enumerate", lambda *args, **kwargs: pytest.fail("ran the search"))
        with pytest.raises(InvalidInputError, match=message):
            oracle.validate_reduction(f, inst)

    def test_shrunk_radius_flips_decision(self, gadget3):
        f = CspFormula(n=3, constraints=[Clause((1, 2, 3))])  # satisfiable
        inst = reductions.sat_to_cvp(f, gadget3)
        assert oracle.validate_reduction(f, inst).passed
        inst.radius *= 0.99
        report = oracle.validate_reduction(f, inst)
        assert not report.passed
        assert any(c.name == "decision-agreement" and not c.passed for c in report.conditions)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("break_by", ["target", "sign"])
    def test_wrong_hint_cannot_hide_broken_reduction(self, gadget3, seed, break_by):
        # one clause block's target moved (to the block's image of the optimum
        # with the clause's variables flipped, weighted up), or one block
        # built with its literals' signs flipped, so that the optimum
        # validate_reduction passes as the hint is no longer closest: the
        # report must still fail, and be the one an unseeded search gives
        f = random_3sat(6, 12, seed)
        _, optimal = oracle.max_sat_brute(f)
        for j, clause in enumerate(f.constraints):
            if break_by == "target":
                inst = reductions.sat_to_cvp(f, gadget3)
                block = slice(j * 5, (j + 1) * 5)  # the k=3 gadget has 5 live rows
                moved = np.array(optimal[0], dtype=float)
                flipped = [abs(v) - 1 for v in clause.literals]
                moved[flipped] = 1 - moved[flipped]
                inst.basis[block] *= 10.0
                inst.target[block] = inst.basis[block] @ moved
            else:
                wrong = list(f.constraints)
                wrong[j] = Clause(tuple(-v for v in clause.literals))
                inst = reductions.sat_to_cvp(CspFormula(n=f.n, constraints=wrong), gadget3)
            assert len(inst.target) == 5 * f.m + f.n
            sol = oracle.cvp_enumerate(inst.basis, inst.target, inst.p, (0, 1))
            if optimal[0] not in sol.closest:
                break
        else:
            pytest.fail("no block breaks the reduction")
        report = oracle.validate_reduction(f, inst)
        assert not report.passed
        failed = {c.name for c in report.conditions if not c.passed}
        assert failed & {"witness-bijection", "decision-agreement"}
        enumerate_ = oracle.cvp_enumerate
        unseeded = lambda *args, hint=None: enumerate_(*args)
        with mock.patch.object(oracle, "cvp_enumerate", unseeded):
            plain = oracle.validate_reduction(f, inst)
        assert report.conditions == plain.conditions

    def test_gap_planted_satisfiable(self):
        lattice0 = gadgets.to_isolating_lattice(gadgets.parity_gadget(3, 1.0, 0))
        lattice1 = gadgets.to_isolating_lattice(gadgets.parity_gadget(3, 1.0, 1))
        rng = random.Random(1)
        n = 5
        truth = [rng.randint(0, 1) for _ in range(n)]
        constraints = []
        for _ in range(8):
            variables = tuple(sorted(rng.sample(range(1, n + 1), 3)))
            constraints.append(XorConstraint(variables, sum(truth[v - 1] for v in variables) % 2))
        f = CspFormula(n=n, constraints=constraints)
        lattices = [lattice1 if c.bit else lattice0 for c in f.constraints]
        inst, gamma = reductions.csp_to_cvp_gap(f, lattices, s=0.6, c=1.0)
        assert gamma > 1.0
        report = oracle.validate_reduction(f, inst, box=(-1, 2))
        assert report.passed

    def test_distance_matches_level_prediction(self, gadget3):
        # over boolean points the distance is pinned by the optimum:
        # dist^p = best + (m - best)(1 + eps)^p + n alpha^p
        f = random_3sat(5, 8, 21)
        inst = reductions.sat_to_cvp(f, gadget3)
        best, _ = oracle.max_sat_brute(f)
        sol = oracle.cvp_enumerate(inst.basis, inst.target, inst.p, (0, 1))
        eps, alpha = inst.meta["eps"], inst.meta["alpha"]
        predicted = (best + (8 - best) * (1 + eps) ** 3 + 5 * alpha**3) ** (1 / 3)
        assert sol.distance == pytest.approx(predicted, rel=1e-9)

    def test_strict_convexity_closest_count(self, gadget3):
        # for 1 < p < inf a padded instance has at most 2^n closest vectors
        f = random_3sat(4, 6, 99)
        inst = reductions.sat_to_cvp(f, gadget3)
        sol = oracle.cvp_enumerate(inst.basis, inst.target, inst.p, (-1, 2))
        assert len(sol.closest) <= 2**4

    def test_exclusion_rejects_point_in_absolute_sliver(self, gadget3):
        # a non-boolean point between r (1 + rel) and tol.ceiling(r) counts as
        # within the radius, so it must not also count as excluded
        f = CspFormula(n=3, constraints=[Clause((1, 2, 3))])
        inst = reductions.sat_to_cvp(f, gadget3)
        assert oracle.validate_reduction(f, inst, box=(-1, 2)).passed
        nb = oracle.cvp_enumerate(inst.basis, inst.target, inst.p, (-1, 2)).nonboolean_distance
        r = inst.radius
        assert nb > r * (1.0 + DEFAULT_TOL.rel)
        tol = Tolerance(rel=DEFAULT_TOL.rel, abs=2 * (nb - r))
        assert nb <= tol.ceiling(r)
        report = oracle.validate_reduction(f, inst, box=(-1, 2), tol=tol)
        exclusion = next(c for c in report.conditions if c.name == "non-binary-exclusion")
        assert not exclusion.passed
        assert not report.passed
