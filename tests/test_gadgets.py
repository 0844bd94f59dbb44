import collections
import dataclasses
import functools
import json
import math
import time
import warnings
from fractions import Fraction
from itertools import permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgad import distmatrix, gadgets, oracle, serialize
from latgad.errors import (
    DegenerateConstructionError,
    InvalidInputError,
    NumericDegeneracyError,
    ResourceLimitError,
    UnsupportedParametersError,
    VerificationError,
)
from latgad.numeric import DEFAULT_TOL, Tolerance, chunk_rows, integer_grid, pnorm


def dense_weights(k, p, shift):
    """solve_weights by a dense solve of the 2^k x 2^k system H a = e_0."""
    H = distmatrix.distance_matrix(k, p, shift)
    a = np.linalg.solve(H, np.eye(2**k)[0])
    lam = distmatrix.eigen_report(k, p, shift).lambda_all
    lo = a.min()
    eps = 1.0 / (lam * (abs(lo) if lo < 0.0 else np.abs(a).max()))
    return np.clip(1.0 / lam + eps * a, 0.0, None), eps


def spread(by_class):
    """Class weights read at every vertex of {0, 1}^k (class: popcount), in
    integer_grid order."""
    k = by_class.size - 1
    (x,) = integer_grid([(0, 1)] * k, 2**k)
    return by_class[x.sum(axis=1)]


def reference_assembly(by_class, shift, q):
    """The parallelepiped assembled vertex by vertex: the 2^k weights, the
    +-1 rows w^(1/p) u^T, then over {0, 1}^k the rows doubled and each
    target w^(1/p) times (the sum of u's entries + shift), -0 taken as 0."""
    k = by_class.size - 1
    (x,) = integer_grid([(0, 1)] * k, 2**k)
    scale = spread(by_class) ** (1.0 / q)
    u = 2.0 * x - 1.0
    return 2.0 * scale[:, None] * u, scale * (u.sum(axis=1) + float(shift)) + 0.0


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns (-0 differs from 0)."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def distances(V, t, p, k):
    """Each vertex x of {0, 1}^k with the distance from t to V x, one pnorm per vertex."""
    return [(x, pnorm(V @ np.array(x, dtype=float) - t, p)) for x in product((0, 1), repeat=k)]


WALK_DEPTH = 64


def reference_shift(k, p):
    """The first-fit walk that find_shift's ranking must never do worse than:
    the first nonsingular shift j + 2^-i by one fsum spectrum each, for
    i = 1..WALK_DEPTH and, for each i, the offsets j in turn (j = k, or
    j = k-1 down to 0 for odd integers p < k)."""
    q = float(p)
    integral = q.is_integer()
    if integral and int(q) % 2 == 0 and q < k:
        raise UnsupportedParametersError(f"even p={q} < k={k}")
    offsets = range(k - 1, -1, -1) if integral and q < k else (k,)
    for i in range(1, WALK_DEPTH + 1):
        for j in offsets:
            cand = j + 2.0**-i
            if distmatrix.eigen_report(k, q, cand).nonsingular:
                return cand
    raise NumericDegeneracyError(f"no shift for k={k}, p={q}")


def shift_or_error(fn, k, p):
    try:
        return fn(k, p)
    except (UnsupportedParametersError, NumericDegeneracyError) as exc:
        return type(exc)


def walk_gap(k, p):
    """eps of the gadget built at the first-fit walk's shift, or None where
    the walk finds no shift or its shift builds no verified gadget."""
    try:
        return gadgets._isolating_at(k, float(p), reference_shift(k, p)).eps
    except (UnsupportedParametersError, NumericDegeneracyError, VerificationError):
        return None


class TestFindShift:
    def test_k1_p1_first_candidate(self):
        # at k = 1, p = 1 the gap halves with each step of the shift's offset
        # from 1: 1.0625 gives 32, 1.125 16, ..., the walk's 1.5 gives 4
        ranking = gadgets._shift_ranking(1, 1.0)
        assert ranking[:4] == [1.0625, 1.125, 1.25, 1.5]
        assert gadgets.find_shift(1, 1.0) == 1.0625
        assert [gadgets.solve_weights(1, 1.0, s)[1] for s in ranking[:4]] == pytest.approx([32.0, 16.0, 8.0, 4.0])

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 10, 16])
    def test_matches_reference_walk(self, k):
        # wherever the walk finds a shift, the ranking's first gives a gap
        # at least as large; both refuse even integers p < k
        rng = np.random.default_rng(1200 + k)
        grid = [1.0 + 0.25 * i for i in range(45)] + [float(p) for p in rng.uniform(1.0, 12.0, 20)]
        for p in grid:
            walked = shift_or_error(reference_shift, k, p)
            if walked is UnsupportedParametersError:
                assert shift_or_error(gadgets.find_shift, k, p) is UnsupportedParametersError, (k, p)
            elif walked is not NumericDegeneracyError:
                best = gadgets.solve_weights(k, p, gadgets.find_shift(k, p))[1]
                assert best >= gadgets.solve_weights(k, p, walked)[1] * (1 - 1e-9), (k, p)

    @pytest.mark.parametrize("nudge", [0, 1], ids=["ratio-met", "ratio-missed"])
    def test_undecided_candidate_goes_to_referee(self, monkeypatch, nudge):
        # a threshold equal to one candidate's fsum ratio (or one ulp above
        # it) is inside every error bound: only eigen_report can decide, and
        # the candidate is ranked exactly when its verdict is nonsingular
        k, p = 3, 2.5
        ratio = distmatrix.eigen_report(k, p, k + 0.5).min_ratio
        monkeypatch.setattr(distmatrix, "NONSINGULAR_RATIO", ratio if nudge == 0 else math.nextafter(ratio, 1.0))
        real, calls = distmatrix.eigen_report, []
        monkeypatch.setattr(distmatrix, "eigen_report", lambda *args: calls.append(args[2]) or real(*args))
        ranking = gadgets._shift_ranking(k, p)
        assert k + 0.5 in calls
        assert (k + 0.5 in ranking) == (nudge == 0)
        assert all(real(k, p, s).nonsingular for s in ranking)

    def test_failing_search_needs_no_referee(self, monkeypatch):
        # p a hair off an even integer: the screen proves every candidate singular
        def refuse(*args):
            raise AssertionError("the fsum spectrum was computed")

        monkeypatch.setattr(distmatrix, "eigen_report", refuse)
        with pytest.raises(NumericDegeneracyError, match="no nonsingular shift .* on the grid G_k"):
            gadgets.find_shift(10, 1.999996)

    def test_k_cap(self):
        with pytest.raises(ResourceLimitError):
            gadgets.find_shift(17, 3)

    def test_even_p_below_k_refused(self):
        with pytest.raises(UnsupportedParametersError):
            gadgets.find_shift(3, 2.0)

    def test_even_p_at_k_allowed(self):
        # the walk's 2.5 is ranked, below 1.0625
        assert gadgets._shift_ranking(2, 2.0)[:5] == [1.0625, 1.125, 1.25, 1.5, 2.0625]
        assert reference_shift(2, 2.0) in gadgets._shift_ranking(2, 2.0)
        shift = gadgets.find_shift(2, 2.0)
        report = distmatrix.eigen_report(2, 2.0, shift)
        assert report.nonsingular

    def test_odd_p_below_k_uses_interior_shift(self):
        # above k every size > p eigenvalue vanishes, so the shift must land below k
        shift = gadgets.find_shift(3, 1.0)
        assert shift < 3.0
        assert distmatrix.eigen_report(3, 1.0, shift).nonsingular


P_GRID = [1.0 + 0.25 * i for i in range(45)]  # 1..12
# p as the k=10 gadget-build workload draws it: uniform in [1, 6], rounded
# to 6 places, and the odd integers 1, 3 and 5
BUILD_P = [round(float(p), 6) for p in np.random.default_rng(34).uniform(1.0, 6.0, 40)] + [1.0, 3.0, 5.0]


def even_below(k, p):
    return float(p).is_integer() and int(p) % 2 == 0 and p < k


class TestShiftRanking:
    """find_shift ranks G_k by gap; the builder builds the ranking in turn
    until a gadget verifies."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_every_admissible_grid_point_builds(self, k):
        for p in P_GRID:
            if even_below(k, p):
                with pytest.raises(UnsupportedParametersError):
                    gadgets.find_isolating_parallelepiped(k, p)
                continue
            g = isolating(k, p)
            assert g.meta["shift"] in gadgets._grid(k), (k, p)
            assert gadgets.verify_parallelepiped(g).passed, (k, p)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_class_targets_are_one_product(self, k):
        # each class target s_j (2j - k + shift) rounds once (+0 only turns
        # -0 into 0); the factor is exact for every shift of the grid
        ones = np.ones(k)
        for p in P_GRID:
            if even_below(k, p):
                continue
            g = isolating(k, p)
            shift = g.meta["shift"]
            by_class, _ = gadgets.solve_weights(k, p, shift)
            s = by_class ** (1.0 / p)
            assert all(Fraction(2 * j - k) + Fraction(shift) == Fraction(2 * j - k + shift) for j in range(k + 1))
            want = np.array([s[j] * (2 * j - k + shift) + 0.0 for j in range(k + 1)])
            V, (t,) = gadgets._class_parallelepiped(by_class, shift, p).expand()
            (x,) = integer_grid([(0, 1)] * k, 2**k)
            assert same_bits(t, want[x.sum(axis=1)]), (k, p)
            assert same_bits(g.t, t / pnorm(V @ ones - t, p)), (k, p)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_gap_never_below_the_walks(self, k):
        walked = 0
        for p in P_GRID + [20.0, 50.0, 100.0, 233.5] + (BUILD_P if k == 10 else []):
            floor = walk_gap(k, p)
            if floor is not None:
                assert isolating(k, p).eps >= floor, (k, p)
                walked += 1
        assert walked >= 20

    @pytest.mark.parametrize("p", [1.999996, 3.999954, 5.999916])
    def test_near_even_p_is_refused_fast(self, p):
        # within 1e-4 of an even integer no candidate clears NONSINGULAR_RATIO
        start = time.perf_counter()
        with pytest.raises(NumericDegeneracyError):
            gadgets.find_isolating_parallelepiped(10, p)
        assert time.perf_counter() - start < 0.01

    def test_overflowing_candidates_drop_out(self):
        # at k = 10, p = 300 the walk's 10.5 gives 20.5^300, past the float
        # range: it drops out, and a smaller shift builds
        assert not distmatrix.ShiftBatch(10, 300.0, [10.5]).finite.any()
        assert 10.5 not in gadgets._shift_ranking(10, 300.0)
        assert gadgets.verify_parallelepiped(gadgets.find_isolating_parallelepiped(10, 300.0)).passed
        # k = 1, p = 448: the walk's shift fell back to eps 0.0015
        assert gadgets.find_isolating_parallelepiped(1, 448.0).eps >= 1.0

    def test_failing_shift_goes_to_the_next(self, monkeypatch):
        # a ranked shift whose gadget does not verify gives way to the next
        ranking = gadgets._shift_ranking(4, 3.0)
        real = gadgets.verify_parallelepiped

        def fail_first(g, *args):
            report = real(g, *args)
            if g.meta["shift"] == ranking[0]:
                report.conditions.append(gadgets.Condition("forced", False, 1.0))
            return report

        monkeypatch.setattr(gadgets, "verify_parallelepiped", fail_first)
        assert gadgets.find_isolating_parallelepiped(4, 3.0).meta["shift"] == ranking[1]
        monkeypatch.setattr(gadgets, "_shift_ranking", lambda k, q: ranking[:1])
        with pytest.raises(NumericDegeneracyError, match="no ranked shift builds"):
            gadgets.find_isolating_parallelepiped(4, 3.0)

    def test_kernel_gaps_do_not_reach_the_bytes(self, monkeypatch):
        # halving every ranked gap keeps the order, and the bytes
        cases = [(10, 3.0), (3, 3.0), (4, 3.0), (10, 2.5), (1, 448.0)]
        want = [serialize.dumps(serialize.gadget_to_json(gadgets.find_isolating_parallelepiped(*c))) for c in cases]
        real, calls = distmatrix.ShiftBatch.gaps, []
        halved = lambda self, index: calls.append(1) or 0.5 * real(self, index)  # noqa: E731
        monkeypatch.setattr(distmatrix.ShiftBatch, "gaps", halved)
        got = [serialize.dumps(serialize.gadget_to_json(gadgets.find_isolating_parallelepiped(*c))) for c in cases]
        assert calls and got == want


class TestSolveWeights:
    def test_k1_hand_solve(self):
        # the bump sits on the all-minus vertex, index 0
        by_class, eps = gadgets.solve_weights(1, 1.0, 1.5)
        assert by_class == pytest.approx([0.0, 2.0])
        assert eps == pytest.approx(4.0)
        H = distmatrix.distance_matrix(1, 1.0, 1.5)
        assert H @ spread(by_class) == pytest.approx([5.0, 1.0])

    def test_k2_residual(self):
        shift = gadgets.find_shift(2, 2.5)
        by_class, eps = gadgets.solve_weights(2, 2.5, shift)
        assert by_class.shape == (3,) and by_class.min() >= 0.0
        assert eps > 0.0
        H = distmatrix.distance_matrix(2, 2.5, shift)
        want = np.ones(4)
        want[0] += eps
        assert np.abs(H @ spread(by_class) - want).max() <= 1e-9

    def test_singular_matrix_rejected(self):
        with pytest.raises(InvalidInputError):
            gadgets.solve_weights(2, 1.0, 2.5)

    @pytest.mark.parametrize("k,p", [(2, 358.0), (3, 379.0), (4, 320.5), (6, 275.5), (8, 253.0), (10, 234.0)])
    def test_gap_near_the_float_range(self, k, p):
        # at the walk's shift k + 1/2 the gap tends to 4 / (4k - 3) for large
        # p, to 1e-9 by p = 201 at k <= 10; at these p, a = H^-1 e_0 is near
        # the subnormal range
        shift = reference_shift(k, p)
        assert shift == k + 0.5
        assert gadgets._isolating_at(k, p, shift).eps == pytest.approx(4 / (4 * k - 3), rel=1e-9)

    def test_overflowing_gap_falls_back_to_smaller_one(self):
        # at k = 1, p = 448 the largest gap 1 / (lambda |min a|) at the
        # walk's shift 1.5 overflows
        shift = reference_shift(1, 448.0)
        by_class, eps = gadgets.solve_weights(1, 448.0, shift)
        assert math.isfinite(eps) and by_class.min() > 0.0
        assert gadgets._isolating_at(1, 448.0, shift).eps > 0.0

    def test_overflowing_weights_fall_back_to_smaller_gap(self):
        # at k = 1, p = 441 the largest gap 1 / (lambda |min a|) is finite,
        # about 1.8e308, but eps * a overflows: the smaller gap is taken
        # without a floating-point warning, as at p = 441.5
        # (at the walk's shift 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shift = reference_shift(1, 441.0)
            by_class, eps = gadgets.solve_weights(1, 441.0, shift)
            g = gadgets.find_isolating_parallelepiped(1, 441.0)
        assert np.isfinite(by_class).all() and by_class.min() > 0.0
        assert math.isfinite(eps) and g.eps > 0.0
        assert gadgets.verify_parallelepiped(g).passed

    @pytest.mark.parametrize("k", range(1, 11))
    def test_matches_dense_solve(self, k):
        # odd integers p < k take the interior shifts, the rest shift past k;
        # p >> k is where the Krawtchouk sum for H^-1 e_0 cancels
        solved = 0
        for p in (1.0, 1.5, 2.5, 3.0, 3.25, 5.0, 7.5, 9.0, 12.0, 30.0, 100.0):
            try:
                shift = gadgets.find_shift(k, p)
            except (UnsupportedParametersError, NumericDegeneracyError):
                continue
            by_class, eps = gadgets.solve_weights(k, p, shift)
            want, want_eps = dense_weights(k, p, shift)
            assert np.abs(spread(by_class) - want).max() <= 1e-9 * np.abs(want).max(), (k, p)
            assert eps == pytest.approx(want_eps, rel=1e-9), (k, p)
            solved += 1
        assert solved >= 6

    @pytest.mark.parametrize("k,p", [(1, 1.5), (2, 3.0), (3, 3.0), (4, 2.5), (5, 3.0), (6, 1.0), (8, 7.5), (2, 50.0)])
    def test_constant_on_hamming_classes(self, k, p):
        shift = gadgets.find_shift(k, p)
        by_class, _ = gadgets.solve_weights(k, p, shift)
        # one weight per class, and the dense solve is constant on each
        # class up to its rounding
        assert by_class.shape == (k + 1,)
        (x,) = integer_grid([(0, 1)] * k, 2**k)
        classes = x.sum(axis=1)
        want, _ = dense_weights(k, p, shift)
        for j in range(k + 1):
            assert np.abs(want[classes == j] - by_class[j]).max() <= 1e-9 * np.abs(want).max(), j
        if want.min() <= 1e-12 * want.max():
            # the clipped class is exactly zero, not rounding noise
            assert by_class[classes[want.argmin()]] == 0.0

    def test_zeroed_class_gives_zero_rows(self):
        # both vertices with one +1 coordinate carry weight 0, so both rows
        # are exactly 0 in V and t
        g = gadgets.find_isolating_parallelepiped(2, 3.0)
        zero = ~g.V.any(axis=1)
        assert zero.tolist() == [False, True, True, False]
        assert g.t[zero].tolist() == [0.0, 0.0]
        assert np.abs(g.V[~zero]).min() > 0.1

    def test_no_dense_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the 2^k x 2^k matrix was built")

        monkeypatch.setattr(distmatrix, "distance_matrix", refuse)
        assert gadgets.verify_parallelepiped(gadgets.find_isolating_parallelepiped(10, 3.0)).passed

    @pytest.mark.parametrize("k,p,eps", [(1, 30.0, 4.0), (2, 50.0, 0.8), (3, 100.0, 4 / 9)])
    def test_p_far_above_k_builds(self, k, p, eps):
        # the gaps the dense solve gives at the walk's shift; with the
        # Krawtchouk sum for H^-1 e_0 the (1, 30) gap shrinks to 0.023 and
        # the other two gadgets fail verification
        assert gadgets._isolating_at(k, p, reference_shift(k, p)).eps == pytest.approx(eps, rel=1e-6)

    def test_k14_within_budget(self):
        start = time.perf_counter()
        g = gadgets.find_isolating_parallelepiped(14, 3.0)
        assert time.perf_counter() - start < 10.0
        assert g.d == 2**14 and g.eps > 0.0


class TestParallelepipedAssembly:
    def test_k1_rows_and_distances(self):
        V, (t,) = gadgets._class_parallelepiped(np.array([0.0, 2.0]), 1.5, 1.0).expand()
        assert V.tolist() == [[-0.0], [4.0]]
        assert t == pytest.approx([0.0, 5.0])
        assert pnorm(V @ [1.0] - t, 1) == pytest.approx(1.0)
        assert pnorm(t, 1) == pytest.approx(5.0)

    def test_uniform_weights_give_constant_distance(self):
        lam = distmatrix.eigen_report(2, 2.0, 2.5).by_size[0]
        V, (t,) = gadgets._class_parallelepiped(np.ones(3), 2.5, 2.0).expand()
        for z in product((0, 1), repeat=2):
            assert pnorm(V @ np.array(z, float) - t, 2) ** 2 == pytest.approx(lam)

    def test_binary_coords_affine_identity(self):
        # z = 0 is the all-minus vertex y = -1 of the +-1 cube, z = 1 the
        # all-plus one: ||V z - t|| = ||V_pm (2z - 1) - t_pm|| with row u of
        # V_pm w^(1/p) u^T and its target w^(1/p) shift
        by_class, shift, q = np.array([0.5, 0.0, 2.0, 1.5]), 3.25, 2.5
        V, (t,) = gadgets._class_parallelepiped(by_class, shift, q).expand()
        (x,) = integer_grid([(0, 1)] * 3, 8)
        scale = spread(by_class) ** (1.0 / q)
        V_pm, t_pm = scale[:, None] * (2.0 * x - 1.0), shift * scale
        for z in x:
            y = 2.0 * z - 1.0
            assert pnorm(V @ z - t, q) == pytest.approx(pnorm(V_pm @ y - t_pm, q), rel=1e-12)

    @pytest.mark.parametrize("k", range(1, 17))
    def test_isolating_matches_reference(self, k):
        # every gadget the solve gives, assembled to the bit as the
        # vertex-by-vertex reference does it
        built = 0
        for p in (1.0, 1.5, 2.5, 3.0, 3.25, 5.0, 7.5, 9.0, 11.5, 20.0, 50.0, 100.0, 300.0, 448.0):
            try:
                shift = gadgets.find_shift(k, p)
                by_class, _ = gadgets.solve_weights(k, p, shift)
            except (UnsupportedParametersError, NumericDegeneracyError):
                continue
            V, (t,) = gadgets._class_parallelepiped(by_class, shift, p).expand()
            want_V, want_t = reference_assembly(by_class, shift, p)
            assert same_bits(V, want_V) and same_bits(t, want_t), (k, p)
            built += 1
        assert built >= 5

    @pytest.mark.parametrize("k", range(3, 13))
    def test_parity_matches_reference(self, k):
        # the parity gadget's class weights 1 +- (-1)^(k - j), for both bits
        shift = k % 2
        for p in (1.0, 1.5, 2.5, 3.0, 5.0, 7.5, 11.5):
            if p >= k:
                continue
            for sign in (1, -1):
                by_class = 1.0 + sign * (-1.0) ** (k - np.arange(k + 1))
                V, (t,) = gadgets._class_parallelepiped(by_class, shift, p).expand()
                want_V, want_t = reference_assembly(by_class, shift, p)
                assert same_bits(V, want_V) and same_bits(t, want_t), (k, p, sign)

    def test_builders_list_the_cube_once(self, monkeypatch):
        # each k's cube is listed at most once per process
        calls = []
        grid = gadgets.integer_grid

        def counted(ranges, chunk_size):
            calls.append(len(ranges))
            return grid(ranges, chunk_size)

        gadgets._cube.cache_clear()
        monkeypatch.setattr(gadgets, "integer_grid", counted)
        gadgets.find_isolating_parallelepiped(10, 3.0)
        gadgets.find_isolating_parallelepiped(10, 4.5)
        gadgets.parity_gadget(9, 2.5, 1)
        assert calls == [10, 9]
        assert not any(a.flags.writeable for a in gadgets._cube(10))


class TestFindIsolating:
    def test_k2_p1_distance_pattern(self):
        g = gadgets.find_isolating_parallelepiped(2, 1.0)
        for z, d in distances(g.V, g.t, g.p, 2):
            if any(z):
                assert d == pytest.approx(1.0, abs=1e-12)
            else:
                assert d > 1.0 + 1e-6
        assert gadgets.verify_parallelepiped(g).passed

    def test_k3_fractional_p(self):
        g = gadgets.find_isolating_parallelepiped(3, 2.5)
        assert g.eps > 0.0
        assert gadgets.verify_parallelepiped(g).passed

    def test_even_p_below_k_refused(self):
        with pytest.raises(UnsupportedParametersError):
            gadgets.find_isolating_parallelepiped(3, 2.0)
        with pytest.raises(UnsupportedParametersError):
            gadgets.find_isolating_parallelepiped(5, 4.0)

    @pytest.mark.parametrize("k,p", [(2, 1.0), (4, 1.0), (4, 3.0), (2, 3.5), (3, math.pi)])
    def test_characterization_region(self, k, p):
        g = gadgets.find_isolating_parallelepiped(k, p)
        assert gadgets.verify_parallelepiped(g).passed


class TestParityGadget:
    def test_k3_p1_exact_values(self):
        g = gadgets.parity_gadget(3, 1.0, 0)
        assert g.meta["lambda"] == pytest.approx(12.0)
        assert g.meta["lambda_par"] == pytest.approx(4.0)
        assert g.meta["levels"] == pytest.approx((8.0, 16.0))
        assert g.eps == pytest.approx(1.0)

    def test_k3_p1_bound(self):
        bound = gadgets.parity_eps_lower_bound(3, 1.0)
        assert bound == pytest.approx(2.0 / (3.0 * math.e**2 * math.pi**2), rel=1e-12)
        assert bound == pytest.approx(0.00914, rel=1e-2)
        assert gadgets.parity_gadget(3, 1.0, 0).eps >= bound

    def test_even_p_degenerate(self):
        with pytest.raises(DegenerateConstructionError):
            gadgets.parity_gadget(4, 2.0, 0)

    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("k,p", [(3, 1.0), (4, 1.5), (5, 2.5), (4, 3.0), (6, 1.0)])
    def test_level_assignment_matches_parity(self, k, p, bit):
        g = gadgets.parity_gadget(k, p, bit)
        for z, d in distances(g.V, g.t, g.p, k):
            if sum(z) % 2 == bit:
                assert d == pytest.approx(1.0, abs=1e-9)
            else:
                assert d == pytest.approx(1.0 + g.eps, rel=1e-9)

    @pytest.mark.parametrize("k,p", [(3, 1.0), (4, 1.5), (5, 2.5), (6, 3.0), (8, 1.5)])
    def test_eps_meets_guarantee(self, k, p):
        g = gadgets.parity_gadget(k, p, 0)
        assert g.eps >= gadgets.parity_eps_lower_bound(k, p)


class TestLatticeExtension:
    def test_closed_form_example(self):
        g = gadgets.parity_gadget(3, 1.0, 0)
        assert g.eps == pytest.approx(1.0)
        lat = gadgets.to_isolating_lattice(g)
        assert lat.meta["mu"] == pytest.approx(1.0)
        assert lat.eps == pytest.approx(0.25)  # = eps / (1 + k mu) exactly at p = 1
        assert gadgets.verify_parallelepiped(lat).passed

    def test_box_condition_holds_after_extension(self):
        lat = gadgets.to_isolating_lattice(gadgets.parity_gadget(3, 1.0, 0))
        report = oracle.verify_lattice_condition(lat, box_radius=3)
        assert report.passed

    def test_raw_gadget_can_fail_box_condition(self):
        # the k=1 gadget puts z=2 at distance 3 < 1 + eps = 5
        g = gadgets.find_isolating_parallelepiped(1, 1.0)
        report = oracle.verify_lattice_condition(g, box_radius=3)
        assert not report.passed
        assert report.conditions[0].witness == (2,)
        assert report.conditions[0].residual == pytest.approx(2.0)

    def test_witness_is_first_tie_in_order(self):
        # the gadget is symmetric under permuting coordinates, so the points
        # with one coordinate at 2 tie; the first in mixed-radix order is
        # named, not whichever rounding puts lowest
        lat = gadgets.to_isolating_lattice(gadgets.find_isolating_parallelepiped(6, 3.0))
        report = oracle.verify_lattice_condition(lat)
        assert report.passed
        assert report.conditions[0].witness == (0, 0, 0, 0, 0, 2)

    def test_k7_check_within_budget(self):
        # the dense gadget rows are summed inside the branch and bound,
        # which the scaled identity rows bound; 8^7 box points
        lat = gadgets.to_isolating_lattice(gadgets.find_isolating_parallelepiped(7, 3.0))
        start = time.perf_counter()
        report = oracle.verify_lattice_condition(lat)
        assert time.perf_counter() - start < 0.3
        assert report.passed
        assert report.conditions[0].witness == (0, 0, 0, 0, 0, 0, 2)

    def test_minimal_box_radius(self):
        lat = gadgets.to_isolating_lattice(gadgets.parity_gadget(3, 1.0, 0))
        assert oracle.verify_lattice_condition(lat, box_radius=1).passed
        with pytest.raises(InvalidInputError):
            oracle.verify_lattice_condition(lat, box_radius=0)

    @pytest.mark.parametrize("k,p", [(3, 1.0), (2, 1.5), (4, 2.5), (3, 3.5)])
    def test_gap_shrink_bound(self, k, p):
        g = gadgets.find_isolating_parallelepiped(k, p)
        lat = gadgets.to_isolating_lattice(g)
        mu = lat.meta["mu"]
        assert lat.eps >= g.eps / (1.0 + k * mu) - 1e-12

    def test_zero_gap_rejected(self):
        g = gadgets.find_isolating_parallelepiped(2, 1.5)
        g.eps = 0.0
        with pytest.raises(InvalidInputError):
            gadgets.to_isolating_lattice(g)

    @pytest.mark.parametrize("k", range(3, 9))
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.5, 3.0])
    def test_parity_lattice_chain_bound(self, k, p):
        # the lattice extension of a parity gadget keeps
        # eps >= |sin(pi p/2)| / (2 p^2 k) * (2p / (e^2 pi^2 k))^((p+1)/2)
        if not p < k:
            pytest.skip("needs p < k")
        lat = gadgets.to_isolating_lattice(gadgets.parity_gadget(k, p, 0))
        bound = gadgets.parity_eps_lower_bound(k, p) / (2.0 * k)
        assert lat.eps >= bound


class TestOnOff:
    def test_from_arity3_gadget(self):
        g = gadgets.find_isolating_parallelepiped(3, 2.5)
        oo = gadgets.to_on_off(g)
        assert oo.k == 2
        assert gadgets.verify_on_off(oo).passed

    def test_off_target_equidistant(self):
        oo = gadgets.to_on_off(gadgets.find_isolating_parallelepiped(3, 2.5))
        for x in product((0, 1), repeat=2):
            d = pnorm(oo.V @ np.array(x, float) - oo.t_off, oo.p)
            assert d == pytest.approx(1.0, abs=1e-9)

    def test_round_trip(self):
        # columns v_1..v_k plus v_{k+1} = t_on - t_off rebuild the (k+1)-ary
        # isolating parallelepiped with target t_on
        g = gadgets.find_isolating_parallelepiped(3, 2.5)
        oo = gadgets.to_on_off(g)
        V = np.hstack([oo.V, (oo.t_on - oo.t_off)[:, None]])
        back = gadgets.IsolatingGadget(p=oo.p, k=oo.k + 1, V=V, t=oo.t_on, eps=pnorm(oo.t_on, oo.p) - 1.0)
        # t - (t - v) gives v back up to one rounding
        np.testing.assert_allclose(back.V, g.V, rtol=0, atol=1e-15)
        assert np.array_equal(back.t, g.t)
        assert back.eps == pytest.approx(g.eps, rel=1e-9)
        assert gadgets.verify_parallelepiped(back).passed


class TestVerify:
    def test_perturbation_fails_with_witness(self):
        g = gadgets.find_isolating_parallelepiped(2, 1.5)
        # a builder's arrays are read-only, so the perturbation is a copy's
        g = gadgets.IsolatingGadget(g.p, g.k, g.V, g.t + np.eye(g.d)[0] * 1e-3, g.eps)
        report = gadgets.verify_parallelepiped(g)
        assert not report.passed
        bad = report.failures()
        assert bad and bad[0].witness is not None

    def test_passed_follows_conditions(self):
        ok, bad = gadgets.Condition("a", True, 0.0), gadgets.Condition("b", False, 1.0)
        report = gadgets.VerificationReport([ok], DEFAULT_TOL)
        assert report.passed and report.to_json()["passed"] is True
        report.conditions.append(bad)
        assert not report.passed and report.to_json()["passed"] is False
        assert report.failures() == [bad]
        assert gadgets.VerificationReport([], DEFAULT_TOL).passed

    def test_degenerate_rank_one_gadget_passes(self):
        # k identical columns (1,1)/k with target (1/2, k+1/2)/k: the diagonal
        # vertices (w, w)/k all sit at distance 1, the origin at 1 + 1/k
        k = 4
        V = np.ones((2, k)) / k
        t = np.array([0.5, k + 0.5]) / k
        g = gadgets.IsolatingGadget(p=1.0, k=k, V=V, t=t, eps=1.0 / k, kind=gadgets.KIND_ISOLATING)
        assert gadgets.verify_parallelepiped(g).passed

    def test_lattice_kind_requires_full_rank(self):
        V = np.ones((2, 2))
        t = np.array([0.5, 2.5])
        g = gadgets.IsolatingGadget(
            p=1.0,
            k=2,
            V=V,
            t=t,
            eps=0.5,
            kind=gadgets.KIND_LATTICE,
            constraint=gadgets.clause_constraint(),
        )
        report = gadgets.verify_parallelepiped(g)
        assert any(c.name == "full-column-rank" and not c.passed for c in report.conditions)

    @pytest.mark.parametrize("eps", [math.inf, math.nan, -math.inf])
    def test_eps_that_is_not_finite_fails_the_gap(self, eps):
        # at eps = inf the far level and its allowance are infinite, so the
        # far-vertex condition passes whatever the distances: the gap must not
        g = dataclasses.replace(gadgets.parity_gadget(4, 3.0, 0), eps=eps)
        on_off = dataclasses.replace(gadgets.to_on_off(gadgets.find_isolating_parallelepiped(3, 3.0)), eps=eps)
        for report in (gadgets.verify_parallelepiped(g), gadgets.verify_on_off(on_off)):
            assert not report.passed
            assert [c.name for c in report.failures()][-1] == "positive-gap"

    @pytest.mark.parametrize("k", [3, 5, 8, 10])
    def test_builder_lattice_rank_needs_no_svd(self, monkeypatch, k):
        # the scaled identity rows that to_isolating_lattice appends certify
        # the rank, so the check runs no SVD
        lattices = [gadgets.to_isolating_lattice(gadgets.find_isolating_parallelepiped(k, 3.0))]
        if k <= 5:
            lattices.append(gadgets.to_isolating_lattice(gadgets.parity_gadget(k, 1.5, 1)))
        monkeypatch.setattr(np.linalg, "matrix_rank", lambda M: pytest.fail("ran an SVD"))
        for g in lattices:
            (rank,) = [c for c in gadgets.verify_parallelepiped(g).conditions if c.name == "full-column-rank"]
            assert rank.passed and rank.residual == 0.0


def toward(t, point, step, p):
    """t moved by `step` in the p-norm straight toward `point`: that point
    comes exactly `step` closer, and no other point moves by more."""
    return t + step * (point - t) / pnorm(point - t, p)


class TestOnOffFailures:
    """Moving a target by 1e-4 fails the on-off check, witnessed by the
    vertex it moved toward."""

    @pytest.fixture(scope="class")
    def source(self):
        return gadgets.find_isolating_parallelepiped(4, 3.0)

    @pytest.fixture(scope="class")
    def onoff(self, source):
        return gadgets.to_on_off(source)

    def moved(self, oo, target, point):
        """oo with `target` ("t_on" or "t_off") moved 1e-4 toward `point`."""
        targets = {"t_on": oo.t_on, "t_off": oo.t_off}
        targets[target] = toward(targets[target], point, 1e-4, oo.p)
        return gadgets.OnOffGadget(oo.p, oo.k, oo.V, eps=oo.eps, **targets)

    def failing(self, oo):
        report = gadgets.verify_on_off(oo)
        assert not report.passed
        return {c.name: c for c in report.failures()}

    @pytest.mark.parametrize("x", [(0, 0, 0), (0, 1, 1), (1, 0, 1)])
    def test_off_target_moved_toward_a_vertex(self, onoff, x):
        vertex = onoff.V @ np.array(x, dtype=float)
        bad = self.failing(self.moved(onoff, "t_off", vertex))
        assert list(bad) == ["off-target-all-at-1"]
        assert bad["off-target-all-at-1"].witness == x
        assert bad["off-target-all-at-1"].residual == pytest.approx(1e-4, rel=1e-6)

    @pytest.mark.parametrize("x", [(0, 0, 1), (1, 1, 0)])
    def test_on_target_moved_toward_a_nonzero_vertex(self, onoff, x):
        vertex = onoff.V @ np.array(x, dtype=float)
        bad = self.failing(self.moved(onoff, "t_on", vertex))
        assert bad["on-target-nonzero-at-1"].witness == x
        assert bad["on-target-nonzero-at-1"].residual == pytest.approx(1e-4, rel=1e-6)
        assert "off-target-all-at-1" not in bad

    def test_on_target_moved_toward_the_origin(self, onoff):
        bad = self.failing(self.moved(onoff, "t_on", np.zeros(onoff.d)))
        origin = bad["on-target-origin-isolated"]
        assert origin.witness is None
        assert origin.residual == pytest.approx(1e-4, rel=1e-6)

    def test_conversion_refuses_a_moved_target(self, source):
        moved = gadgets.IsolatingGadget(source.p, source.k, source.V, source.t + 1e-4, source.eps)
        with pytest.raises(VerificationError):
            gadgets.to_on_off(moved)


# -- per-vertex reference for the vectorised vertex checks


def satisfied(gadget, x) -> bool:
    """Whether vertex x belongs to the close level, one vertex at a time."""
    if gadget.kind == gadgets.KIND_ISOLATING:
        return any(x)
    c = gadget.constraint
    if c["type"] == "parity":
        return sum(x) % 2 == c["bit"]
    negated = set(c["negated"])
    return any((x[s] == 0) if (s + 1) in negated else (x[s] == 1) for s in range(len(x)))


def level_reference(name, pairs, level, tol):
    """A level condition from (vertex, distance) pairs walked in order: the
    first vertex with the largest |distance - level| is the witness.  Also
    returns every vertex's residual."""
    res, wit, by_vertex = -1.0, None, {}
    for x, d in pairs:
        by_vertex[x] = r = abs(d - level)
        if r > res:
            res, wit = r, x
    return name, res <= tol.allowance(level), max(res, 0.0), wit, by_vertex


def naive_parallelepiped(g, tol=DEFAULT_TOL):
    pairs = distances(g.V, g.t, g.p, g.k)
    close = [(x, d) for x, d in pairs if satisfied(g, x)]
    far = [(x, d) for x, d in pairs if not satisfied(g, x)]
    return [
        level_reference("close-vertices-at-1", close, 1.0, tol),
        level_reference("far-vertices-at-1+eps", far, 1.0 + g.eps, tol),
    ]


def naive_on_off(g, tol=DEFAULT_TOL):
    origin = abs(pnorm(g.t_on, g.p) - (1.0 + g.eps))
    nonzero = [(x, d) for x, d in distances(g.V, g.t_on, g.p, g.k) if any(x)]
    return [
        level_reference("on-target-nonzero-at-1", nonzero, 1.0, tol),
        ("on-target-origin-isolated", origin <= tol.allowance(1.0 + g.eps), origin, None, {}),
        level_reference("off-target-all-at-1", distances(g.V, g.t_off, g.p, g.k), 1.0, tol),
    ]


def targets_of(g):
    return [g.t_on, g.t_off] if isinstance(g, gadgets.OnOffGadget) else [g.t]


def by_popcount(g) -> bool:
    """Whether g's close level is a union of Hamming classes."""
    if isinstance(g, gadgets.OnOffGadget) or g.kind == gadgets.KIND_ISOLATING:
        return True
    return not g.constraint.get("negated")


def symmetric_rows(g) -> bool:
    """Whether every permutation of V's columns maps the rows of [V | targets]
    onto themselves, tried one permutation at a time."""
    M = np.column_stack([g.V, *targets_of(g)]) + 0.0  # -0 counts as 0
    rows = sorted(map(tuple, M.tolist()))
    tail = list(range(g.k, M.shape[1]))
    return all(
        sorted(map(tuple, M[:, list(perm) + tail].tolist())) == rows
        for perm in permutations(range(g.k))
    )


def assert_matches(report, reference, tail):
    assert [c.name for c in report.conditions] == [r[0] for r in reference] + tail
    for cond, (name, passed, residual, witness, by_vertex) in zip(report.conditions, reference):
        assert cond.passed == passed, name
        assert cond.residual == pytest.approx(residual, rel=0, abs=1e-12), name
        if not passed:
            # the reference's witness, unless rounding reorders residuals that
            # agree to 1e-12: then any of those tied vertices is one
            assert cond.witness == witness or by_vertex[cond.witness] >= residual - 1e-12, name


@functools.lru_cache(maxsize=None)
def isolating(k, p):
    return gadgets.find_isolating_parallelepiped(k, p)


@functools.lru_cache(maxsize=None)
def parity(k, p, bit):
    return gadgets.parity_gadget(k, p, bit)


def reflected(g, negated):
    """The isolating geometry re-expressed so that x_s -> 1 - x_s at the
    negated positions: a two-level gadget for the clause with those negations."""
    cols = [s - 1 for s in negated]
    V = g.V.copy()
    V[:, cols] *= -1.0
    t = g.t - g.V[:, cols].sum(axis=1)
    clause = gadgets.clause_constraint(negated)
    return gadgets.IsolatingGadget(g.p, g.k, V, t, g.eps, gadgets.KIND_TWO_LEVEL, clause)


@st.composite
def vertex_case(draw):
    """A gadget of every kind for k in 1..6 (parity geometry exists only for
    k >= 3; below that the isolating geometry carries the parity label), a
    noise scale for its targets, a noise seed and a chunk size of 1-3 rows."""
    k = draw(st.integers(1, 6))
    p = draw(st.sampled_from([1.5, 2.5, 3.0]))
    kind = draw(st.sampled_from(["isolating", "parity", "clause", "lattice", "on-off"]))
    if kind == "on-off":
        g = gadgets.to_on_off(isolating(k + 1, p))
    elif kind == "isolating":
        g = isolating(k, p)
    elif kind == "clause" or (kind == "lattice" and draw(st.booleans())):
        negated = draw(st.sets(st.integers(1, k)))
        g = reflected(isolating(k, p), sorted(negated))
    else:
        bit = draw(st.integers(0, 1))
        if k >= 3:
            g = parity(k, draw(st.sampled_from([1.0, 1.5])), bit)
        else:
            base, label = isolating(k, p), gadgets.parity_constraint(bit)
            g = gadgets.IsolatingGadget(p, k, base.V, base.t, base.eps, gadgets.KIND_TWO_LEVEL, label)
    if kind == "lattice":
        g = gadgets.to_isolating_lattice(g)
    scale = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1]))
    return g, scale, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 3))


class TestVertexWalk:
    @settings(max_examples=120, deadline=None)
    @given(case=vertex_case())
    def test_matches_per_vertex_reference(self, case):
        g, scale, seed, chunk = case
        rng = np.random.default_rng(seed)
        walked = []

        def grid(r, n_rows):
            assert n_rows == chunk_rows(g.V.shape[0])
            for rows in integer_grid(r, chunk_size=chunk):
                walked.append(len(rows))
                yield rows

        gadgets._cube(g.k)  # the class form lists the cube once; that is no walk
        if isinstance(g, gadgets.OnOffGadget):
            t_on = g.t_on + scale * rng.standard_normal(g.d)
            t_off = g.t_off + scale * rng.standard_normal(g.d)
            g = gadgets.OnOffGadget(g.p, g.k, g.V, t_on, t_off, g.eps)
            with mock.patch.object(gadgets, "integer_grid", grid):
                report = gadgets.verify_on_off(g)
            assert_matches(report, naive_on_off(g), ["positive-gap"])
        else:
            t = g.t + scale * rng.standard_normal(g.d)
            g = gadgets.IsolatingGadget(g.p, g.k, g.V, t, g.eps, g.kind, g.constraint)
            with mock.patch.object(gadgets, "integer_grid", grid):
                report = gadgets.verify_parallelepiped(g)
            tail = ["positive-gap"] + (["full-column-rank"] if g.kind == gadgets.KIND_LATTICE else [])
            assert_matches(report, naive_parallelepiped(g), tail)
        # noise breaks the symmetry, unless it lands only where permutations
        # cannot see it (at k = 1, or on a zero-weight row); a negated clause
        # splits the Hamming classes: both take the full walk
        certified = by_popcount(g) and (scale == 0.0 or symmetric_rows(g))
        assert report.check == (gadgets.CHECK_CLASSES if certified else gadgets.CHECK_VERTICES)
        assert sum(walked) == (0 if certified else 2**g.k) and max(walked, default=0) <= chunk

    def test_exact_ties_go_to_the_first_vertex(self):
        # distances are the Hamming weights: (0, 0) and (1, 1) tie on the close
        # level, (0, 1) and (1, 0) on the far one
        g = gadgets.IsolatingGadget(
            1.0, 2, np.eye(2), np.zeros(2), 0.5, gadgets.KIND_TWO_LEVEL, gadgets.parity_constraint(0)
        )
        close, far = gadgets.verify_parallelepiped(g).conditions[:2]
        assert (close.passed, close.residual, close.witness) == (False, 1.0, (0, 0))
        assert (far.passed, far.residual, far.witness) == (False, 0.5, (0, 1))


def with_arrays(g, V, targets):
    if isinstance(g, gadgets.OnOffGadget):
        return gadgets.OnOffGadget(g.p, g.k, V, *targets, g.eps)
    return gadgets.IsolatingGadget(g.p, g.k, V, targets[0], g.eps, g.kind, g.constraint)


def verifier(g):
    return gadgets.verify_on_off if isinstance(g, gadgets.OnOffGadget) else gadgets.verify_parallelepiped


def reference_symmetric(V, targets) -> bool:
    """The two-permutation certificate: a transposition and a k-cycle, which
    generate all permutations, each first tried as the row bijection it
    induces on integer_grid order (row i: vertex i // r, low index i % r),
    on float64 bits with -0 taken as 0, and when that fails by comparing
    the sorted rows of [V | targets] under each (`_row_multiset`)."""
    d, k = V.shape
    perms = ((1, 0, *range(2, k)), (*range(1, k), 0)) if k > 1 else ()
    if d % 2**k == 0:
        shifts = np.arange(k - 1, -1, -1)
        bits = (np.arange(2**k)[:, None] >> shifts) & 1
        v_bits, *t_bits = [(a + 0.0).view(np.uint64) for a in (V, *targets)]
        for perm in perms:
            top = (bits[:, list(perm)] << shifts).sum(axis=1)
            rows = (top[:, None] * (d >> k) + np.arange(d >> k)).ravel()
            if not (np.array_equal(v_bits[:, list(perm)], v_bits[rows])
                    and all(np.array_equal(b, b[rows]) for b in t_bits)):
                break
        else:
            return True
    M = np.column_stack([V, *targets]) + 0.0
    tail = list(range(k, M.shape[1]))
    rows = gadgets._row_multiset(M)
    return all(np.array_equal(gadgets._row_multiset(M[:, [*perm, *tail]]), rows) for perm in perms)


CERT_P = (1.0, 1.5, 2.5, 3.0, 4.75, 7.9)


def certificate_cases():
    """Isolating gadgets at k = 1..12 on CERT_P, parity gadgets at k = 3..12
    of both bits, and the on-off gadgets and lattices of both."""
    for k in range(1, 13):
        for p in CERT_P:
            if not even_below(k, p):
                g = isolating(k, p)
                yield g
                yield gadgets.to_isolating_lattice(g)
                if k >= 2:
                    yield gadgets.to_on_off(g)
            if k >= 3 and p < k and p != 2.0:
                for bit in (0, 1):
                    yield parity(k, p, bit)
                    yield gadgets.to_isolating_lattice(parity(k, p, bit))


def perturbed(g, rng) -> dict:
    """Copies of g's V and targets, by what changed: one entry moved by
    1 ulp, one zero's sign flipped (when g holds a zero), and two rows of
    differing entries swapped."""
    M = np.column_stack([g.V, *targets_of(g)])
    i, j = rng.integers(M.shape[0]), rng.integers(M.shape[1])
    out = {"ulp": M.copy()}
    out["ulp"][i, j] = np.nextafter(M[i, j], np.inf)
    zeros = np.argwhere(M == 0.0)
    if zeros.size:
        i, j = zeros[rng.integers(len(zeros))]
        out["zero-sign"] = M.copy()
        out["zero-sign"][i, j] = -M[i, j]
    a, b = rng.choice(M.shape[0], 2, replace=False)
    while np.array_equal(M[a], M[b]):
        a, b = rng.choice(M.shape[0], 2, replace=False)
    out["swap"] = M.copy()
    out["swap"][[a, b]] = M[[b, a]]
    return {name: (A[:, : g.k], list(A[:, g.k :].T)) for name, A in out.items()}


@st.composite
def symmetric_case(draw):
    """A noise-free gadget of every kind whose close level is a union of
    Hamming classes, for k in 1..8, with its columns permuted or not (a
    permutation leaves no class form, so its sorted rows certify it) and
    its eps scaled (by 0.5 the far level fails)."""
    k = draw(st.integers(1, 8))
    p = draw(st.sampled_from([1.5, 2.5, 3.0]))
    kind = draw(st.sampled_from(["isolating", "parity", "clause", "lattice", "on-off"]))
    if kind == "on-off":
        g = gadgets.to_on_off(isolating(k + 1, p))
    elif kind == "isolating":
        g = isolating(k, p)
    elif kind == "parity" and k >= 3:
        g = parity(k, draw(st.sampled_from([q for q in (1.0, 1.5, 2.5) if q < k])), draw(st.integers(0, 1)))
    else:
        # the isolating geometry under a plain-clause label (which it meets) or
        # a parity label (which it does not)
        if kind == "parity":
            label = gadgets.parity_constraint(draw(st.integers(0, 1)))
        else:
            label = gadgets.clause_constraint()
        base = isolating(k, p)
        g = gadgets.IsolatingGadget(p, k, base.V, base.t, base.eps, gadgets.KIND_TWO_LEVEL, label)
    if kind == "lattice":
        g = gadgets.to_isolating_lattice(g)
    perm = draw(st.permutations(range(k))) if draw(st.booleans()) else list(range(k))
    g = with_arrays(g, g.V[:, perm], targets_of(g))
    g.eps *= draw(st.sampled_from([1.0, 1.0 + 1e-6, 0.5]))
    return g


AGREE_P = [1.0 + 0.25 * i for i in range(21)] + [7.0, 9.0, 11.0]


def class_form_cases():
    """Isolating gadgets at k = 1..12 on the 0.25 grid of [1, 6] and at odd
    integer p above it, the on-off gadget of each, and parity gadgets at
    k = 3..12 of both bits: every builder's gadget carries a class form."""
    for k in range(1, 13):
        for p in AGREE_P:
            if not even_below(k, p):
                yield isolating(k, p)
                if k >= 2:
                    yield gadgets.to_on_off(isolating(k, p))
    for k in range(3, 13):
        for p in AGREE_P:
            if p < k and not even_below(k, p):
                for bit in (0, 1):
                    yield parity(k, p, bit)


def class_levels(g) -> dict:
    """Each level condition's target and level by name."""
    return {"close-vertices-at-1": (0, 1.0), "far-vertices-at-1+eps": (0, 1.0 + g.eps),
            "on-target-nonzero-at-1": (0, 1.0), "on-target-origin-isolated": (0, 1.0 + g.eps),
            "off-target-all-at-1": (1, 1.0)}


def assert_rows_agree(g):
    """g's report from its class form against the report of the same gadget
    without one, whose class vertices are evaluated over its rows: the same
    check, verdicts and conditions; residuals within 8 ulps of the level; a
    witness that differs only where the two witnesses' residuals are within
    that band in both evaluations."""
    verify = verifier(g)
    assert gadgets.form_of(g.V, targets_of(g), g.form) is not None
    classes, (_, by_form, _) = verify(g), gadgets._vertex_distances(g, by_popcount(g))
    with mock.patch.object(gadgets, "form_of", return_value=None):
        rows, (_, by_rows, _) = verify(g), gadgets._vertex_distances(g, by_popcount(g))
    assert classes.check == rows.check == gadgets.CHECK_CLASSES
    assert classes.passed == rows.passed
    assert [(c.name, c.passed) for c in classes.conditions] == [(c.name, c.passed) for c in rows.conditions]
    for c, r in zip(classes.conditions, rows.conditions):
        target, level = class_levels(g).get(c.name, (0, 1.0))
        band = 8 * 2.0**-52 * max(1.0, level)
        assert abs(c.residual - r.residual) <= band, (c.name, c.residual, r.residual)
        if c.witness != r.witness:
            for dist in (by_form, by_rows):
                res = np.abs(dist[target] - level)
                assert abs(res[sum(c.witness)] - res[sum(r.witness)]) <= band, c.name


class TestCertificate:
    def test_class_form_agrees_with_rows(self):
        cases = collections.Counter()
        for g in class_form_cases():
            assert_rows_agree(g)
            cases[type(g).__name__, getattr(g, "kind", None)] += 1
        assert cases == {("IsolatingGadget", gadgets.KIND_ISOLATING): 264, ("OnOffGadget", None): 240,
                         ("IsolatingGadget", gadgets.KIND_TWO_LEVEL): 334}

    def test_class_form_of_a_max_norm_file(self):
        # a file may name p = inf; the reader proves the form, and the class
        # distances are the largest |entry| over the rows
        doc = json.loads(serialize.dumps(serialize.gadget_to_json(isolating(5, 3.0))))
        doc["p"] = "inf"
        g = serialize.gadget_from_json(doc)
        assert g.p == math.inf and g.form is not None
        assert_rows_agree(g)
        _, (dist,), _ = gadgets._vertex_distances(g, True)
        (x,) = integer_grid([(0, 1)] * 5, 32)
        walked = np.abs(x @ g.V.T - g.t).max(axis=1)
        assert np.array_equal(dist, [walked[x.sum(axis=1) == j].max() for j in range(6)])

    def test_class_power_sum_out_of_float_range(self):
        # scaled so that every single power stays finite, but the largest
        # vertex's power sum is 1.2 times the float maximum
        g, q = isolating(6, 3.0), 3.0
        (x,) = integer_grid([(0, 1)] * 6, 64)
        powers = np.abs(x @ g.V.T - g.t) ** q
        top = powers.sum(axis=1).max()
        assert powers.max() < top / 1.5
        s = math.exp((math.log(1.2) + math.log(np.finfo(float).max) - math.log(top)) / q)
        big = gadgets.IsolatingGadget(q, 6, g.V * s, g.t * s, g.eps)
        assert gadgets.class_form(big.V, [big.t]) is not None
        assert np.isfinite(np.abs(x @ big.V.T - big.t) ** q).all()
        for form_of in (gadgets.form_of, lambda V, targets, form=None: None):
            with mock.patch.object(gadgets, "form_of", form_of), \
                    pytest.raises(NumericDegeneracyError, match="a vertex distance at p=3 leaves the float range"):
                gadgets._vertex_distances(big, True)

    @settings(max_examples=80, deadline=None)
    @given(g=symmetric_case())
    def test_agrees_with_full_walk(self, g):
        verify = verifier(g)
        classes = verify(g)
        with mock.patch.object(gadgets, "form_of", return_value=None), \
                mock.patch.object(gadgets, "_symmetric", return_value=False):
            walk = verify(g)
        assert (classes.check, walk.check) == (gadgets.CHECK_CLASSES, gadgets.CHECK_VERTICES)
        assert classes.passed == walk.passed
        assert [c.name for c in classes.conditions] == [c.name for c in walk.conditions]
        reference = naive_on_off(g) if isinstance(g, gadgets.OnOffGadget) else naive_parallelepiped(g)
        for c, w, r in zip(classes.conditions, walk.conditions, reference + [None] * 2):
            assert c.passed == w.passed, c.name
            assert abs(c.residual - w.residual) <= 1e-12, c.name
            if w.witness is not None:
                # a class representative tied with the walk's witness to 1e-12
                assert r[4][c.witness] >= w.residual - 1e-12, c.name

    @pytest.mark.parametrize(
        "build",
        [
            lambda: isolating(4, 3.0),
            lambda: parity(5, 1.5, 1),
            lambda: gadgets.to_isolating_lattice(parity(4, 1.0, 0)),
            lambda: gadgets.to_on_off(isolating(4, 2.5)),
        ],
        ids=["isolating", "parity", "lattice", "on-off"],
    )
    def test_one_ulp_falls_back(self, build):
        # every permutation fixes a row whose V entries are all equal, so a
        # change to that row's target entries keeps the gadget symmetric (and
        # the certificate right); any other single-entry change breaks it
        g = build()
        verify = verifier(g)
        assert verify(g).check == gadgets.CHECK_CLASSES
        cols = [g.V] + [t[:, None] for t in targets_of(g)]
        for c, A in enumerate(cols):
            for i, j in product(range(A.shape[0]), range(A.shape[1])):
                arrays = [X.copy() for X in cols]
                arrays[c][i, j] = np.nextafter(A[i, j], np.inf)
                report = verify(with_arrays(g, arrays[0], [t.ravel() for t in arrays[1:]]))
                unseen = c > 0 and np.all(g.V[i] == g.V[i, 0])
                assert report.check == (gadgets.CHECK_CLASSES if unseen else gadgets.CHECK_VERTICES), (c, i, j)

    def test_built_gadgets_certify_without_sorting(self, monkeypatch):
        # the builders lay rows out in integer_grid order, so their class
        # form certifies them and the sort never runs
        def sort(M):
            raise AssertionError("the sorted-row fallback ran")

        monkeypatch.setattr(gadgets, "_row_multiset", sort)
        g = gadgets.find_isolating_parallelepiped(10, 3.0)
        onoff = gadgets.to_on_off(gadgets.find_isolating_parallelepiped(5, 3.0))
        par = gadgets.parity_gadget(5, 1.5, 1)
        assert gadgets.verify_parallelepiped(g).check == gadgets.CHECK_CLASSES
        assert gadgets.verify_on_off(onoff).check == gadgets.CHECK_CLASSES
        assert gadgets.verify_parallelepiped(par).check == gadgets.CHECK_CLASSES

    def test_shuffled_rows_certify_by_sorting(self):
        # rows in another order have no class form: the sort decides, and
        # the report is the one of the gadget as built, up to the rounding of
        # distances summed over the rows in another order
        calls = []

        def spy(M):
            calls.append(M.shape)
            return multiset(M)

        multiset = gadgets._row_multiset
        rng = np.random.default_rng(11)
        for g in (isolating(6, 3.0), gadgets.to_on_off(isolating(5, 2.5))):
            order = rng.permutation(g.d)
            shuffled = with_arrays(g, g.V[order], [t[order] for t in targets_of(g)])
            with mock.patch.object(gadgets, "_row_multiset", spy):
                report = verifier(g)(shuffled)
            assert calls, "the sorted-row fallback did not run"
            built = verifier(g)(g)
            assert (report.check, report.passed) == (built.check, built.passed) == (gadgets.CHECK_CLASSES, True)
            assert [(c.name, c.passed) for c in report.conditions] == [(c.name, c.passed) for c in built.conditions]
            for c, b in zip(report.conditions, built.conditions):
                assert abs(c.residual - b.residual) <= 1e-12, c.name
            calls.clear()

    def test_rotations_alone_do_not_certify(self):
        # the rows are the 4 rotations of (1, 2, 0, 0): the k-cycle maps them
        # onto themselves, the transposition (0 1) does not, and distances
        # differ within a Hamming class
        V = np.array([np.roll([1.0, 2.0, 0.0, 0.0], r) for r in range(4)])
        g = gadgets.IsolatingGadget(3.0, 4, V, np.zeros(4), 0.5)
        dist = dict(distances(g.V, g.t, 3.0, 4))
        assert dist[(1, 1, 0, 0)] != dist[(1, 0, 1, 0)]
        assert gadgets.verify_parallelepiped(g).check == gadgets.CHECK_VERTICES

    def test_column_permutation_keeps_certificate(self):
        for g in (isolating(6, 3.0), parity(6, 1.5, 0), gadgets.to_on_off(isolating(7, 3.0))):
            perm = np.random.default_rng(5).permutation(g.k)
            report = verifier(g)(with_arrays(g, g.V[:, perm], targets_of(g)))
            assert report.check == gadgets.CHECK_CLASSES and report.passed

    def test_matches_the_two_permutation_reference(self):
        rng = np.random.default_rng(35)
        verdicts = collections.defaultdict(collections.Counter)
        for g in certificate_cases():
            targets = targets_of(g)
            assert gadgets._symmetric(g.V, targets) == reference_symmetric(g.V, targets) is True
            for name, (V, ts) in perturbed(g, rng).items():
                verdict = reference_symmetric(V, ts)
                assert gadgets._symmetric(V, ts) == verdict, (name, g.k, g.p, type(g).__name__)
                verdicts[name][verdict] += 1
        # the sort certifies swapped rows and zeros of either sign; a moved
        # ulp breaks the symmetry unless the row is one a permutation fixes
        assert verdicts["swap"][True] > 400 and not verdicts["swap"][False]
        assert verdicts["zero-sign"][True] > 200 and not verdicts["zero-sign"][False]
        assert verdicts["ulp"][False] > verdicts["ulp"][True] > 0

    @pytest.mark.parametrize("k,r", [(1, 1), (3, 2), (5, 1), (6, 3), (10, 1)])
    def test_two_values_per_class_and_bit(self, k, r):
        # V's entry (i, l) is a value of its (popcount, low index, x_l),
        # drawn at random, so not +-a_c; the certificate holds, and a swap of
        # two columns' values in one row breaks it
        rng = np.random.default_rng(k * 10 + r)
        signs, c = gadgets._cube(k)
        table = rng.uniform(-4.0, 4.0, size=(k + 1, r, 2))
        low = np.tile(np.arange(r), 2**k)
        V = table[np.repeat(c, r)[:, None], low[:, None], np.repeat(signs > 0, r, axis=0).astype(int)]
        t = rng.uniform(-4.0, 4.0, size=(k + 1, r))[np.repeat(c, r), low]
        assert gadgets.class_form(V, [t]) is not None
        assert gadgets._symmetric(V, [t]) == reference_symmetric(V, [t]) is True
        if k > 1:
            row = next(i for i in range(len(V)) if V[i, 0] != V[i, 1])
            V[row, [0, 1]] = V[row, [1, 0]]
            assert gadgets.class_form(V, [t]) is None
            assert gadgets._symmetric(V, [t]) == reference_symmetric(V, [t])

    def test_tables_rebuild_the_gadget(self):
        for g in certificate_cases():
            form = gadgets.class_form(g.V, targets_of(g))
            if getattr(g, "kind", None) == gadgets.KIND_LATTICE:
                assert form is None  # 2^k + k rows
                continue
            assert same_bits(form.values[form.index], g.V)
            assert len(form.targets) == len(targets_of(g))
            for table, t in zip(form.targets, targets_of(g)):
                assert same_bits(table[form.rows], t)
            assert form.values.size == 2 * g.k * (g.d >> g.k)  # (popcount, low index, bit), two classes empty

    def test_class_index_is_built_once_per_k_and_r(self):
        gadgets._class_index.cache_clear()
        g = gadgets.find_isolating_parallelepiped(10, 3.0)
        gadgets.find_isolating_parallelepiped(10, 4.5)
        serialize.dumps(serialize.gadget_to_json(g))
        onoff = gadgets.to_on_off(g)
        serialize.dumps(serialize.onoff_to_json(onoff))
        gadgets.parity_gadget(9, 2.5, 1)
        info = gadgets._class_index.cache_info()
        assert (info.misses, info.currsize) == (3, 3)  # (10, 1), (9, 2) and (9, 1)
        assert not any(a.flags.writeable for a in gadgets._class_index(10, 1))
        assert gadgets._class_index(9, 2)[0].shape == (onoff.d, 9)

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_k16_builds(self, p):
        start = time.perf_counter()
        g = gadgets.find_isolating_parallelepiped(16, p)
        report = gadgets.verify_parallelepiped(g)
        onoff = gadgets.to_on_off(g)
        assert time.perf_counter() - start < 10.0
        assert (report.check, report.passed) == (gadgets.CHECK_CLASSES, True)
        assert gadgets.verify_on_off(onoff).check == gadgets.CHECK_CLASSES

    def test_uncertified_above_walk_cap_refuses(self, monkeypatch):
        g = gadgets.find_isolating_parallelepiped(gadgets.MAX_WALK_K + 1, 3.0)
        t = g.t.copy()
        t[1] = np.nextafter(t[1], np.inf)  # row 1 is the vertex 0..01
        moved = gadgets.IsolatingGadget(g.p, g.k, g.V, t, g.eps)

        def walk(*args):
            raise AssertionError("the vertex walk started")

        monkeypatch.setattr(gadgets, "integer_grid", walk)
        with pytest.raises(ResourceLimitError):
            gadgets.verify_parallelepiped(moved)


def unique_class_index(k, r):
    """`_class_index` as np.unique numbers the entry and row codes: the
    inverse, the first positions, the row classes and the first rows, and the
    distinct entry codes."""
    signs, c = gadgets._cube(k)
    rows = (c[:, None] * r + np.arange(r)).ravel()
    entries = 2 * rows[:, None] + np.repeat(signs > 0, r, axis=0)
    codes, first, index = np.unique(entries.ravel(), return_index=True, return_inverse=True)
    return index.reshape(entries.shape), first, rows, np.unique(rows, return_index=True)[1], codes


def same_form(a, b) -> bool:
    """Two class forms with the same values and targets, bit for bit, and the same index and rows."""
    return (
        same_bits(a.values, b.values)
        and len(a.targets) == len(b.targets)
        and all(same_bits(x, y) for x, y in zip(a.targets, b.targets))
        and np.array_equal(a.index, b.index)
        and np.array_equal(a.rows, b.rows)
    )


def read_back(g):
    """g written and read through its JSON text."""
    if isinstance(g, gadgets.OnOffGadget):
        return serialize.onoff_from_json(json.loads(serialize.dumps(serialize.onoff_to_json(g))))
    return serialize.gadget_from_json(json.loads(serialize.dumps(serialize.gadget_to_json(g))))


class TestCarriedForm:
    """The builders and to_on_off hand out their class form with the
    gadget, the readers prove it once, and a form never outlives the arrays
    it describes."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_class_index_matches_unique(self, r):
        for k in range(1, 13):
            got, want = gadgets._class_index(k, r), unique_class_index(k, r)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), (k, r)

    def test_carried_form_is_class_form(self):
        kinds = collections.Counter()
        for g in certificate_cases():
            form = gadgets.class_form(g.V, targets_of(g))
            if getattr(g, "kind", None) == gadgets.KIND_LATTICE:
                assert g.form is None and form is None
                continue
            assert g.form is not None and same_form(g.form, form), (type(g).__name__, g.k, g.p)
            back = read_back(g)
            assert same_form(back.form, form), (type(g).__name__, g.k, g.p)
            kinds[type(g).__name__, getattr(g, "kind", None)] += 1
        # isolating gadgets at k = 1..12 over CERT_P, the on-off gadget of
        # each from k = 2, and parity gadgets at k = 3..12 of both bits for
        # the 52 pairs with p < k
        assert kinds == {
            ("IsolatingGadget", gadgets.KIND_ISOLATING): 12 * 6,
            ("OnOffGadget", None): 11 * 6,
            ("IsolatingGadget", gadgets.KIND_TWO_LEVEL): 2 * 52,
        }

    def test_no_stale_form(self):
        g, par = isolating(4, 3.0), parity(5, 1.5, 1)
        onoff = gadgets.to_on_off(g)
        V = g.V.copy()
        V[0, 0] = np.nextafter(V[0, 0], np.inf)
        assert dataclasses.replace(g, V=V).form is None
        assert dataclasses.replace(onoff, t_off=onoff.t_on).form is None
        assert gadgets.IsolatingGadget(g.p, g.k, g.V.copy(), g.t.copy(), g.eps).form is None
        assert gadgets.to_isolating_lattice(par).form is None
        for a in (g.V, g.t, par.V, par.t, onoff.V, onoff.t_on, onoff.t_off):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] += 1.0


class TestObstruction:
    def test_exact_zero_for_even_p(self):
        rng = np.random.default_rng(7)
        V = rng.integers(-50, 50, size=(4, 3))
        t = rng.integers(-50, 50, size=4)
        value = gadgets.even_p_obstruction(V.tolist(), t.tolist(), 2, 3)
        assert value == 0
        assert isinstance(value, int)

    def test_exact_zero_p4(self):
        rng = np.random.default_rng(11)
        V = rng.integers(-9, 9, size=(3, 5))
        t = rng.integers(-9, 9, size=3)
        assert gadgets.even_p_obstruction(V.tolist(), t.tolist(), 4, 5) == 0

    def test_float_small_for_even_p(self):
        rng = np.random.default_rng(3)
        V = rng.normal(size=(4, 5))
        t = rng.normal(size=4)
        value = gadgets.even_p_obstruction(V, t, 4, 5)
        scale = max(abs(float(np.sum(np.abs(t) ** 4))), 1.0)
        assert abs(value) <= 1e-6 * scale

    @pytest.mark.parametrize(
        "V,t",
        [([[1, 2, 3, 4]] * 3, [1, 1, 1]), ([[1, 2, 3]] * 3, [1, 1]), ([[1.0, 2.0, 3.0, 4.0]] * 3, [1.0] * 3)],
        ids=["extra-column", "extra-row", "float-extra-column"],
    )
    def test_shape_mismatch_rejected(self, V, t):
        # V must be d x k with t of length d on the exact-integer path too
        with pytest.raises(InvalidInputError):
            gadgets.even_p_obstruction(V, t, 2, 3)

    def test_odd_p_generically_nonzero(self):
        # t small enough that subtracting vertex sums flips signs, so the
        # absolute values break the telescoping that kills even exponents
        V = [[1, 0], [0, 1], [2, 3]]
        t = [1, 1, 1]
        assert gadgets.even_p_obstruction(V, t, 1, 2) == 2

    def test_identity_forces_unit_target_norm(self):
        # with all 2^k - 1 nonzero vertices at distance 1, the alternating sum
        # pins ||t||_p^p = sum over nonempty S of (-1)^(|S|+1) = 1
        k, p = 3, 2
        total = sum((-1) ** (bin(s).count("1") + 1) for s in range(1, 2**k))
        assert total == 1
        # concrete equidistant box: unit axes halved plus an offset coordinate
        V = np.vstack([np.eye(3), np.zeros((1, 3))])
        t = np.array([0.5, 0.5, 0.5, 0.5])
        for z in product((0, 1), repeat=3):
            assert pnorm(V @ np.array(z, float) - t, p) == pytest.approx(1.0)
        assert abs(gadgets.even_p_obstruction(V, t, p, k)) <= 1e-12
        assert pnorm(t, p) == pytest.approx(1.0)


class TestRectangleProperty:
    @pytest.mark.parametrize("seed", range(5))
    def test_seven_equal_forces_eighth(self, seed):
        # 7-equidistant configurations exist only for rectangular boxes, so
        # build a random rotated box, recover an equidistant target from the
        # 7 nonzero-vertex equations alone (least squares; the solution is
        # not the constructed center), and check the 8th distance (||t||)
        # comes out equal anyway
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(8, 3)))
        V = Q * rng.uniform(0.5, 2.0, size=3)
        verts = [V @ np.array(z, float) for z in product((0, 1), repeat=3) if any(z)]
        q0 = verts[0]
        rows = np.array([2.0 * (q - q0) for q in verts[1:]])
        rhs = np.array([float(q @ q - q0 @ q0) for q in verts[1:]])
        t, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        radii = [float(np.linalg.norm(q - t)) for q in verts]
        assert max(radii) - min(radii) <= 1e-8 * max(radii)
        assert np.linalg.norm(t) == pytest.approx(radii[0], rel=1e-8)
