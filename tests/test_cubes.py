import collections
import itertools
import random

import numpy as np
import pytest

from latgad import cubes
from latgad.errors import InvalidInputError, ResourceLimitError
from latgad.formulas import Clause


def assignment(point, n):
    return tuple(cubes.bit(point, j) for j in range(1, n + 1))


class TestAffineCube:
    def test_dimension_one_any_pair(self):
        cube = cubes.find_affine_cube({0b0101, 0b0011}, d=1, n=4)
        assert cube is not None
        assert cube.points() == {0b0101, 0b0011}

    def test_full_space_contains_dim3(self):
        universe = set(range(2**5))
        cube = cubes.find_affine_cube(universe, d=3, n=5)
        assert cube is not None
        assert len(cube.points()) == 8

    def test_too_small_returns_none(self):
        assert cubes.find_affine_cube({3}, d=1, n=4) is None

    def test_min_size_formula(self):
        assert cubes.min_set_size(12, 2) == 2**8
        assert cubes.min_set_size(16, 3) == 2**14

    @pytest.mark.parametrize("n,d", [(10, 2), (12, 2), (10, 3)])
    def test_guaranteed_on_random_sets(self, n, d):
        bound = cubes.min_set_size(n, d)
        for seed in range(20):
            rng = random.Random(seed)
            points = set()
            while len(points) < bound:
                points.add(rng.randrange(2**n))
            cube = cubes.find_affine_cube(points, d=d, n=n)
            assert cube is not None
            assert cube.dim == d
            assert cube.points() <= points
            assert cubes.independent_f2(cube.directions)

    def test_independence_checker(self):
        assert cubes.independent_f2((0b001, 0b010, 0b100))
        assert not cubes.independent_f2((0b011, 0b101, 0b110))
        assert not cubes.independent_f2((0b0,))


# an affine 3-cube (base 02, directions 12, 0b, 07) that no largest pair-sum
# class leads to
MISSED_BY_GREEDY = [0x02, 0x04, 0x05, 0x06, 0x07, 0x09, 0x0A, 0x0D, 0x0E, 0x10, 0x14, 0x17, 0x1B, 0x1C]


def holds_cube(points, d: int) -> bool:
    """Whether points hold an affine d-cube, by trying every base b and every
    d independent directions among the sums b ^ x."""
    S = set(points)
    for b in S:
        for dirs in itertools.combinations(sorted(x ^ b for x in S - {b}), d):
            if cubes.independent_f2(dirs) and cubes.AffineCube(b, dirs, 0).points() <= S:
                return True
    return False


def greedy_cube(pts: list[int], d: int, n: int):
    """The search's first branch alone: the largest pair-sum class, the
    smaller sum on ties, at each level; (base, directions) or None."""
    if len(pts) < 2:
        return None
    if d == 1:
        return pts[0], (pts[0] ^ pts[1],)
    counts = [0] * 2**n
    for a, b in itertools.combinations(pts, 2):
        counts[a ^ b] += 1
    z = counts.index(max(counts))
    if z == 0:
        return None
    here = set(pts)
    sub = greedy_cube(sorted(x for x in here if x ^ z in here and x < x ^ z), d - 1, n)
    return None if sub is None else (sub[0], sub[1] + (z,))


def seeded_sets(n: int, d: int, count: int = 100):
    """count seeded subsets of F_2^n, of 2^d up to 2^(n-1) + 2^d points,
    where sets with and without a d-cube both occur."""
    for seed in range(count):
        rng = random.Random(f"{n}-{d}-{seed}")
        yield rng.sample(range(2**n), rng.randint(2**d, min(2**n, 2 ** (n - 1) + 2**d)))


class TestCompleteSearch:
    def test_cube_off_the_greedy_path(self):
        assert greedy_cube(MISSED_BY_GREEDY, 3, 5) is None
        cube = cubes.find_affine_cube(MISSED_BY_GREEDY, d=3, n=5)
        assert (cube.base, cube.directions) == (0x02, (0x12, 0x0B, 0x07))

    @pytest.mark.parametrize("n,d", [(4, 2), (4, 3), (5, 2), (5, 3)])
    def test_agrees_with_brute_force(self, n, d):
        held = 0
        for points in seeded_sets(n, d):
            cube = cubes.find_affine_cube(points, d=d, n=n)
            assert (cube is not None) == holds_cube(points, d), sorted(points)
            held += cube is not None
        assert 0 < held < 100

    @pytest.mark.parametrize("n,d", [(5, 3), (6, 3), (8, 3), (10, 3), (8, 4)])
    def test_first_branch_is_the_greedy_path(self, n, d):
        # every cube the largest classes lead to is found with its base and
        # directions
        found = 0
        for points in seeded_sets(n, d, count=40):
            greedy = greedy_cube(sorted(points), d, n)
            cube = cubes.find_affine_cube(points, d=d, n=n)
            if greedy is not None:
                assert (cube.base, cube.directions) == greedy
                found += 1
        assert found

    @pytest.mark.parametrize("n", [6, 10, 16])
    def test_sum_classes_match_a_count_of_pairs(self, n):
        # sorted sums (few pairs) and a count over all 2^n sums (many pairs)
        # give the classes in one order: by pair count, then by sum
        rng = random.Random(n)
        for size in (5, 20, 60, 200):
            pts = sorted(rng.sample(range(2**n), min(size, 2**n)))
            counts = collections.Counter(a ^ b for a, b in itertools.combinations(pts, 2))
            for least in (1, 2, 4):
                want = sorted((z for z, c in counts.items() if c >= least), key=lambda z: (-counts[z], z))
                assert cubes._sum_classes(pts, n, least).tolist() == want

    def test_budget_spent_is_a_resource_error(self, monkeypatch):
        # a cube-free set whose search takes more than a few calls
        points = random.Random(7).sample(range(2**12), 100)
        assert cubes.find_affine_cube(points, d=3, n=12) is None
        monkeypatch.setattr(cubes, "MAX_CUBE_CALLS", 5)
        with pytest.raises(ResourceLimitError, match="5 calls"):
            cubes.find_affine_cube(points, d=3, n=12)


class TestIsolatingClause:
    def test_singleton_clause_falsified(self):
        clause = cubes.clause_isolating_one({0b101}, k=3, n=3)
        assert not clause.satisfied(assignment(0b101, 3))

    def test_cube_corners_seven_of_eight(self):
        corners = set(range(8))
        clause = cubes.clause_isolating_one(corners, k=3, n=3)
        satisfied = sum(clause.satisfied(assignment(x, 3)) for x in corners)
        assert satisfied == 7
        assert clause.arity <= 3

    def test_four_points_arity_two(self):
        points = {0b00, 0b01, 0b10, 0b11}
        clause = cubes.clause_isolating_one(points, k=2, n=2)
        satisfied = sum(clause.satisfied(assignment(x, 2)) for x in points)
        assert satisfied == 3

    def test_size_cap(self):
        with pytest.raises(InvalidInputError):
            cubes.clause_isolating_one(set(range(5)), k=2, n=3)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_sets_exact_count(self, seed):
        rng = random.Random(seed)
        n = 8
        size = rng.randint(1, 16)
        points = set()
        while len(points) < size:
            points.add(rng.randrange(2**n))
        clause = cubes.clause_isolating_one(points, k=4, n=n)
        satisfied = sum(clause.satisfied(assignment(x, n)) for x in points)
        assert satisfied == len(points) - 1


class TestSeparatingClause:
    def test_face_versus_opposite_face(self):
        close = {0b000, 0b001, 0b010, 0b011}  # bit 3 = 0 face
        away = {0b100, 0b101}
        clause = cubes.separating_3cnf(close, away, n=3)
        for x in close:
            assert clause.satisfied(assignment(x, 3))
        assert any(not clause.satisfied(assignment(x, 3)) for x in away)

    def test_majority_string_in_away_set(self):
        # majority of close is 0000, which sits inside away and must be skipped
        close = {0b0001, 0b0010, 0b0100, 0b0111}
        away = {0b0000, 0b1000}
        clause = cubes.separating_3cnf(close, away, n=4)
        for x in close:
            assert clause.satisfied(assignment(x, 4))
        assert not clause.satisfied(assignment(0b1000, 4))

    @pytest.mark.parametrize("seed", range(30))
    def test_random_disjoint_sets(self, seed):
        rng = random.Random(seed)
        n = 8
        pool = rng.sample(range(2**n), 10)
        close, away = set(pool[:4]), set(pool[4:])
        clause = cubes.separating_3cnf(close, away, n=n)
        assert clause.arity <= 3
        assert all(clause.satisfied(assignment(x, n)) for x in close)
        assert any(not clause.satisfied(assignment(x, n)) for x in away)

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            cubes.separating_3cnf({1, 2, 3}, {4, 5}, n=3)
        with pytest.raises(InvalidInputError):
            cubes.separating_3cnf({1, 2, 3, 4}, {4, 5}, n=3)


class TestClosestSquare:
    def test_hypercube_parallelogram(self):
        n = 3
        B = np.eye(n)
        t = np.full(n, 0.5)
        zs = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]  # v = 0
        report = cubes.closest_square_structure(B, t, zs, box=(0, 1))
        assert report.passed
        assert any(c.name == "union-size-4-or-8" and c.residual == 4 for c in report.conditions)

    def test_eight_case(self):
        n = 3
        B = np.eye(n)
        t = np.full(n, 0.5)
        # z4 = z1 + z2 + z3 - 2v with v = 0: not a parallelogram
        zs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        report = cubes.closest_square_structure(B, t, zs, box=(0, 1))
        assert report.passed
        assert any(c.name == "union-size-4-or-8" and c.residual == 8 for c in report.conditions)

    def test_perturbed_target_rejected(self):
        n = 3
        B = np.eye(n)
        t = np.array([0.5, 0.5, 0.49])
        zs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        with pytest.raises(InvalidInputError):
            cubes.closest_square_structure(B, t, zs, box=(0, 1))

    def test_odd_sum_rejected(self):
        B = np.eye(2)
        t = np.full(2, 0.5)
        with pytest.raises(InvalidInputError):
            cubes.closest_square_structure(B, t, [(0, 0), (1, 0), (0, 1), (0, 0)], box=(0, 1))
