"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with `pytest tests/test_acceptance.py -v -s` to see them).

Every tolerance and runtime budget is pinned here; nothing is deferred to
later calibration.
"""

import hashlib
import math
import random
import time
from itertools import combinations, product

import numpy as np
import pytest

from latgad import cubes, distmatrix, gadgets, identities, oracle, reductions, serialize
from latgad.errors import UnsupportedParametersError
from latgad.formulas import Clause, CspFormula, XorConstraint
from latgad.numeric import Tolerance, pnorm

REL = 1e-9
TOL = Tolerance(rel=REL, abs=1e-12)


def _announce(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def random_3sat(n, m, seed, distinct=False):
    rng = random.Random(seed)
    clauses, seen = [], set()
    while len(clauses) < m:
        variables = sorted(rng.sample(range(1, n + 1), 3))
        literals = tuple(v if rng.random() < 0.5 else -v for v in variables)
        if distinct:
            if literals in seen:
                continue
            seen.add(literals)
        clauses.append(Clause(literals))
    return CspFormula(n=n, constraints=clauses)


def test_criterion_01_gadget_existence_grid():
    start = time.monotonic()
    checked = 0
    for p in (1.0, 1.5, 2.5, 3.0, 3.5, math.pi):
        for k in (2, 3, 4):
            even_integer = float(p).is_integer() and int(p) % 2 == 0
            if even_integer and p < k:
                continue  # outside the existence region
            g = gadgets.find_isolating_parallelepiped(k, p)
            report = gadgets.verify_parallelepiped(g, TOL)
            assert report.passed, f"(p={p}, k={k}): {report.failures()}"
            checked += 1
    elapsed = time.monotonic() - start
    _announce(1, checked == 18 and elapsed < 10.0, f"{checked} gadgets verified at rel {REL} in {elapsed:.2f}s")


def test_criterion_02_even_p_impossibility():
    rng = np.random.default_rng(2024)
    for p, k in ((2, 3), (2, 5), (4, 5), (4, 6)):
        V = rng.integers(-20, 20, size=(k + 1, k))
        t = rng.integers(-20, 20, size=k + 1)
        value = gadgets.even_p_obstruction(V.tolist(), t.tolist(), p, k)
        assert value == 0 and isinstance(value, int), f"obstruction nonzero at p={p}, k={k}"
        with pytest.raises(UnsupportedParametersError):
            gadgets.find_isolating_parallelepiped(k, float(p))

    # derived consequence: with the 2^k - 1 nonzero vertices all at distance 1,
    # the alternating identity pins ||t|| = 1; check on recovered equidistant
    # configurations for p = 2, k = 3
    for seed in range(5):
        gen = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(gen.normal(size=(7, 3)))
        V = Q * gen.uniform(0.5, 2.0, size=3)
        verts = [V @ np.array(z, float) for z in product((0, 1), repeat=3) if any(z)]
        rows = np.array([2.0 * (q - verts[0]) for q in verts[1:]])
        rhs = np.array([float(q @ q - verts[0] @ verts[0]) for q in verts[1:]])
        t, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        radius = float(np.linalg.norm(verts[0] - t))
        V, t = V / radius, t / radius
        assert all(
            abs(np.linalg.norm(V @ np.array(z, float) - t) - 1.0) <= 1e-8
            for z in product((0, 1), repeat=3)
            if any(z)
        )
        assert np.linalg.norm(t) == pytest.approx(1.0, rel=1e-8)
    # rearranged identity on arbitrary real configurations for p = 4
    for seed in range(3):
        gen = np.random.default_rng(100 + seed)
        V = gen.normal(size=(6, 5))
        t = gen.normal(size=6)
        lhs = pnorm(t, 4) ** 4
        rhs = sum(
            (-1) ** (len(S) + 1) * pnorm(t - V[:, S].sum(axis=1), 4) ** 4
            for r in range(1, 6)
            for S in combinations(range(5), r)
        )
        assert lhs == pytest.approx(rhs, rel=1e-9)
    _announce(2, True, "exact-zero obstruction, refused constructions, forced unit target norm")


def test_criterion_03_parity_gadget_values_and_bounds():
    g = gadgets.parity_gadget(3, 1.0, 0)
    assert abs(g.meta["lambda"] - 12.0) <= REL
    assert abs(g.meta["lambda_par"] - 4.0) <= REL
    low, high = g.meta["levels"]
    assert abs(low - 8.0) <= REL and abs(high - 16.0) <= REL
    assert abs(g.eps - 1.0) <= REL
    checked = 0
    for k in range(3, 9):
        for p in (1.0, 1.5, 2.5, 3.0):
            if not p < k:
                continue
            gadget = gadgets.parity_gadget(k, p, 0)
            bound = gadgets.parity_eps_lower_bound(k, p)
            assert gadget.eps >= bound - REL, f"eps {gadget.eps} below bound {bound} at (k={k}, p={p})"
            checked += 1
    _announce(3, True, f"levels 8/16 with eps=1 at (3,1); gap bound held at {checked} grid points")


def test_criterion_04_normalized_sum_suite():
    start = time.monotonic()
    assert identities.c_p_limit(1).value == pytest.approx(0.5, rel=1e-12)
    pairs_checked = signs_checked = 0
    for p in (1.0, 1.5, 2.5, 3.0, 3.5):
        limit = identities.c_p_limit(p).value
        previous = None
        for k in range(3, 41):
            if not p < k:
                continue
            res = identities.s_kp(k, p)
            assert res.sign == (-1) ** (k // 2 + math.floor(p / 2) + 1)
            signs_checked += 1
            assert abs(res.value) >= limit - 1e-12
            if k % 2 == 0 and p < k - 1:
                assert abs(res.value) == pytest.approx(abs(identities.s_kp(k - 1, p).value), abs=1e-12)
                pairs_checked += 1
            if k % 2 == 0:
                if previous is not None:
                    assert abs(res.value) < previous
                previous = abs(res.value)
    elapsed = time.monotonic() - start
    _announce(
        4,
        elapsed < 5.0,
        f"{signs_checked} signs, {pairs_checked} pair equalities, monotone and bounded in {elapsed:.2f}s",
    )


def test_criterion_05_integral_identity_grid():
    worst = 0.0
    count = 0
    for n in range(1, 7):
        for m in range(0, n + 1):
            for p in (1.0, 1.5, 2.5):
                if not p < 2 * n - m:
                    continue
                direct = identities.direct_alt_sum(n, m, p)
                integral = identities.alt_sum_integral(n, m, p)
                scale = max(abs(direct), abs(integral))
                gap = abs(direct - integral)
                assert gap <= 1e-6 * max(scale, 1e-6), f"(n={n}, m={m}, p={p}): gap {gap}"
                if scale > 1e-9:  # relative figure is meaningless at the exact zeros
                    worst = max(worst, gap / scale)
                count += 1
    _announce(5, True, f"{count} grid points agree within 1e-6 relative (worst {worst:.2e})")


def test_criterion_06_factorial_ratio_identity():
    worst = 0.0
    for k in range(1, 21):
        for x in (0.5, 1.0, 2.5):
            worst = max(worst, identities.ramanujan_check(k, x))
    _announce(6, worst <= 1e-10, f"worst residual {worst:.2e} over k <= 20")


def test_criterion_07_exact_reduction_end_to_end():
    start = time.monotonic()
    gadget = gadgets.find_isolating_parallelepiped(3, 3.0)
    outcomes = set()
    for seed in range(20):
        f = random_3sat(8, 40, seed)  # near threshold: both outcomes occur
        inst = reductions.sat_to_cvp(f, gadget)
        best, optimal = oracle.max_sat_brute(f)
        sol = oracle.cvp_enumerate(inst.basis, inst.target, inst.p, (0, 1), TOL)
        decided_yes = sol.distance <= inst.radius * (1 + REL)
        assert decided_yes == (best == f.m), f"seed {seed}: decision mismatch"
        assert sorted(sol.closest) == sorted(optimal), f"seed {seed}: witness sets differ"
        outcomes.add(decided_yes)
    assert outcomes == {True, False}, "instance mix failed to cover both decisions"
    # non-binary exclusion on the enlarged box at n = 6
    f = random_3sat(6, 12, 777)
    inst = reductions.sat_to_cvp(f, gadget)
    report = oracle.validate_reduction(f, inst, box=(-1, 2))
    assert report.passed
    assert any(c.name == "non-binary-exclusion" and c.passed for c in report.conditions)
    elapsed = time.monotonic() - start
    _announce(7, elapsed < 60.0, f"20/20 decisions and witness sets match in {elapsed:.2f}s")


def test_criterion_08_gap_reduction_separation():
    s, c = 0.6, 0.95
    lattice = {b: gadgets.to_isolating_lattice(gadgets.parity_gadget(3, 1.0, b)) for b in (0, 1)}
    bound = reductions.parity_gap_params(1.0, 3, s, c).gamma_bound
    rng = random.Random(8)
    for n in (6, 8):
        # variable triples covering every index, then random fill
        base_triples = [tuple(sorted((v, v % n + 1, (v + 1) % n + 1))) for v in range(1, n + 1, 2)]

        # planted satisfiable instance: value 1 >= c
        truth = [rng.randint(0, 1) for _ in range(n)]
        yes_constraints = []
        for variables in base_triples + [
            tuple(sorted(rng.sample(range(1, n + 1), 3))) for _ in range(2 * n)
        ]:
            yes_constraints.append(XorConstraint(variables, sum(truth[v - 1] for v in variables) % 2))
        f_yes = CspFormula(n=n, constraints=yes_constraints)
        inst, gamma = reductions.csp_to_cvp_gap(
            f_yes, [lattice[x.bit] for x in yes_constraints], s, c
        )
        assert gamma >= bound
        sol = oracle.cvp_enumerate(inst.basis, inst.target, inst.p, (-1, 2), TOL)
        assert sol.distance <= inst.radius * (1 + REL), f"n={n}: planted instance beyond radius"

        # contradictory pairs: value exactly 1/2 < s
        no_constraints = []
        for variables in base_triples + [
            tuple(sorted(rng.sample(range(1, n + 1), 3))) for _ in range(n)
        ]:
            no_constraints.append(XorConstraint(variables, 0))
            no_constraints.append(XorConstraint(variables, 1))
        f_no = CspFormula(n=n, constraints=no_constraints)
        best, _ = oracle.max_sat_brute(f_no)
        assert best / f_no.m == 0.5
        inst, gamma = reductions.csp_to_cvp_gap(f_no, [lattice[x.bit] for x in no_constraints], s, c)
        sol = oracle.cvp_enumerate(inst.basis, inst.target, inst.p, (-1, 2), TOL)
        assert sol.distance > gamma * inst.radius * (1 - REL), f"n={n}: gap separation failed"
    _announce(8, True, f"separation held at n=6,8 with gamma >= {bound:.7f}")


def test_criterion_09_preprocessing_reductions():
    gadget = gadgets.find_isolating_parallelepiped(4, 2.5)
    onoff = gadgets.to_on_off(gadget)
    art = reductions.cvpp_preprocess(6, 3, onoff)
    assert art.M == 160
    digest_before = hashlib.sha256(serialize.dumps(serialize.cvpp_to_json(art)).encode() + art.basis.tobytes()).hexdigest()
    agreements = 0
    for seed in range(10):
        f = random_3sat(6, 10, 1000 + seed, distinct=True)
        target, radius = reductions.cvpp_query(art, f)
        sol = oracle.cvp_enumerate(art.basis, target, onoff.p, (0, 1), TOL)
        best, _ = oracle.max_sat_brute(f)
        assert (sol.distance <= radius * (1 + REL)) == (best == f.m), f"seed {seed}"
        agreements += 1
    digest_after = hashlib.sha256(serialize.dumps(serialize.cvpp_to_json(art)).encode() + art.basis.tobytes()).hexdigest()
    assert digest_before == digest_after, "basis bytes changed across queries"

    art_inf = reductions.cvpp_preprocess(10, 3, None)
    for seed in range(6):
        f = random_3sat(10, 14, 2000 + seed, distinct=True)
        target, radius = reductions.cvpp_query(art_inf, f)
        assert radius == 1.5
        sol = oracle.cvp_enumerate(art_inf.basis, target, math.inf, (0, 1), TOL)
        best, _ = oracle.max_sat_brute(f)
        assert (sol.distance <= radius + 1e-12) == (best == f.m), f"inf seed {seed}"
    _announce(9, True, f"one 160-block basis served {agreements} queries; max-norm decisions at r=1.5 match")


def test_criterion_10_theta_constants():
    p0 = identities.find_p0(tol=1e-6)
    assert abs(p0 - 2.13972) <= 1e-3, f"threshold exponent {p0}"
    grid = np.linspace(2.2, 6.0, 12)
    ws = [identities.w_constant(float(p)) for p in grid]
    cs = [identities.svp_constants(float(p)).C for p in grid]
    assert all(c is not None and 0 < c < math.inf for c in cs)
    assert all(a > b for a, b in zip(ws, ws[1:])), "W not monotone decreasing"
    assert all(a > b for a, b in zip(cs, cs[1:])), "C not decreasing on the grid"
    _announce(10, True, f"p0 = {p0:.5f}; W and C decreasing on ({grid[0]}, {grid[-1]}]")


def test_criterion_11_combinatorics():
    successes = 0
    trials = 0
    for n, d, seeds in ((16, 2, range(50)), (12, 3, range(50))):
        bound = cubes.min_set_size(n, d)
        for seed in seeds:
            rng = random.Random(seed)
            points = set()
            while len(points) < bound:
                points.add(rng.randrange(2**n))
            cube = cubes.find_affine_cube(points, d=d, n=n)
            trials += 1
            if cube is not None and cube.points() <= points and cube.dim == d:
                successes += 1
    assert successes == trials == 100

    rng = random.Random(99)
    for _ in range(50):
        n = 10
        size = rng.randint(1, 16)
        points = set()
        while len(points) < size:
            points.add(rng.randrange(2**n))
        clause = cubes.clause_isolating_one(points, k=4, n=n)
        count = sum(
            clause.satisfied(tuple(cubes.bit(x, j) for j in range(1, n + 1))) for x in points
        )
        assert count == len(points) - 1

    report4 = cubes.closest_square_structure(
        np.eye(3), np.full(3, 0.5), [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], box=(0, 1)
    )
    report8 = cubes.closest_square_structure(
        np.eye(3), np.full(3, 0.5), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], box=(0, 1)
    )
    assert report4.passed and report8.passed
    _announce(11, True, "100/100 cubes found; clause counts exact; square structure rigid")
