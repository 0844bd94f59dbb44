import hashlib
import json
import math
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgad import gadgets, numeric, oracle, reductions, serialize
from latgad.errors import InvalidInputError, ResourceLimitError, UnsupportedParametersError
from latgad.formulas import Clause, CspFormula, XorConstraint, parse_dimacs
from latgad.numeric import pnorm


@pytest.fixture(scope="module")
def gadget3():
    return gadgets.find_isolating_parallelepiped(3, 2.5)


@pytest.fixture(scope="module")
def onoff2(gadget3):
    return gadgets.to_on_off(gadget3)


@pytest.fixture(scope="module")
def parity_lattices():
    return {
        0: gadgets.to_isolating_lattice(gadgets.parity_gadget(3, 1.0, 0)),
        1: gadgets.to_isolating_lattice(gadgets.parity_gadget(3, 1.0, 1)),
    }


def random_3sat(n, m, seed, distinct=False):
    rng = random.Random(seed)
    clauses, seen = [], set()
    while len(clauses) < m:
        variables = sorted(rng.sample(range(1, n + 1), 3))
        literals = tuple(v if rng.random() < 0.5 else -v for v in variables)
        if distinct and literals in seen:
            continue
        seen.add(literals)
        clauses.append(Clause(literals))
    return CspFormula(n=n, constraints=clauses)


def live(gadget):
    """The gadget's V and t without its all-zero (row, target) pairs: the rows
    each clause block of an instance carries."""
    keep = ~(np.all(gadget.V == 0, axis=1) & (gadget.t == 0))
    return gadget.V[keep], gadget.t[keep]


def clause_block(gadget_V, gadget_t, clause, n):
    """Block matrix and shifted target for one clause: column s of the gadget
    lands on the clause's s-th variable, negated literals flip the sign and
    shift the target.  Unused gadget columns act as always-false literals."""
    d = gadget_t.size
    block = np.zeros((d, n))
    t = gadget_t.copy()
    for s, lit in enumerate(clause.literals):
        col = gadget_V[:, s]
        if lit > 0:
            block[:, lit - 1] += col
        else:
            block[:, -lit - 1] -= col
            t -= col
    return block, t


def parity_block(gadget_V, gadget_t, constraint, n):
    """Block matrix and target for one parity constraint: column s of the
    gadget lands on its s-th variable, and the target is the gadget's."""
    block = np.zeros((gadget_t.size, n))
    for pos, var in enumerate(constraint.variables):
        block[:, var - 1] += gadget_V[:, pos]
    return block, gadget_t


def without_zero_pairs(inst):
    keep = ~(np.all(inst.basis == 0, axis=1) & (inst.target == 0))
    return inst.basis[keep], inst.target[keep]


class TestSatToCvp:
    def test_single_clause_block_distances(self, gadget3):
        f = CspFormula(n=3, constraints=[Clause((1, 2, 3))])
        inst = reductions.sat_to_cvp(f, gadget3)
        d_live = live(gadget3)[1].size
        block = inst.basis[:d_live, :]
        t = inst.target[:d_live]
        for z in product((0, 1), repeat=3):
            dist = pnorm(block @ np.array(z, float) - t, gadget3.p)
            if any(z):
                assert dist == pytest.approx(1.0, abs=1e-9)
            else:
                assert dist == pytest.approx(1.0 + gadget3.eps, rel=1e-9)

    def test_gadget_must_isolate_the_plain_clause(self, gadget3):
        # a parity level, or a clause with a negated position, is not the
        # plain clause's: the instance would not encode the formula
        f = CspFormula(n=3, constraints=[Clause((1, 2, 3))])
        parity = gadgets.parity_gadget(3, 1.0, 0)
        negated = gadgets.IsolatingGadget(
            p=gadget3.p, k=3, V=gadget3.V, t=gadget3.t, eps=gadget3.eps,
            kind=gadgets.KIND_TWO_LEVEL, constraint=gadgets.clause_constraint([2]),
        )
        for g in (parity, gadgets.to_isolating_lattice(parity), negated):
            with pytest.raises(InvalidInputError, match="plain clause"):
                reductions.sat_to_cvp(f, g)
        for g in (gadget3, gadgets.to_isolating_lattice(gadget3)):
            assert reductions.sat_to_cvp(f, g).meta["mode"] == "padded"

    def test_negated_literal_flips_sign_and_shifts(self, gadget3):
        f = CspFormula(n=3, constraints=[Clause((-1, 2, 3))])
        inst = reductions.sat_to_cvp(f, gadget3)
        V, t = live(gadget3)
        assert np.allclose(inst.basis[: t.size, 0], -V[:, 0])
        assert np.allclose(inst.target[: t.size], t - V[:, 0])

    def test_short_clause_leaves_columns_unused(self, gadget3):
        f = CspFormula(n=2, constraints=[Clause((1, -2))])
        inst = reductions.sat_to_cvp(f, gadget3)
        d_live = live(gadget3)[1].size
        for z in product((0, 1), repeat=2):
            dist = pnorm(inst.basis[:d_live] @ np.array(z, float) - inst.target[:d_live], 2.5)
            expected = 1.0 if Clause((1, -2)).satisfied(z) else 1.0 + gadget3.eps
            assert dist == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("k,q", [(3, 3.0), (4, 3.0)])
    def test_padded_drops_only_zero_pairs(self, monkeypatch, k, q):
        gadget = gadgets.find_isolating_parallelepiped(k, q)
        V, t = live(gadget)
        assert 0 < t.size < gadget.d
        rng = random.Random(k)
        clauses = [
            Clause(tuple(v if rng.random() < 0.5 else -v for v in sorted(rng.sample(range(1, 7), k))))
            for _ in range(9)
        ]
        f = CspFormula(n=6, constraints=clauses)
        inst = reductions.sat_to_cvp(f, gadget)
        with monkeypatch.context() as patch:
            patch.setattr(reductions, "_live_rows", lambda V, *targets: (V, *targets))
            full = reductions.sat_to_cvp(f, gadget)
        assert full.d == 9 * gadget.d + 6 and inst.d == 9 * t.size + 6
        basis, target = without_zero_pairs(full)
        assert np.array_equal(inst.basis, basis) and np.array_equal(inst.target, target)
        assert not np.any(np.all(inst.basis == 0, axis=1) & (inst.target == 0))
        assert inst.radius == full.radius and inst.meta == full.meta

    @pytest.mark.parametrize("kind", ["parity", "clause"])
    def test_gap_drops_only_zero_pairs(self, monkeypatch, parity_lattices, kind):
        rng = random.Random(3)
        if kind == "parity":
            constraints = [XorConstraint(tuple(sorted(rng.sample(range(1, 6), 3))), rng.randint(0, 1)) for _ in range(8)]
            lattices = [parity_lattices[c.bit] for c in constraints]
            for lattice in parity_lattices.values():
                assert (lattice.d, live(lattice)[1].size) == (11, 7)
        else:
            constraints = random_3sat(5, 8, 3).constraints
            lattices = [gadgets.to_isolating_lattice(gadgets.find_isolating_parallelepiped(3, 3.0))] * 8
            assert live(lattices[0])[1].size < lattices[0].d
        f = CspFormula(n=5, constraints=constraints)
        inst, gamma = reductions.csp_to_cvp_gap(f, lattices, s=0.6, c=0.9)
        with monkeypatch.context() as patch:
            patch.setattr(reductions, "_live_rows", lambda V, *targets: (V, *targets))
            full, full_gamma = reductions.csp_to_cvp_gap(f, lattices, s=0.6, c=0.9)
        assert full.d == 8 * lattices[0].d and inst.d < full.d
        basis, target = without_zero_pairs(full)
        assert np.array_equal(inst.basis, basis) and np.array_equal(inst.target, target)
        assert not np.any(np.all(inst.basis == 0, axis=1) & (inst.target == 0))
        assert (inst.radius, gamma) == (full.radius, full_gamma)

    @pytest.mark.parametrize("kind", ["isolating", "lattice"])
    def test_padded_matches_block_by_block_assembly(self, gadget3, kind):
        # each clause's block summed column by column in literal order and
        # then scaled, as one block per clause stacks them: bit for bit,
        # also for weights 0 and 4, repeated variables, x or not x, and
        # clauses shorter than the gadget
        gadget = gadget3 if kind == "isolating" else gadgets.to_isolating_lattice(gadget3)
        V, t = live(gadget)
        clauses = [(1, -2, 3), (2, 2), (-3, 3, 1), (-4,), (4, -1, -1), (-2, -3, -4), (1, 4)]
        f = CspFormula(n=4, constraints=[Clause(c) for c in clauses], weights=[1, 4, 0, 2, 3, 1, 5])
        inst = reductions.sat_to_cvp(f, gadget)
        blocks, targets = [], []
        for clause, w in zip(f.constraints, f.weights):
            if w:
                block, target = clause_block(V, t, clause, f.n)
                blocks.append(w ** (1.0 / gadget.p) * block)
                targets.append(w ** (1.0 / gadget.p) * target)
        alpha = inst.meta["alpha"]
        basis = np.vstack([*blocks, 2.0 * alpha * np.eye(f.n)])
        target = np.concatenate([*targets, alpha * np.ones(f.n)])
        assert inst.basis.tobytes() == basis.tobytes() and inst.target.tobytes() == target.tobytes()

    def test_alpha_and_radius_formulas(self, gadget3):
        f = random_3sat(5, 7, 3)
        inst = reductions.sat_to_cvp(f, gadget3)
        q = 2.5
        alpha = 7 ** (1 / q) * (1 + gadget3.eps)
        assert inst.meta["alpha"] == pytest.approx(alpha)
        r = (7 + 0 + 5 * alpha**q) ** (1 / q)  # W = m for plain SAT
        assert inst.radius == pytest.approx(r)

    def test_empty_formula(self, gadget3):
        f = CspFormula(n=4, constraints=[])
        inst = reductions.sat_to_cvp(f, gadget3)
        alpha = inst.meta["alpha"]
        assert inst.radius == pytest.approx(4 ** (1 / 2.5) * alpha)
        for z in product((0, 1), repeat=4):
            d = pnorm(inst.basis @ np.array(z, float) - inst.target, 2.5)
            assert d == pytest.approx(inst.radius, rel=1e-12)
        assert oracle.validate_reduction(f, inst).passed

    def test_weighted_block_is_scaled(self, gadget3):
        clause = Clause((1, -2, 3))
        plain = reductions.sat_to_cvp(CspFormula(n=3, constraints=[clause]), gadget3)
        inst = reductions.sat_to_cvp(CspFormula(n=3, constraints=[clause], weights=[3], threshold=3), gadget3)
        d_live = live(gadget3)[1].size
        assert inst.d == d_live + 3
        scale = 3 ** (1 / 2.5)
        np.testing.assert_allclose(inst.basis[:d_live], scale * plain.basis[:d_live], rtol=1e-15, atol=0)
        np.testing.assert_allclose(inst.target[:d_live], scale * plain.target[:d_live], rtol=1e-15, atol=0)

    def test_total_weight_above_ten_thousand_validates(self, gadget3):
        # the optimum 11001 (x1 = 1) falls short of the total 16001
        text = "p wcnf 4 4\n7000 1 0\n5000 -1 0\n4000 2 3 0\n1 -2 4 0\n"
        f = parse_dimacs(text)
        assert f.total_weight() == 16001 and oracle.max_sat_brute(f)[0] == 11001
        reachable = CspFormula(n=4, constraints=f.constraints, weights=f.weights, threshold=11001)
        for formula in (f, reachable):
            inst = reductions.sat_to_cvp(formula, gadget3)
            assert inst.d == 4 * live(gadget3)[1].size + 4
            report = oracle.validate_reduction(formula, inst, box=(-1, 2))
            assert report.passed, report.failures()

    def test_total_weight_limit_is_tight_and_validates(self, gadget3):
        limit = math.floor(reductions.max_padded_weight(4, 2.5, gadget3.eps))
        a, b = limit * 7 // 16, limit * 5 // 16
        clauses = [Clause((1,)), Clause((-1,)), Clause((2, 3)), Clause((-2, 4))]
        weights = [a, b, limit - a - b - 1, 1]
        best = oracle.max_sat_brute(CspFormula(n=4, constraints=clauses, weights=weights))[0]
        for threshold in (best, best + 1):
            f = CspFormula(n=4, constraints=clauses, weights=weights, threshold=threshold)
            report = oracle.validate_reduction(f, reductions.sat_to_cvp(f, gadget3), box=(-1, 2))
            assert report.passed, report.failures()
        with pytest.raises(ResourceLimitError, match="total weight exceeds"):
            reductions.sat_to_cvp(CspFormula(n=4, constraints=clauses, weights=weights[:3] + [2]), gadget3)

    def test_basis_over_the_cap_is_refused_before_it_is_built(self, monkeypatch, gadget3, parity_lattices):
        f = CspFormula(n=4, constraints=[Clause((1, 2, 3)), Clause((-1, 2, 4)), Clause((2, -3, 4)), Clause((1, 3, 4))])
        xor = CspFormula(n=4, constraints=[XorConstraint((1, 2, 3), 0), XorConstraint((2, 3, 4), 1)])
        lattice = gadgets.to_isolating_lattice(gadget3)
        builds = [
            lambda: reductions.sat_to_cvp(f, gadget3),
            lambda: reductions.csp_to_cvp_gap(f, [lattice] * f.m, s=0.6, c=0.9)[0],
            lambda: reductions.csp_to_cvp_gap(xor, [parity_lattices[0], parity_lattices[1]], s=0.6, c=0.9)[0],
        ]
        for build in builds:
            d, n = build().basis.shape
            monkeypatch.setattr(reductions, "MAX_BASIS_ENTRIES", d * n - 1)
            for name in ("zeros", "empty"):
                allocate = getattr(np, name)

                def guarded(shape, *args, allocate=allocate, **kwargs):
                    assert math.prod(np.atleast_1d(shape)) < d * n, "allocated the basis"
                    return allocate(shape, *args, **kwargs)

                monkeypatch.setattr(np, name, guarded)
            with pytest.raises(ResourceLimitError, match=f"basis of {d}x{n} entries exceeds cap {d * n - 1}"):
                build()
            monkeypatch.undo()

    def test_arity_above_gadget_rejected(self, gadget3):
        f = CspFormula(n=4, constraints=[Clause((1, 2, 3, 4))])
        with pytest.raises(InvalidInputError):
            reductions.sat_to_cvp(f, gadget3)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_distance_decomposition(self, gadget3, seed):
        rng = np.random.default_rng(seed)
        f = random_3sat(4, 5, seed)
        inst = reductions.sat_to_cvp(f, gadget3)
        z = rng.integers(-2, 3, size=4).astype(float)
        q = 2.5
        total = pnorm(inst.basis @ z - inst.target, q) ** q
        d_star = live(gadget3)[1].size
        parts = sum(
            pnorm(inst.basis[i * d_star : (i + 1) * d_star] @ z - inst.target[i * d_star : (i + 1) * d_star], q) ** q
            for i in range(5)
        )
        parts += pnorm(inst.basis[5 * d_star :] @ z - inst.target[5 * d_star :], q) ** q
        assert total == pytest.approx(parts, rel=1e-9)

    def test_witness_correspondence(self, gadget3):
        for seed in range(4):
            f = random_3sat(5, 9, seed)
            inst = reductions.sat_to_cvp(f, gadget3)
            best, optimal = oracle.max_sat_brute(f)
            sol = oracle.cvp_enumerate(inst.basis, inst.target, inst.p, (0, 1))
            assert sorted(sol.closest) == sorted(optimal)

    def test_non_binary_exclusion(self, gadget3):
        f = random_3sat(4, 6, 17)
        inst = reductions.sat_to_cvp(f, gadget3)
        report = oracle.validate_reduction(f, inst, box=(-1, 2))
        assert report.passed
        assert any(c.name == "non-binary-exclusion" for c in report.conditions)


class TestGapReduction:
    def _formula(self, seed, n=5, m=8):
        rng = random.Random(seed)
        constraints = [
            XorConstraint(tuple(sorted(rng.sample(range(1, n + 1), 3))), rng.randint(0, 1))
            for _ in range(m)
        ]
        return CspFormula(n=n, constraints=constraints)

    def test_c_equals_s_collapses_gamma(self, parity_lattices):
        f = self._formula(0)
        lattices = [parity_lattices[c.bit] for c in f.constraints]
        _, gamma = reductions.csp_to_cvp_gap(f, lattices, s=0.75, c=0.75)
        assert gamma == pytest.approx(1.0)

    def test_c_one_radius(self, parity_lattices):
        f = self._formula(1)
        lattices = [parity_lattices[c.bit] for c in f.constraints]
        inst, _ = reductions.csp_to_cvp_gap(f, lattices, s=0.6, c=1.0)
        assert inst.radius == pytest.approx(f.m ** (1 / 1.0))

    def test_gamma_formula(self, parity_lattices):
        f = self._formula(2)
        lattices = [parity_lattices[c.bit] for c in f.constraints]
        _, gamma = reductions.csp_to_cvp_gap(f, lattices, s=0.6, c=0.9)
        eps = lattices[0].eps
        grow = (1 + eps) ** 1.0
        shrink = 1 - 1 / grow
        assert gamma == pytest.approx((1 - 0.6 * shrink) / (1 - 0.9 * shrink))

    def test_matches_block_by_block_assembly(self, parity_lattices):
        # constraints on three interleaved lattice objects (parity bits 0 and
        # 1, and a clause lattice of another size) are placed per object and
        # scattered back: bit for bit the per-constraint blocks stacked in
        # constraint order, also for short clauses, repeated variables and
        # x or not x
        clause_lattice = gadgets.to_isolating_lattice(gadgets.find_isolating_parallelepiped(4, 1.0))
        constraints = [
            XorConstraint((1, 2, 3), 0),
            Clause((1, -2, 3)),
            XorConstraint((2, 4, 5), 1),
            Clause((2, 2)),
            Clause((-3, 3, 1, -4)),
            XorConstraint((1, 3, 5), 1),
            Clause((-4,)),
            XorConstraint((3, 4, 5), 0),
            Clause((4, -1, -1)),
            Clause((-2, -3, -4, 5)),
            XorConstraint((1, 2, 4), 1),
            Clause((1, 5)),
        ]
        lattices = [clause_lattice if isinstance(c, Clause) else parity_lattices[c.bit] for c in constraints]
        assert live(clause_lattice)[1].size != live(parity_lattices[0])[1].size
        f = CspFormula(n=5, constraints=constraints)
        inst, _ = reductions.csp_to_cvp_gap(f, lattices, s=0.6, c=0.9)
        blocks = [
            (clause_block if isinstance(constraint, Clause) else parity_block)(*live(lattice), constraint, f.n)
            for constraint, lattice in zip(constraints, lattices)
        ]
        basis, target = np.vstack([b for b, _ in blocks]), np.concatenate([t for _, t in blocks])
        assert inst.basis.tobytes() == basis.tobytes() and inst.target.tobytes() == target.tobytes()

    def test_clause_longer_than_its_lattice_rejected(self, parity_lattices):
        f = CspFormula(n=4, constraints=[XorConstraint((1, 2, 3), 0), Clause((1, -2, 3, 4))])
        with pytest.raises(InvalidInputError, match="clause arity exceeds its gadget arity"):
            reductions.csp_to_cvp_gap(f, [parity_lattices[0]] * 2, s=0.6, c=0.9)

    @pytest.mark.parametrize("variables", [(1, 2), (1, 2, 3, 4)], ids=["shorter", "longer"])
    def test_parity_arity_other_than_its_lattice_rejected(self, parity_lattices, variables):
        f = CspFormula(n=4, constraints=[XorConstraint(variables, 1), XorConstraint((2, 3, 4), 0)])
        with pytest.raises(InvalidInputError, match="parity constraint arity must match its gadget arity"):
            reductions.csp_to_cvp_gap(f, [parity_lattices[1], parity_lattices[0]], s=0.6, c=0.9)

    def test_unused_variable_rejected(self, parity_lattices):
        f = CspFormula(n=4, constraints=[XorConstraint((1, 2, 3), 0)])
        with pytest.raises(InvalidInputError):
            reductions.csp_to_cvp_gap(f, [parity_lattices[0]], s=0.6, c=0.9)

    @given(
        s=st.floats(min_value=0.55, max_value=0.9),
        dc=st.floats(min_value=0.0, max_value=0.09),
    )
    @settings(max_examples=30, deadline=None)
    def test_gamma_monotone(self, s, dc):
        # non-decreasing in c, non-increasing in s
        eps = 0.25
        c = s + dc
        g = reductions.gamma_from_eps(1.0, eps, s, c)
        assert reductions.gamma_from_eps(1.0, eps, s, min(c + 0.05, 0.999)) >= g - 1e-12
        assert reductions.gamma_from_eps(1.0, eps, max(0.51, s - 0.04), c) >= g - 1e-12


class TestGapParams:
    def test_printed_bound_value(self):
        params = reductions.parity_gap_params(1.0, 3, s=0.8, c=0.9)
        expected = 1.0 + 0.1 * (1.0 / 12.0) * (2.0 / (3.0 * math.e**2 * math.pi**2))
        assert params.gamma_bound == pytest.approx(expected, rel=1e-9)
        assert params.gamma_bound == pytest.approx(1.0000762, abs=2e-6)

    def test_s_equals_c(self):
        params = reductions.parity_gap_params(1.5, 4, s=0.8, c=0.8)
        assert params.gamma_bound == pytest.approx(1.0)

    def test_even_p_degenerate_flag(self):
        params = reductions.parity_gap_params(2.0, 4, s=0.7, c=0.9)
        assert params.degenerate
        assert params.gamma_bound == pytest.approx(1.0)

    def test_sharper_gamma_dominates_bound(self):
        lattice = gadgets.to_isolating_lattice(gadgets.parity_gadget(3, 1.0, 0))
        params = reductions.parity_gap_params(1.0, 3, s=0.8, c=0.9, eps=lattice.eps)
        assert params.gamma is not None
        assert params.gamma >= params.gamma_bound

    @pytest.mark.parametrize("k", range(3, 11))
    def test_gadget_gamma_dominates_bound_on_grid(self, k):
        # the paper's relation between gamma, p and k, for every parity
        # lattice the reductions build, both bits, at two promise gaps
        for p in (p for p in (1.0, 1.5, 2.5, 3.0, 5.0, 7.5) if k > p):
            for bit in (0, 1):
                lattice = gadgets.to_isolating_lattice(gadgets.parity_gadget(k, p, bit))
                for s, c in ((0.6, 0.95), (0.8, 0.9)):
                    params = reductions.parity_gap_params(p, k, s, c, eps=lattice.eps)
                    assert params.gamma >= params.gamma_bound, (k, p, bit, s, c)

    @pytest.mark.parametrize("eps", [-2.0, -1.0, -0.5, 0.0, math.nan, math.inf])
    def test_gap_factor_needs_positive_finite_eps(self, eps):
        with pytest.raises(InvalidInputError, match="eps must be finite and > 0"):
            reductions.gamma_from_eps(3.0, eps, 0.8, 0.9)

    def test_range_validation(self):
        with pytest.raises(InvalidInputError):
            reductions.parity_gap_params(1.0, 3, s=0.4, c=0.9)
        with pytest.raises(InvalidInputError):
            reductions.parity_gap_params(3.5, 3, s=0.8, c=0.9)  # k must exceed p


class TestSatGapParams:
    def test_promise_map(self):
        result = reductions.sat_gap_params(1.0, 3, s=1.0, c=1.0)
        assert result.s_prime == pytest.approx(4.0 / 7.0)
        assert result.c_prime == pytest.approx(4.0 / 7.0)

    def test_large_k_factor_limit(self):
        result = reductions.sat_gap_params(1.0, 12, s=1.0, c=1.0)
        assert result.s_prime == pytest.approx(0.5, abs=1e-3)

    def test_chained_gamma_matches_closed_form(self):
        p, k, s, c = 1.5, 4, 0.95, 1.0
        result = reductions.sat_gap_params(p, k, s, c)
        factor = 2.0 ** (k - 1) / (2.0**k - 1.0)
        expected = 1.0 + factor * (c - s) * abs(math.sin(math.pi * p / 2)) / (4 * p**3 * k) * (
            2 * p / (math.e**2 * math.pi**2 * k)
        ) ** ((p + 1) / 2)
        assert result.params.gamma_bound == pytest.approx(expected, rel=1e-12)

    def test_range_validation(self):
        with pytest.raises(InvalidInputError):
            reductions.sat_gap_params(1.0, 3, s=0.8, c=0.9)  # s must exceed 1 - 2^-k


def onoff_live_rows(g) -> np.ndarray:
    """The rows of the on-off gadget g that are nonzero in V, t_off or t_on:
    the rows a CVPP clause block keeps."""
    return np.any(g.V != 0, axis=1) | (g.t_off != 0) | (g.t_on != 0)


class TestCvppFinite:
    def test_clause_table_rank_is_enumeration_order(self, onoff2):
        from itertools import combinations

        # an lp prep at n=6, k=2, the cvpp-serve shape, and k = 1 and k = n; the
        # rank does not read the gadget, so the max-norm headers stand in
        arts = [reductions.cvpp_preprocess(6, 2, onoff2)]
        arts += [reductions.cvpp_header(n, k, None) for n, k in [(10, 3), (7, 1), (5, 5), (1, 1)]]
        for art in arts:
            n, k = art.n, art.k
            expected = 0
            for varset in combinations(range(1, n + 1), k):
                assert reductions._comb_rank(varset, n, k) == expected // 2**k
                for mask in range(2**k):
                    lits = tuple(-v if (mask >> (k - 1 - s)) & 1 else v for s, v in enumerate(varset))
                    pos, got_mask = art.clause_position(Clause(lits))
                    assert (pos, got_mask) == (expected, mask), (n, k, lits)
                    expected += 1
            assert expected == art.M

    def test_table_size(self, onoff2):
        art = reductions.cvpp_preprocess(6, 2, onoff2)
        assert art.M == 4 * math.comb(6, 2)
        live = onoff_live_rows(onoff2)
        assert 0 < live.sum() < onoff2.d
        assert art.d == art.M * live.sum() + 6

    def test_n_equals_k(self, onoff2):
        art = reductions.cvpp_preprocess(2, 2, onoff2)
        assert art.M == 4

    def test_sign_convention(self, onoff2):
        art = reductions.cvpp_preprocess(3, 2, onoff2)
        pos, mask = art.clause_position(Clause((-1, 2)))
        assert mask == 2  # first (sorted) literal negated
        live = onoff_live_rows(onoff2)
        rows = live.sum()
        block = art.basis[pos * rows : (pos + 1) * rows]
        assert np.allclose(block[:, 0], -onoff2.V[live, 0])
        assert np.allclose(block[:, 1], onoff2.V[live, 1])

    def test_query_radius_full_table(self, onoff2):
        art = reductions.cvpp_preprocess(3, 2, onoff2)
        all_clauses = []
        for a in (1, -1):
            for b in (2, -2):
                all_clauses.append(Clause((a, b)))
        for a in (1, -1):
            for b in (3, -3):
                all_clauses.append(Clause((a, b)))
        for a in (2, -2):
            for b in (3, -3):
                all_clauses.append(Clause((a, b)))
        f = CspFormula(n=3, constraints=all_clauses)
        _, radius = reductions.cvpp_query(art, f)
        q = onoff2.p
        alpha = art.M ** (1 / q) * (1 + onoff2.eps)
        expected = (art.M + 3 * alpha**q) ** (1 / q)  # m = M, W = m
        assert radius == pytest.approx(expected)

    def test_decisions_match_brute_force(self, onoff2):
        art = reductions.cvpp_preprocess(5, 2, onoff2)
        rng = random.Random(4)
        for _ in range(6):
            clauses, seen = [], set()
            while len(clauses) < 6:
                vs = tuple(sorted(rng.sample(range(1, 6), 2)))
                lits = tuple(v if rng.random() < 0.5 else -v for v in vs)
                if lits in seen:
                    continue
                seen.add(lits)
                clauses.append(Clause(lits))
            f = CspFormula(n=5, constraints=clauses)
            target, radius = reductions.cvpp_query(art, f)
            sol = oracle.cvp_enumerate(art.basis, target, onoff2.p, (0, 1))
            best, _ = oracle.max_sat_brute(f)
            assert (sol.distance <= radius * (1 + 1e-9)) == (best == f.m)

    def test_basis_stable_across_queries(self, onoff2):
        art = reductions.cvpp_preprocess(4, 2, onoff2)
        digest = hashlib.sha256(serialize.dumps(serialize.cvpp_to_json(art)).encode() + art.basis.tobytes()).hexdigest()
        f = CspFormula(n=4, constraints=[Clause((1, 2)), Clause((-3, 4))])
        reductions.cvpp_query(art, f)
        reductions.cvpp_query(art, CspFormula(n=4, constraints=[Clause((-1, -2))]))
        again = hashlib.sha256(serialize.dumps(serialize.cvpp_to_json(art)).encode() + art.basis.tobytes()).hexdigest()
        assert digest == again

    def test_duplicate_clause_rejected(self, onoff2):
        art = reductions.cvpp_preprocess(4, 2, onoff2)
        f = CspFormula(n=4, constraints=[Clause((1, 2)), Clause((2, 1))])
        with pytest.raises(InvalidInputError):
            reductions.cvpp_query(art, f)

    def test_clause_not_in_table(self, onoff2):
        art = reductions.cvpp_preprocess(4, 2, onoff2)
        f = CspFormula(n=4, constraints=[Clause((1, 1))])  # repeated variable
        with pytest.raises(InvalidInputError):
            reductions.cvpp_query(art, f)

    def test_weights_rejected(self, onoff2):
        art = reductions.cvpp_preprocess(4, 2, onoff2)
        f = CspFormula(n=4, constraints=[Clause((1, 2))], weights=[2])
        with pytest.raises(UnsupportedParametersError):
            reductions.cvpp_query(art, f)


class TestCvppMaxNorm:
    def test_residual_levels_k3(self):
        # satisfied clause rows land within 1, falsified at exactly 2,
        # absent-clause rows within 1.5
        art = reductions.cvpp_preprocess(4, 3, None)
        f = CspFormula(n=4, constraints=[Clause((1, 2, 3))])
        target, radius = reductions.cvpp_query(art, f)
        assert radius == 1.5
        pos, _ = art.clause_position(Clause((1, 2, 3)))
        y = np.array([0.0, 0.0, 0.0, 0.0])
        assert abs(art.basis[pos] @ y - target[pos]) == pytest.approx(2.0)
        y = np.array([1.0, 0.0, 0.0, 0.0])
        assert abs(art.basis[pos] @ y - target[pos]) <= 1.0
        other, _ = art.clause_position(Clause((1, 2, 4)))
        for z in product((0, 1), repeat=4):
            assert abs(art.basis[other] @ np.array(z, float) - target[other]) <= 1.5

    def test_decisions_match_brute_force(self):
        art = reductions.cvpp_preprocess(6, 3, None)
        rng = random.Random(11)
        for _ in range(6):
            clauses, seen = [], set()
            while len(clauses) < 9:
                vs = tuple(sorted(rng.sample(range(1, 7), 3)))
                lits = tuple(v if rng.random() < 0.5 else -v for v in vs)
                if lits in seen:
                    continue
                seen.add(lits)
                clauses.append(Clause(lits))
            f = CspFormula(n=6, constraints=clauses)
            target, radius = reductions.cvpp_query(art, f)
            sol = oracle.cvp_enumerate(art.basis, target, math.inf, (0, 1))
            best, _ = oracle.max_sat_brute(f)
            assert (sol.distance <= radius + 1e-12) == (best == f.m)

    def test_weights_rejected(self):
        art = reductions.cvpp_preprocess(4, 3, None)
        f = CspFormula(n=4, constraints=[Clause((1, 2, 3))], weights=[1])
        with pytest.raises(UnsupportedParametersError):
            reductions.cvpp_query(art, f)


class TestInstanceRank:
    """CvpInstance refuses a basis without full column rank; a finite basis
    in which every column has a row of its own (a row whose only nonzero
    entry is in that column) large enough for the SVD to tell needs no SVD."""

    @staticmethod
    def instance(basis):
        basis = np.asarray(basis, dtype=float)
        return reductions.CvpInstance(p=2.0, basis=basis, target=np.ones(basis.shape[0]), radius=1.0)

    @pytest.mark.parametrize(
        "basis",
        [
            # a diagonal tail with a zero on its diagonal
            [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [0.0, 0.0]],
            # a tail that is diagonal but for one entry, which repeats a column
            [[1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [0.0, 0.0]],
            [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
            # no tail at all: fewer rows than columns
            [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]],
            [[0.0, 0.0]],
        ],
    )
    def test_rank_deficient_is_refused(self, basis):
        assert np.linalg.matrix_rank(np.asarray(basis)) < len(basis[0])
        with pytest.raises(InvalidInputError, match="full column rank"):
            self.instance(basis)

    @pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0, -1.0])
    def test_radius_that_is_not_finite_and_positive_is_refused(self, radius):
        with pytest.raises(InvalidInputError, match="radius must be finite and > 0"):
            reductions.CvpInstance(p=2.0, basis=np.eye(2), target=np.ones(2), radius=radius)

    def test_diagonal_tail_needs_no_svd(self, monkeypatch):
        rank = np.linalg.matrix_rank
        calls = []
        monkeypatch.setattr(np.linalg, "matrix_rank", lambda M: calls.append(M.shape) or rank(M))
        # a zero column above a nonzero diagonal still has full rank
        self.instance([[5.0, 0.0], [7.0, 0.0], [-2.0, 0.0], [0.0, 1e-9]])
        # rows of their own certify their columns wherever they are
        self.instance([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        self.instance([[2.0, 3.0], [0.0, 4.0], [1.0, 1.0], [5.0, 0.0]])
        # a column's largest such entry is the one that counts
        self.instance([[5.0, 0.0], [0.0, 1e-300], [0.0, 3.0], [1.0, 1.0]])
        assert calls == []
        # a column with no row of its own goes to the SVD
        self.instance([[1.0, 2.0], [3.0, 4.0], [1.0, 0.0], [1.0, 1.0]])
        self.instance([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
        assert calls == [(4, 2), (3, 2)]
        # so does a column whose only such entry is too small for the SVD to
        # tell from zero, which it refuses as before
        with pytest.raises(InvalidInputError, match="full column rank"):
            self.instance([[5.0, 0.0], [7.0, 0.0], [-2.0, 0.0], [0.0, 1e-300]])
        assert calls == [(4, 2), (3, 2), (4, 2)]

    def test_certificate_agrees_with_svd(self, monkeypatch):
        # sparse bases whose entries span the whole float range, subnormals too
        rank, svds = np.linalg.matrix_rank, []
        monkeypatch.setattr(np.linalg, "matrix_rank", lambda M: svds.append(M.shape) or rank(M))
        rng = np.random.default_rng(5)
        certified = 0
        for _ in range(500):
            d, n = int(rng.integers(1, 9)), int(rng.integers(1, 5))
            mask = rng.random((d, n)) < 0.4
            basis = rng.integers(-2, 3, size=(d, n)) * mask * 10.0 ** rng.integers(-320, 150, size=(d, n))
            svds.clear()
            assert numeric.column_rank(basis) == rank(basis), basis
            certified += not svds
        assert certified >= 50

    def test_padded_and_cvpp_paths_make_no_svd(self, monkeypatch, gadget3, onoff2):
        monkeypatch.setattr(np.linalg, "matrix_rank", lambda M: pytest.fail("ran an SVD"))
        f = random_3sat(6, 11, 5)
        inst = reductions.sat_to_cvp(f, gadget3)
        back = serialize.instance_from_json(json.loads(serialize.dumps(serialize.instance_to_json(inst))))
        assert back.d == inst.d
        art = reductions.cvpp_preprocess(4, 2, onoff2)
        target, radius = reductions.cvpp_query(art, CspFormula(n=4, constraints=[Clause((1, -2))]))
        reductions.CvpInstance(p=art.p, basis=art.basis, target=target, radius=radius)

    def test_gap_path_checks_rank(self, monkeypatch, parity_lattices, gadget3):
        # csp_to_cvp_gap refuses unused variables, and every used variable
        # has a lattice's identity rows in some block, which certify the rank
        rank = np.linalg.matrix_rank
        monkeypatch.setattr(np.linalg, "matrix_rank", lambda M: pytest.fail("ran an SVD"))
        f = CspFormula(n=4, constraints=[XorConstraint((1, 2, 3), 0), XorConstraint((2, 3, 4), 1)])
        parity, _ = reductions.csp_to_cvp_gap(f, [parity_lattices[0], parity_lattices[1]], s=0.6, c=0.9)
        f = random_3sat(8, 30, 4)
        lattice = gadgets.to_isolating_lattice(gadget3)
        clauses, _ = reductions.csp_to_cvp_gap(f, [lattice] * f.m, s=0.6, c=0.9)
        for inst in (parity, clauses):
            assert rank(inst.basis) == inst.n
