import math
from fractions import Fraction

import pytest

from latgad import distmatrix, identities
from latgad.errors import InvalidInputError


class TestBinomSum:
    def test_alternating_hand_sums(self):
        assert identities.binom_sum(3, 1, 1, alternating=True) == 2
        assert identities.binom_sum(4, 2, 1, alternating=True) == -4
        assert identities.binom_sum(4, 2, 2, alternating=True) == 0

    def test_exact_integer_path(self):
        value = identities.binom_sum(40, 20, 3, alternating=True)
        assert isinstance(value, int)

    def test_float_path_for_half_integer_tau(self):
        value = identities.binom_sum(5, 2.5, 1)
        assert isinstance(value, float)
        direct = sum(math.comb(5, i) * abs(i - 2.5) for i in range(6))
        assert value == pytest.approx(direct)


class TestIntegralIdentity:
    def test_n2_m1_p1(self):
        assert identities.direct_alt_sum(2, 1, 1) == pytest.approx(-2.0)
        assert identities.alt_sum_integral(2, 1, 1) == pytest.approx(-2.0, rel=1e-8)

    def test_even_p_vanishes(self):
        assert identities.alt_sum_integral(3, 1, 2.0) == 0.0
        assert identities.direct_alt_sum(3, 1, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_n3_m0_fractional(self):
        direct = identities.direct_alt_sum(3, 0, 1.5)
        integral = identities.alt_sum_integral(3, 0, 1.5)
        assert integral == pytest.approx(direct, rel=1e-6)

    def test_p_range_validation(self):
        with pytest.raises(InvalidInputError):
            identities.alt_sum_integral(1, 1, 1.0)  # needs p < 2n - m = 1

    def test_small_grid(self):
        for n in (1, 2, 3):
            for m in range(n + 1):
                for p in (1.0, 1.5, 2.5):
                    if not p < 2 * n - m:
                        continue
                    direct = identities.direct_alt_sum(n, m, p)
                    integral = identities.alt_sum_integral(n, m, p)
                    assert integral == pytest.approx(direct, rel=1e-6, abs=1e-9)


class TestNormalizedSum:
    def test_k3_p1(self):
        res = identities.s_kp(3, 1)
        assert res.exact == Fraction(2, 3)
        assert res.sign == 1  # (-1)^(1 + 0 + 1)
        assert res.value >= res.lower_bound

    def test_pair_equality_exact(self):
        assert abs(identities.s_kp(4, 1).exact) == abs(identities.s_kp(3, 1).exact) == Fraction(2, 3)
        assert abs(identities.s_kp(8, 3).exact) == abs(identities.s_kp(7, 3).exact)

    def test_pair_equality_float(self):
        for k in (4, 6, 10):
            a = abs(identities.s_kp(k, 2.5).value)
            b = abs(identities.s_kp(k - 1, 2.5).value)
            assert a == pytest.approx(b, abs=1e-12)

    def test_monotone_decreasing_even_k(self):
        values = [abs(identities.s_kp(k, 1.5).value) for k in range(4, 41, 2)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_sign_formula_grid(self):
        for k in range(3, 12):
            for p in (1, 1.5, 2.5, 3):
                if not p < k:
                    continue
                res = identities.s_kp(k, p)
                assert res.sign == (-1) ** (k // 2 + math.floor(p / 2) + 1)

    def test_even_p_is_zero(self):
        res = identities.s_kp(5, 2)
        assert res.value == 0
        assert res.sign == 0


class TestLimitConstant:
    def test_p1_exact_half(self):
        res = identities.c_p_limit(1)
        # 2 * 1 * zeta(2) * 1.5 * Gamma(2) / pi^2 = 3 zeta(2) / pi^2 = 1/2
        assert res.value == pytest.approx(0.5, rel=1e-12)

    def test_even_p_zero(self):
        assert identities.c_p_limit(2).value == 0.0

    def test_p3_beats_weak_bound(self):
        res = identities.c_p_limit(3)
        assert res.weak_bound == pytest.approx(4 * (3 / (math.e * math.pi)) ** 3, rel=1e-12)
        assert res.value > res.weak_bound > 0.17

    def test_limit_lower_bounds_sums(self):
        for p in (1, 1.5, 2.5, 3):
            limit = identities.c_p_limit(p).value
            for k in range(4, 41, 4):
                if p < k:
                    assert abs(identities.s_kp(k, p).value) >= limit - 1e-12


class TestNonAlternatingBound:
    def test_hand_example(self):
        rep = identities.non_alt_bound_check(4, 1, 0)
        assert rep.lhs == pytest.approx(12.0)
        assert rep.rhs == pytest.approx(132.0)
        assert rep.passed

    def test_grid(self):
        for k in range(2, 31, 2):
            for p in (1, 1.5, 2.5, 4.5):
                if not p < k:
                    continue
                for c in (0, 1, 2):
                    assert identities.non_alt_bound_check(k, p, c).passed

    def test_c1_specialization(self):
        rep = identities.non_alt_bound_check(5, 2, 1)
        assert rep.rhs_c1 is not None
        assert rep.passed_c1


class TestFactorialRatioIdentity:
    def test_k1_x1_closed_form(self):
        expected = math.sinh(math.pi) / math.pi * 0.5
        assert identities.factorial_ratio(1, 1.0) == pytest.approx(expected, rel=1e-12)
        assert identities.sinh_product(1, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_small_x_limit(self):
        assert identities.factorial_ratio(5, 1e-8) == pytest.approx(1.0, abs=1e-9)
        assert identities.sinh_product(5, 1e-8) == pytest.approx(1.0, abs=1e-9)

    def test_residual_k10(self):
        assert identities.ramanujan_check(10, 2.5) <= 1e-10

    def test_monotone_in_k(self):
        for k in range(2, 15):
            assert identities.factorial_ratio(k, 1.7) < identities.factorial_ratio(k - 1, 1.7)

    def test_x_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            identities.ramanujan_check(3, 0.0)


class TestThetaConstants:
    def test_theta_at_least_one(self):
        for p in (2.5, 3, 5):
            for tau in (0.01, 1.0, 30.0):
                assert identities.theta_series(p, tau) >= 1.0

    def test_threshold_exponent(self):
        assert identities.find_p0(tol=1e-6) == pytest.approx(2.13972, abs=1e-3)

    def test_w_decreasing_in_p(self):
        grid = [2.2, 2.5, 3.0, 4.0, 5.0, 6.0]
        values = [identities.w_constant(p) for p in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_constant_undefined_below_threshold(self):
        assert identities.svp_constants(2.05).C is None
        above = identities.svp_constants(3.0)
        assert above.C is not None and above.C > 0

    def test_p_validation(self):
        with pytest.raises(InvalidInputError):
            identities.w_constant(1.5)


class TestCrossModule:
    @pytest.mark.parametrize("k,p", [(3, 1.0), (4, 1.5), (5, 2.5), (6, 3.0)])
    def test_parity_eigenvalue_matches_binom_sum(self, k, p):
        shift = (1 + (-1) ** (k + 1)) / 2
        lam_par = distmatrix.eigen_report(k, p, shift).by_size[k]
        via_sum = 2.0**p * float(identities.binom_sum(k, k // 2, p, alternating=True))
        assert lam_par == pytest.approx(via_sum, rel=1e-9, abs=1e-9)
