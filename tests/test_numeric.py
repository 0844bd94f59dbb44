import math
from itertools import chain, combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgad.errors import InvalidInputError
from latgad.numeric import (
    Tolerance,
    abs_powers,
    box_volume,
    integer_grid,
    pnorm,
    pnorm_pow,
    pvalue,
    row_pnorms,
    sin_half_pi,
)

finite_vec = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=8
)
pvals = st.one_of(st.floats(min_value=1.0, max_value=8.0), st.just(math.inf))


class TestPNorm:
    def test_examples(self):
        assert pnorm((3, 4), 2) == pytest.approx(5.0)
        assert pnorm((1, -1, 1), 1) == pytest.approx(3.0)
        assert pnorm((1, -2, 0.5), math.inf) == pytest.approx(2.0)

    def test_empty_vector_is_zero(self):
        assert pnorm([], 2) == 0.0

    def test_rejects_bad_exponent(self):
        with pytest.raises(InvalidInputError):
            pnorm((1, 2), 0.5)
        with pytest.raises(InvalidInputError):
            pvalue(0.99)

    @given(v=finite_vec, p=pvals, scale=st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_absolute_homogeneity(self, v, p, scale):
        lhs = pnorm([scale * x for x in v], p)
        rhs = abs(scale) * pnorm(v, p)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @given(u=finite_vec, w=finite_vec, p=pvals)
    def test_triangle_inequality(self, u, w, p):
        n = min(len(u), len(w))
        u, w = u[:n], w[:n]
        both = pnorm([a + b for a, b in zip(u, w)], p)
        assert both <= pnorm(u, p) + pnorm(w, p) + 1e-9 * (1 + both)

    def test_exact_integer_power_sum(self):
        assert pnorm_pow([3, -4, 5], 3) == 27 + 64 + 125
        assert isinstance(pnorm_pow([3, -4], 2), int)
        big = pnorm_pow([10**9, -(10**9)], 4)
        assert big == 2 * 10**36  # exceeds binary64 precision, must be exact
        assert isinstance(pnorm_pow([1.5, 2.0], 2), float)

    def test_sin_half_pi_exact_at_integers(self):
        assert sin_half_pi(2) == 0.0
        assert sin_half_pi(4) == 0.0
        assert sin_half_pi(1) == 1.0
        assert sin_half_pi(3) == -1.0
        assert sin_half_pi(2.5) == pytest.approx(math.sin(1.25 * math.pi))


def sign_cube(k):
    """{-1, +1}^k as 2x - 1 over the {0, 1} grid, the one cube order in use."""
    (x,) = integer_grid([(0, 1)] * k, 2**k)
    return 2 * x - 1


class TestCubeIndexing:
    def test_lex_order_starts_at_all_minus(self):
        pts = [tuple(y) for y in sign_cube(3).tolist()]
        assert pts[0] == (-1, -1, -1)
        assert pts[-1] == (1, 1, 1)
        assert pts == sorted(pts)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_index_round_trip(self, k):
        # row i of the grid holds the binary digits of i, most significant first
        (x,) = integer_grid([(0, 1)] * k, 2**k)
        assert x.dtype == np.int64
        for idx, bits in enumerate(x):
            assert np.ravel_multi_index(tuple(bits), (2,) * k) == idx
            assert [int(b) for b in np.binary_repr(idx, width=k)] == bits.tolist()

    def test_index_formula(self):
        # index = sum_i b_i 2^(k-1-i) with b_i = (c_i + 1) / 2
        coords = (1, -1, 1, 1)
        bits = [(c + 1) // 2 for c in coords]
        expected = sum(b * 2 ** (len(coords) - 1 - i) for i, b in enumerate(bits))
        assert tuple(sign_cube(4)[expected]) == coords

    def test_binary_points_match_cube_order(self):
        (x,) = integer_grid([(0, 1)] * 3, 8)
        assert [tuple(z) for z in x.tolist()] == list(product((0, 1), repeat=3))
        assert [tuple(y) for y in sign_cube(3).tolist()] == list(product((-1, 1), repeat=3))


class TestFourierVectors:
    """The character-table oracle the eigenvalue tests check H v = lambda v with."""

    def test_examples(self, fourier_vector):
        assert fourier_vector((), 2).tolist() == [1, 1, 1, 1]
        assert fourier_vector({1, 2}, 2).tolist() == [1, -1, -1, 1]
        assert fourier_vector({2}, 2).tolist() == [-1, 1, -1, 1]

    def test_rejects_out_of_range(self, fourier_vector):
        with pytest.raises(ValueError):
            fourier_vector({3}, 2)

    def test_matches_character_products(self, fourier_vector):
        k = 4
        pts = sign_cube(k)
        for subset in [(1,), (2, 4), (1, 2, 3), (1, 2, 3, 4)]:
            v = fourier_vector(subset, k)
            for idx, x in enumerate(pts):
                assert v[idx] == math.prod(x[i - 1] for i in subset)

    @pytest.mark.parametrize("k", [2, 4, 6, 10])
    def test_orthogonality(self, k, fourier_vector):
        subsets = list(chain.from_iterable(combinations(range(1, k + 1), r) for r in range(k + 1)))
        F = np.array([fourier_vector(s, k) for s in subsets])
        gram = F @ F.T
        assert np.array_equal(gram, 2**k * np.eye(2**k, dtype=np.int64))

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_split_recurrence(self, k, fourier_vector):
        # characters of dimension k are exactly the half-vectors (+-v, v)
        def all_tables(dim):
            subs = chain.from_iterable(combinations(range(1, dim + 1), r) for r in range(dim + 1))
            return {tuple(fourier_vector(s, dim)) for s in subs}

        built = set()
        subs = chain.from_iterable(combinations(range(1, k), r) for r in range(k))
        for s in subs:
            v = tuple(fourier_vector(s, k - 1)) if k > 1 else (1,)
            built.add(v + v)
            built.add(tuple(-x for x in v) + v)
        assert built == all_tables(k)
        assert len(built) == 2 * 2 ** (k - 1)


class TestGridHelpers:
    def test_grid_enumeration_order_and_volume(self):
        ranges = [(-1, 1), (0, 2)]
        rows = np.vstack(list(integer_grid(ranges, chunk_size=4)))
        assert rows.shape == (9, 2)
        assert rows[0].tolist() == [-1, 0]
        assert rows[-1].tolist() == [1, 2]
        assert box_volume(ranges) == 9
        # ascending mixed radix: last coordinate fastest
        assert rows[1].tolist() == [-1, 1]

    @pytest.mark.parametrize(
        "ranges,chunk",
        [
            ([(0, 1)] * 3, 3),
            ([(-1, 2), (0, 1), (3, 5)], 7),
            ([(-3, 4)] * 2, 1),
            ([(2, 2)], 4),
            ([(0, 1)] * 14, 1000),
            # past the 64 dimensions np.unravel_index takes
            ([(0, 0)] * 69 + [(-1, 1)], 2),
        ],
    )
    def test_chunks_match_product_order(self, ranges, chunk):
        want = list(product(*(range(lo, hi + 1) for lo, hi in ranges)))
        chunks = list(integer_grid(ranges, chunk))
        assert [len(c) for c in chunks[:-1]] == [chunk] * (len(chunks) - 1)
        assert all(c.dtype == np.int64 and c.shape[1] == len(ranges) for c in chunks)
        assert [tuple(r) for c in chunks for r in c.tolist()] == want

    def test_empty_box_is_one_point(self):
        # the split oracle walk asks for this when the whole box fits in its table
        (row,) = integer_grid([], 5)
        assert row.shape == (1, 0) and row.dtype == np.int64
        assert box_volume([]) == 1

    def test_tolerance_policy(self):
        tol = Tolerance(rel=1e-9, abs=1e-12)
        # relative against the scale, the absolute floor near zero
        assert tol.allowance(2.0) == 2e-9 and tol.allowance(-2.0) == 2e-9
        assert tol.allowance(1e-4) == 1e-12 and tol.allowance(0.0) == 1e-12
        assert tol.ceiling(1.0) == 1.0 + 1e-9 + 1e-12
        assert tol.ceiling(0.0) == 1e-12
        with pytest.raises(InvalidInputError):
            Tolerance(rel=0.0)


def float_pow_pnorms(x, q):
    """The float-pow kernel integer q used to go through."""
    return np.sum(np.abs(x) ** q, axis=1) ** (1 / q)


class TestRowPNorms:
    @pytest.mark.parametrize("q", range(1, 9))
    @pytest.mark.parametrize("seed", range(4))
    def test_integer_q_matches_float_pow(self, q, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((50, int(rng.integers(1, 40)))) * 10.0 ** rng.integers(-3, 4)
        x[0] = 0.0
        np.testing.assert_allclose(row_pnorms(x, q), float_pow_pnorms(x, q), rtol=1e-14, atol=0)
        np.testing.assert_allclose(row_pnorms(x, float(q)), float_pow_pnorms(x, q), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("q", [1.5, 2.5, math.pi, 9, 12.0])
    def test_other_finite_q_keep_float_pow(self, q):
        x = np.random.default_rng(7).standard_normal((30, 11))
        assert np.array_equal(row_pnorms(x, q), float_pow_pnorms(x, q))

    def test_inf_is_row_max(self):
        x = np.random.default_rng(8).standard_normal((30, 11))
        assert np.array_equal(row_pnorms(x, math.inf), np.abs(x).max(axis=1))

    @pytest.mark.parametrize("q", [1, 1.0, 2, 3, 8, 2.5, 9, math.inf])
    def test_abs_powers_elementwise(self, q):
        # p = 1 is |x|, not the multiplication path's x * x
        x = np.random.default_rng(10).standard_normal((7, 5)) * 3.0
        expected = np.abs(x) if math.isinf(q) else np.abs(x) ** q
        np.testing.assert_allclose(abs_powers(x, q), expected, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 2.5, math.inf])
    def test_input_unchanged_and_scratch_reused(self, q):
        x = np.random.default_rng(9).standard_normal((20, 6))
        before = x.copy()
        row_pnorms(x, q)
        abs_powers(x, q)
        assert np.array_equal(x, before)
