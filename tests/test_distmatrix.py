import math
from itertools import chain, combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgad import distmatrix, gadgets
from latgad.errors import NumericDegeneracyError, ResourceLimitError
from latgad.numeric import integer_grid, pnorm


def all_subsets(k):
    return chain.from_iterable(combinations(range(1, k + 1), r) for r in range(k + 1))


class TestBuild:
    def test_k1_p1_examples(self):
        H = distmatrix.distance_matrix(1, 1, 2.0)
        assert H.tolist() == [[1.0, 3.0], [3.0, 1.0]]
        H = distmatrix.distance_matrix(1, 1, 1.5)
        assert H.tolist() == [[0.5, 2.5], [2.5, 0.5]]

    def test_single_entry_k2_p2(self):
        H = distmatrix.distance_matrix(2, 2, 3.0)
        # u = (-1,-1) is index 0, y = (1,1) is index 3; |<u,y> - 3|^2 = 25
        assert H[0, 3] == pytest.approx(25.0)
        assert np.allclose(H, H.T)

    def test_k_cap(self):
        with pytest.raises(ResourceLimitError):
            distmatrix.distance_matrix(15, 2, 1.0)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_block_recurrence(self, k):
        # splitting on the leading coordinate shifts the target by -+1
        shift, p = k + 0.375, 2.5
        H = distmatrix.distance_matrix(k, p, shift)
        minus = distmatrix.distance_matrix(k - 1, p, shift - 1)
        plus = distmatrix.distance_matrix(k - 1, p, shift + 1)
        half = 2 ** (k - 1)
        assert np.allclose(H[:half, :half], minus)
        assert np.allclose(H[half:, half:], minus)
        assert np.allclose(H[:half, half:], plus)
        assert np.allclose(H[half:, :half], plus)


class TestEigenvalues:
    def test_hand_examples(self):
        assert distmatrix.eigen_report(1, 1, 2.0).by_size[0] == pytest.approx(4.0)
        assert distmatrix.eigen_report(1, 1, 2.0).by_size[1] == pytest.approx(-2.0)
        # even p below k: the full-parity eigenvalue vanishes identically
        assert distmatrix.eigen_report(4, 2, 4.0).by_size[4] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k,p,shift", [(2, 1.5, 2.5), (3, 2.5, 3.5), (4, 3.0, 1.25), (3, 1.0, 1.0)])
    def test_eigen_action(self, k, p, shift, fourier_vector):
        H = distmatrix.distance_matrix(k, p, shift)
        for subset in all_subsets(k):
            lam = distmatrix.eigen_report(k, p, shift).by_size[len(subset)]
            v = fourier_vector(subset, k).astype(float)
            residual = np.abs(H @ v - lam * v).max()
            assert residual <= 1e-9 * (1.0 + abs(lam))

    def test_eigen_action_k8(self, fourier_vector):
        k, p, shift = 8, 2.5, 8.5
        H = distmatrix.distance_matrix(k, p, shift)
        for subset in [(), (3,), (1, 5), tuple(range(1, 9))]:
            lam = distmatrix.eigen_report(k, p, shift).by_size[len(subset)]
            v = fourier_vector(subset, k).astype(float)
            assert np.abs(H @ v - lam * v).max() <= 1e-9 * (1.0 + abs(lam))

    def test_matches_direct_character_sum(self):
        k, p, shift = 3, 2.5, 1.75
        for subset in all_subsets(k):
            direct = sum(
                math.prod(x[i - 1] for i in subset) * abs(sum(x) - shift) ** p
                for x in product((-1, 1), repeat=k)
            )
            assert distmatrix.eigen_report(k, p, shift).by_size[len(subset)] == pytest.approx(direct)

    @pytest.mark.parametrize(
        "k,p,shift",
        [(2, 2, 2.2), (3, 1.5, 3.5), (4, 2.5, 4.5), (3, 3.0, 0.8), (6, 2.5, 6.5), (8, 2.5, 8.5)],
    )
    def test_matches_eigvalsh(self, k, p, shift):
        # the whole spectrum: by_size[s] repeated C(k, s) times is every
        # eigenvalue of the symmetric matrix, not only their product
        report = distmatrix.eigen_report(k, p, shift)
        spectrum = np.sort(np.repeat(report.by_size, [math.comb(k, s) for s in range(k + 1)]))
        dense = np.linalg.eigvalsh(distmatrix.distance_matrix(k, p, shift))
        assert np.abs(spectrum - dense).max() <= 1e-12 * report.lambda_all

    @given(
        k=st.integers(min_value=1, max_value=6),
        p=st.floats(min_value=1.0, max_value=6.0),
        shift=st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_ones_eigenvalue_positive(self, k, p, shift):
        assert distmatrix.eigen_report(k, p, shift).by_size[0] > 0.0


def term_by_term(k, p, shift):
    """The spectrum and the class system Q summed term by term: one fsum
    term per (a, b) for by_size[s], with a of the s subset coordinates at -1
    and b of the others, and one per shared count m for Q[J][j]."""
    power = [abs(k - 2 * r - shift) ** p for r in range(k + 1)]
    by_size = [
        math.fsum(
            (-1) ** a * math.comb(s, a) * math.comb(k - s, b) * power[a + b]
            for a in range(s + 1)
            for b in range(k - s + 1)
        )
        for s in range(k + 1)
    ]
    Q = [
        [
            math.fsum(
                math.comb(J, m) * math.comb(k - J, j - m) * power[J + j - 2 * m]
                for m in range(max(0, J + j - k), min(J, j) + 1)
            )
            for j in range(k + 1)
        ]
        for J in range(k + 1)
    ]
    return by_size, Q


def candidate_walk(k, p):
    """find_shift's candidate shifts in the order its walk visits them."""
    offsets = range(k - 1, -1, -1) if float(p).is_integer() and p < k else (k,)
    return (j + 2.0**-i for i in range(1, gadgets.SHIFT_SEARCH_DEPTH + 1) for j in offsets)


class TestClassTables:
    @pytest.mark.parametrize("k", range(1, 17))
    def test_vandermonde(self, k):
        T, E = distmatrix.class_tables(k)
        for J in range(k + 1):
            for j in range(k + 1):
                assert sum(T[J][j]) == math.comb(k, j)
                assert abs(E[J][j]) <= math.comb(k, j)

    @pytest.mark.parametrize("k", range(1, 17))
    def test_matches_term_by_term(self, k):
        # Q, lambda_0 and lambda_k have the same terms either way, so the
        # same fsum; the other eigenvalues round one product per r instead of
        # one per (a, b), within the screen's error bound of each other
        # (each search up to the shift it picks, or all 64 steps when it fails)
        T, _ = distmatrix.class_tables(k)
        for p in (1.0, 1.5, 2.5, 3.0, 5.0, 7.75, 11.5):
            for shift in candidate_walk(k, p):
                want, want_Q = term_by_term(k, p, shift)
                powers = distmatrix.class_powers(k, p, shift)
                report = distmatrix.eigen_report(k, p, shift)
                assert [distmatrix.class_sums(rows, powers) for rows in T] == want_Q, (k, p, shift)
                assert (report.by_size[0], report.by_size[k]) == (want[0], want[k]), (k, p, shift)
                err = 8 * (k + 2) * 2.0**-53 * want[0]
                assert all(abs(x - y) <= err for x, y in zip(report.by_size, want)), (k, p, shift)
                reference = distmatrix.EigenReport(tuple(want))
                assert report.nonsingular == reference.nonsingular, (k, p, shift)
                if reference.nonsingular:
                    break

    def test_tables_are_shared_and_read_only(self):
        T, E = distmatrix.class_tables(4)
        assert distmatrix.class_tables(4)[0] is T
        assert (T.dtype, E.dtype, T.shape, E.shape) == (np.int64, np.int64, (5, 5, 5), (5, 5))
        for table in (T, E):
            with pytest.raises(ValueError, match="read-only"):
                table[0][0] = 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_numeric_failure(self):
        with pytest.raises(NumericDegeneracyError, match="leaves the float range"):
            distmatrix.class_powers(10, 235.0, 10.5)
        with pytest.raises(NumericDegeneracyError, match="leaves the float range"):
            distmatrix.class_sums([(1, 1)], [1e308, 1e308])
        # a product that overflows is inf, as Python's int * float gives it
        assert distmatrix.class_sums([(2, 1)], [1e308, 1.0]) == [math.inf]

    @pytest.mark.parametrize("k", range(1, 17))
    def test_sums_match_python_products(self, k):
        # the fsum of Python's int * float products over nested-tuple
        # tables, bit for bit, at every grid shift
        T, E = distmatrix.class_tables(k)
        rows = [tuple(row) for row in T.reshape(-1, k + 1).tolist()] + [tuple(row) for row in E.tolist()]
        for p in (1.0, 1.5, 3.0, 7.9, 233.5):
            for shift in gadgets._grid(k).tolist():
                try:
                    powers = distmatrix.class_powers(k, p, shift)
                except NumericDegeneracyError:
                    continue
                want = [math.fsum([c * P for c, P in zip(row, powers)]) for row in rows]
                got = distmatrix.class_sums(T.reshape(-1, k + 1), powers) + distmatrix.class_sums(E, powers)
                assert [x.hex() for x in got] == [x.hex() for x in want], (k, p, shift)


class TestDeterminant:
    """H is singular exactly when some by_size entry vanishes, since its
    determinant is the product of the spectrum over multiplicities."""

    def test_hand_examples(self):
        # k = 1 has one eigenvalue of each size, so det H = by_size[0] by_size[1]
        assert distmatrix.eigen_report(1, 1, 1.5).by_size == pytest.approx((3.0, -2.0))
        assert distmatrix.eigen_report(1, 1, 2.0).by_size == pytest.approx((4.0, -2.0))
        assert np.linalg.det(distmatrix.distance_matrix(1, 1, 1.5)) == pytest.approx(-6.0)
        assert np.linalg.det(distmatrix.distance_matrix(1, 1, 2.0)) == pytest.approx(-8.0)

    def test_nonsingular_rule(self):
        assert distmatrix.eigen_report(1, 1, 1.5).nonsingular
        # k=2, p=1 above k: the size-2 eigenvalue vanishes identically
        report = distmatrix.eigen_report(2, 1, 2.5)
        assert not report.nonsingular
        assert report.by_size[2] == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.matrix_rank(distmatrix.distance_matrix(2, 1, 2.5)) < 4

    def test_report_fields(self):
        report = distmatrix.eigen_report(3, 1, 1.0)
        assert len(report.by_size) == 4
        assert report.lambda_all == report.by_size[0] == pytest.approx(12.0)
        assert report.by_size[3] == pytest.approx(4.0)
        assert report.min_ratio == pytest.approx(min(abs(x) for x in report.by_size) / 12.0)
        assert report.nonsingular == (report.min_ratio >= distmatrix.NONSINGULAR_RATIO)


class TestWeightMap:
    @given(
        data=st.data(),
        k=st.integers(min_value=1, max_value=4),
        p=st.floats(min_value=1.0, max_value=4.0),
        shift=st.floats(min_value=-3.0, max_value=6.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_weights_to_distances(self, data, k, p, shift):
        # H w gives the p-th distance powers of the weighted parallelepiped,
        # w read at each vertex from its class (its popcount)
        by_class = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=5.0),
                    min_size=k + 1,
                    max_size=k + 1,
                )
            )
        )
        H = distmatrix.distance_matrix(k, p, shift)
        V, t = gadgets._class_parallelepiped(by_class, shift, p)
        (x,) = integer_grid([(0, 1)] * k, 2**k)
        mapped = H @ by_class[x.sum(axis=1)]
        for idx, z in enumerate(x):
            dist_pow = pnorm(V @ z - t, p) ** p
            assert dist_pow == pytest.approx(mapped[idx], rel=1e-7, abs=1e-7)


class TestShiftBatch:
    """The batched kernel against the one-shift paths: eigen_report's
    verdict and solve_weights's gap."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 10, 16])
    def test_verdicts_and_gaps_match_the_one_shift_paths(self, k):
        shifts = gadgets._grid(k)
        for p in (1.0, 1.5, 2.5, 3.0, 5.0, 7.75, 11.5, 50.0):
            batch = distmatrix.ShiftBatch(k, p, shifts)
            ok = batch.nonsingular
            assert ok.tolist() == [distmatrix.eigen_report(k, p, s).nonsingular for s in shifts], (k, p)
            assert not (batch.surely & ~ok).any()
            index = np.flatnonzero(ok)
            want = [gadgets.solve_weights(k, p, s)[1] for s in shifts[index]]
            # the class system's condition reaches about 4e7 at k = 16
            assert batch.gaps(index) == pytest.approx(want, rel=1e-6), (k, p)

    def test_powers_past_the_float_range_drop_out(self):
        # at shift 10.5 the largest power is 20.5^300, past the float range;
        # at shift 0.5 it is 10.5^300, within it
        batch = distmatrix.ShiftBatch(10, 300.0, [10.5, 0.5])
        assert batch.finite.tolist() == [False, True]
        assert not batch.surely[0] and not batch.undecided[0]
        assert np.isfinite(batch.gaps([1])).all()

    def test_stacked_solve_reads_b_as_matrices(self, monkeypatch):
        # numpy 1.x reads b as one vector per matrix only when
        # b.ndim == a.ndim - 1, numpy 2.x only when b.ndim == 1; a b with
        # a.ndim dimensions is a stack of matrices under both
        solve, seen = np.linalg.solve, []

        def strict(a, b):
            seen.append((a.ndim, b.ndim))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", strict)
        batch = distmatrix.ShiftBatch(4, 3.0, gadgets._grid(4))
        index = np.flatnonzero(batch.nonsingular)
        gaps = batch.gaps(index)
        assert seen == [(3, 3)] and gaps.shape == index.shape
