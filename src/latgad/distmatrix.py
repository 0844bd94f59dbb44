"""Shifted distance-power matrix on the hypercube and its character spectrum.

For a dimension k, a finite exponent p >= 1 and a real shift, the matrix has
entry |<u, y> - shift|^p at vertex pair (u, y) of {-1, +1}^k.  Its eigenbasis
is the character table: the eigenvalue attached to the character of a subset
S depends only on |S|, which keeps the full spectrum O(k^2) to compute.

The spectrum and the weight solve's class system Q (`gadgets.solve_weights`)
are integer combinations of the same k + 1 powers P_r = |k - 2r - shift|^p
(`class_powers`): by_size = E P and Q = T P, with both exact tables from one
cached builder (`class_tables`).  `class_sums` is the one summation rule: the
`math.fsum` of one rounded product per r.  `eigen_report` applies it, one
shift at a time; its verdict is the definition of a nonsingular shift.
`screen_nonsingular` evaluates the spectra of a whole batch of shifts with one
matmul against E, bounds the matmul's forward error, and gives the fsum
verdict wherever the bound decides it and "undecided" where it cannot (the
caller then asks `eigen_report`).  `distance_matrix` builds the dense
2^k x 2^k matrix, which only the tests use, as the reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .numeric import finite_pvalue, float_range_error, integer_grid

# a gadget has 2^k rows of k entries: 27 MB of JSON at k = 16 (the vertex
# checks of a symmetric gadget cost only k + 1 vertices)
MAX_K = 16

# the dense reference matrix holds 4^k floats: 2 GiB at k = 14
MAX_DENSE_K = 14

# relative nonsingularity threshold: smallest |eigenvalue| measured against the
# always-positive all-ones eigenvalue
NONSINGULAR_RATIO = 1e-6


def check_k(k: int) -> int:
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise InvalidInputError(f"k must be a positive integer, got {k!r}")
    if k > MAX_K:
        raise ResourceLimitError(f"k={k} exceeds the size cap {MAX_K}")
    return int(k)


def distance_matrix(k: int, p, shift: float) -> np.ndarray:
    """The 2^k x 2^k matrix with entries |<u, y> - shift|^p (symmetric)."""
    k = check_k(k)
    if k > MAX_DENSE_K:
        raise ResourceLimitError(f"k={k} exceeds the dense matrix cap {MAX_DENSE_K}")
    q = finite_pvalue(p)
    (x,) = integer_grid([(0, 1)] * k, 2**k)
    pts = 2.0 * x - 1.0
    return np.abs(pts @ pts.T - float(shift)) ** q


@functools.lru_cache(maxsize=MAX_K)
def class_tables(k: int) -> tuple[tuple, tuple]:
    """The exact integer tables T, with Q[J][j] = sum_r T[J][j][r] P_r, and E,
    with by_size[s] = sum_r E[s][r] P_r: T[J][j][J+j-2m] = C(J, m) C(k-J, j-m)
    counts the class-j vertices sharing m of a class-J vertex's +1
    coordinates, and the Krawtchouk table E[J][j] sums the same counts signed
    by (-1)^m.  Nested tuples of ints (at most C(16, 8)): read-only, one pair
    per k shared by every caller."""
    T = [[[0] * (k + 1) for _ in range(k + 1)] for _ in range(k + 1)]
    E = [[0] * (k + 1) for _ in range(k + 1)]
    for J in range(k + 1):
        for j in range(k + 1):
            for m in range(max(0, J + j - k), min(J, j) + 1):
                c = math.comb(J, m) * math.comb(k - J, j - m)
                T[J][j][J + j - 2 * m] = c
                E[J][j] += (-1) ** m * c
    return tuple(tuple(map(tuple, rows)) for rows in T), tuple(map(tuple, E))


def class_powers(k: int, q: float, shift: float) -> list[float]:
    """P_r = |k - 2r - shift|^p for r = 0..k, by Python's `**`."""
    t = float(shift)
    try:
        return [abs(k - 2 * r - t) ** q for r in range(k + 1)]
    except OverflowError as exc:
        raise float_range_error(f"spectrum at k={k}, p={q}, shift={t}") from exc


def class_sums(rows, powers: list[float]) -> list[float]:
    """sum_r row[r] P_r for each row of a `class_tables` table: the math.fsum
    of one rounded product per r (an exact integer times a float)."""
    try:
        return [math.fsum([c * P for c, P in zip(row, powers)]) for row in rows]
    except OverflowError as exc:
        raise float_range_error("a class sum") from exc


@dataclass(frozen=True)
class EigenReport:
    """Full spectrum of a shifted distance-power matrix.

    `by_size[s]` is the eigenvalue shared by every character subset of size s
    (multiplicity C(k, s)).
    """

    by_size: tuple[float, ...]

    @property
    def lambda_all(self) -> float:
        """Eigenvalue of the all-ones character (always positive)."""
        return self.by_size[0]

    @property
    def min_ratio(self) -> float:
        """min_S |lambda_S| / lambda_all (the nonsingularity figure of merit)."""
        return min(abs(lam) for lam in self.by_size) / self.lambda_all

    @property
    def nonsingular(self) -> bool:
        """Whether min_ratio clears the relative threshold NONSINGULAR_RATIO."""
        return self.min_ratio >= NONSINGULAR_RATIO


def eigen_report(k: int, p, shift: float) -> EigenReport:
    k = check_k(k)
    q = finite_pvalue(p)
    return EigenReport(tuple(class_sums(class_tables(k)[1], class_powers(k, q, shift))))


def screen_nonsingular(k: int, p, shifts) -> tuple[np.ndarray, np.ndarray]:
    """Two boolean arrays over the shifts: `surely`, where a forward-error
    bound on one batched evaluation proves `eigen_report(k, p, shift)
    .nonsingular`, and `undecided`, where the bound cannot tell (elsewhere it
    proves the shift singular).

    lam[c, s] is the matmul sum_r E[s][r] P[c, r] (E from `class_tables`), and
    every lam[c, s] lies within err[c] = 8 (k + 2) u lam[c, 0] of the fsum
    eigenvalue, u = 2^-53.  The derivation, with lam_0 = sum_r C(k, r) P_r the
    positive all-ones eigenvalue (|lam_s| <= lam_0 for every s):
      * the fsum route rounds one term E[s][r] P_r per r once (E[s][r] is an
        exact integer, and |E[s][r]| <= C(k, r) by Vandermonde's identity, so
        the terms' magnitudes sum to at most lam_0) and its correctly rounded
        sum once: 2u lam_0;
      * Python's |x|^p is within one ulp (2u relative) of the exact power and
        numpy's within one ulp of Python's, so the powers add 2u lam_0 on the
        fsum route and 4u lam_0 on the matmul route;
      * the matmul of k + 1 products, summed in any order, is within
        (k + 1) u / (1 - (k + 1) u) of sum_r |E[s][r]| P_r <= lam_0;
    in all (k + 9) u lam_0 up to O(u^2) terms.  8 (k + 2) is at least twice
    k + 9, which leaves room for the O(u^2) terms, for lam[c, 0] standing in
    for lam_0 and for the few roundings of the comparisons below.

    A shift is surely nonsingular when min_s (|lam_s| - err) >=
    NONSINGULAR_RATIO (lam_0 + err): then min_s |by_size[s]| / lambda_all is
    at least NONSINGULAR_RATIO however eigen_report rounds.  It is surely
    singular when min_s (|lam_s| + err) < NONSINGULAR_RATIO (lam_0 - err),
    with room to spare for the rounding of the ratio.  Anything in between,
    or any value that is not finite (a power beyond the float range), is
    undecided.
    """
    k = check_k(k)
    q = finite_pvalue(p)
    E = np.array(class_tables(k)[1], dtype=float)
    t = np.asarray(shifts, dtype=float).reshape(-1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        P = np.abs((k - 2.0 * np.arange(k + 1)) - t) ** q
        lam = P @ E.T
        err = (8 * (k + 2) * 2.0**-53) * lam[:, 0]
        low = np.abs(lam).min(axis=1)
        surely = low - err >= NONSINGULAR_RATIO * (lam[:, 0] + err)
        surely_not = low + err < NONSINGULAR_RATIO * (lam[:, 0] - err)
    finite = np.isfinite(lam).all(axis=1) & np.isfinite(err)
    return surely & finite, ~((surely | surely_not) & finite)
