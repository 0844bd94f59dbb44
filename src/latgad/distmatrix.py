"""Shifted distance-power matrix on the hypercube and its character spectrum.

For a dimension k, a finite exponent p >= 1 and a real shift, the matrix has
entry |<u, y> - shift|^p at vertex pair (u, y) of {-1, +1}^k.  Its eigenbasis
is the character table: the eigenvalue attached to the character of a subset
S depends only on |S|, which keeps the full spectrum O(k^2) to compute.

The spectrum and the weight solve's class system Q (`gadgets.solve_weights`)
are integer combinations of the same k + 1 powers P_r = |k - 2r - shift|^p
(`class_powers`): by_size = E P and Q = T P, with both exact tables from one
cached builder (`class_tables`, read-only int64 arrays).  `class_sums` is the
one summation rule: the `math.fsum` of one rounded product per r, the
products formed in one numpy multiply.  `eigen_report` applies it, one
shift at a time; its verdict is the definition of a nonsingular shift.
`ShiftBatch` is the batched path over many shifts: one matmul against E gives
every spectrum, a forward-error bound gives the fsum verdict wherever it
decides it and "undecided" where it cannot (the caller then asks
`eigen_report`), and for the shifts it passes one matmul against T and one
stacked solve give the weight solve's gap eps.  `distance_matrix` builds the
dense 2^k x 2^k matrix, which only the tests use, as the reference.
"""

from __future__ import annotations

import functools
import math
import sys
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
def class_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact integer tables T, with Q[J][j] = sum_r T[J][j][r] P_r, and E,
    with by_size[s] = sum_r E[s][r] P_r: T[J][j][J+j-2m] = C(J, m) C(k-J, j-m)
    counts the class-j vertices sharing m of a class-J vertex's +1
    coordinates, and the Krawtchouk table E[J][j] sums the same counts signed
    by (-1)^m.  int64 arrays of shape (k + 1)^3 and (k + 1)^2 (every entry at
    most C(16, 8) in magnitude, so exact as a float too): read-only, one pair
    per k shared by every caller."""
    T = np.zeros((k + 1, k + 1, k + 1), dtype=np.int64)
    E = np.zeros((k + 1, k + 1), dtype=np.int64)
    for J in range(k + 1):
        for j in range(k + 1):
            for m in range(max(0, J + j - k), min(J, j) + 1):
                c = math.comb(J, m) * math.comb(k - J, j - m)
                T[J, j, J + j - 2 * m] = c
                E[J, j] += (-1) ** m * c
    T.flags.writeable = E.flags.writeable = False
    return T, E


def class_powers(k: int, q: float, shift: float) -> list[float]:
    """P_r = |k - 2r - shift|^p for r = 0..k, by Python's `**`."""
    t = float(shift)
    try:
        return [abs(k - 2 * r - t) ** q for r in range(k + 1)]
    except OverflowError as exc:
        raise float_range_error(f"spectrum at k={k}, p={q}, shift={t}") from exc


def class_sums(rows, powers: list[float]) -> list[float]:
    """sum_r row[r] P_r for each row of a `class_tables` table (any array of
    rows of k + 1 integers): the math.fsum of one rounded product per r.  The
    products are one numpy multiply, an exact integer times a float rounded
    once, as Python's `int * float` rounds it, so each sum is bit-identical
    to fsum over the Python products."""
    with np.errstate(over="ignore"):
        products = (np.asarray(rows) * np.asarray(powers, dtype=float)).tolist()
    try:
        return [math.fsum(row) for row in products]
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


class ShiftBatch:
    """The class-space kernel over a batch of shifts at one (k, p): every
    candidate's powers P (one row per shift) are formed once, and both its
    spectrum and its weight solve's class system come from them.

    `surely` and `undecided` are the forward-error screen of the batched
    spectrum lam = E P^T (one column per shift) against `eigen_report`'s
    fsum verdict: `surely` where the bound proves the shift nonsingular,
    `undecided` where it cannot tell (elsewhere it proves the shift
    singular).  `nonsingular` is `eigen_report`'s verdict on every shift:
    the screen's where it decides, `eigen_report`'s own where it is
    undecided.  Every lam[s, c] lies within err[c] = 8 (k + 2) u lam[0, c]
    of the fsum eigenvalue, u = 2^-53.  The derivation, with
    lam_0 = sum_r C(k, r) P_r the positive all-ones eigenvalue
    (|lam_s| <= lam_0 for every s):
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
    k + 9, which leaves room for the O(u^2) terms, for lam[0, c] standing in
    for lam_0 and for the few roundings of the comparisons below.

    A shift is surely nonsingular when min_s (|lam_s| - err) >=
    NONSINGULAR_RATIO (lam_0 + err): then min_s |by_size[s]| / lambda_all is
    at least NONSINGULAR_RATIO however eigen_report rounds.  It is surely
    singular when min_s (|lam_s| + err) < NONSINGULAR_RATIO (lam_0 - err),
    with room to spare for the rounding of the ratio.  Both are compared as
    min_s |lam_s| against lam_0 times one factor (err / lam_0 = 8 (k + 2) u
    moved to the right).  Anything in between is undecided.  A shift whose
    powers or spectrum leave the float range is neither: it drops out.
    """

    def __init__(self, k: int, p, shifts):
        self.k = k = check_k(k)
        q = finite_pvalue(p)
        self.shifts = np.asarray(shifts, dtype=float).ravel()
        rel, ratio = 8 * (k + 2) * 2.0**-53, NONSINGULAR_RATIO
        with np.errstate(over="ignore", invalid="ignore"):
            self.powers = np.abs((k - 2.0 * np.arange(k + 1)) - self.shifts[:, None]) ** q
            # one column per shift: the reductions over s then run across
            # k + 1 long rows, many times faster than along N short ones
            lam = _float_tables(k)[1] @ self.powers.T
            self.lambda_all = lam[0]
            low = np.abs(lam).min(axis=0)
            self.finite = np.isfinite(lam).all(axis=0)
            self.surely = (low >= (ratio * (1 + rel) + rel) * self.lambda_all) & self.finite
            self.undecided = (low >= (ratio * (1 - rel) - rel) * self.lambda_all) & self.finite & ~self.surely
        self.nonsingular = self.surely.copy()
        for c in np.flatnonzero(self.undecided):
            self.nonsingular[c] = eigen_report(k, q, float(self.shifts[c])).nonsingular

    def gaps(self, index) -> np.ndarray:
        """eps of `gadgets.solve_weights` for the candidates at `index`, or a
        value that is not finite where solve_weights's eps overflows.  One
        matmul forms every class system Q = T P, and one stacked solve gives
        every a = Q^-1 e_0.  Each candidate's powers are first scaled by the
        power of two that brings its lambda_all into [1/2, 1): every row of
        Q sums to lambda_all, so the solve stays off both ends of the float
        range, as solve_weights's own scaling keeps it.  Only for candidates
        the screen passed: a singular Q would abort the whole stack."""
        k, index = self.k, np.asarray(index, dtype=np.intp)
        lam, e = np.frexp(self.lambda_all[index])
        Q = (np.ldexp(self.powers[index], -e[:, None]) @ _float_tables(k)[0]).reshape(-1, k + 1, k + 1)
        # b as a stack of (k + 1) x 1 matrices: numpy 1.x reads a 1-D b
        # against a stack of matrices as one matrix, not as a vector each
        e0 = np.broadcast_to(np.eye(k + 1)[:, :1], (len(Q), k + 1, 1))
        a = np.linalg.solve(Q, e0)[..., 0]
        lo, top = a.min(axis=1), np.abs(a).max(axis=1)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # solve_weights's two gaps: 1 / (lambda |min a|) where a has a
            # negative entry (inf where it has none, or where it overflows),
            # else, or where eps * a overflows, 1 / (lambda max |a|)
            wide = 1.0 / (lam * np.minimum(lo, 0.0))
            return np.where(np.isfinite(wide * top), -wide, 1.0 / (lam * top))


@functools.lru_cache(maxsize=MAX_K)
def _float_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """T and E of `class_tables` as float matrices to multiply the powers
    by, one row of P per shift: P @ T gives Q's entries, class pair (J, j)
    at column (k + 1) J + j, and E @ P^T the spectrum, one column per
    shift.  Read-only and shared."""
    T, E = class_tables(k)
    out = T.astype(float).reshape((k + 1) ** 2, k + 1).T, E.astype(float)
    for m in out:
        m.flags.writeable = False
    return out
