"""Shifted distance-power matrix on the hypercube and its character spectrum.

For a dimension k, a finite exponent p >= 1 and a real shift, the matrix has
entry |<u, y> - shift|^p at vertex pair (u, y) of {-1, +1}^k.  Its eigenbasis
is the character table: the eigenvalue attached to the character of a subset
S depends only on |S|, which keeps the full spectrum O(k^2) to compute.  The
determinant is the product of all 2^k eigenvalues (an LU factorization is
used only as an independent test oracle, never here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .numeric import cube_points, finite_pvalue

# beyond this the 2^k x 2^k matrix and the 4^k k vertex check are pointless on a desk machine
MAX_K = 14

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
    q = finite_pvalue(p)
    pts = np.array(cube_points(k), dtype=float)
    return np.abs(pts @ pts.T - float(shift)) ** q


def eigenvalue_by_size(k: int, p, shift: float, size: int) -> float:
    """Eigenvalue for any character subset of the given size.

    Equals sum over (a, b) of (-1)^a C(size, a) C(k-size, b)
    |k - 2(a+b) - shift|^p, grouping vertices by how many -1 coordinates fall
    inside and outside the subset.
    """
    if not 0 <= size <= k:
        raise InvalidInputError(f"subset size {size} out of range for k={k}")
    q = finite_pvalue(p)
    t = float(shift)
    terms = []
    for a in range(size + 1):
        ca = (-1) ** a * math.comb(size, a)
        for b in range(k - size + 1):
            terms.append(ca * math.comb(k - size, b) * abs(k - 2 * (a + b) - t) ** q)
    return math.fsum(terms)


def eigenvalue(k: int, p, shift: float, subset) -> float:
    """Eigenvalue attached to the character of `subset` (1-based indices)."""
    s = set(subset)
    bad = sorted(i for i in s if not (isinstance(i, (int, np.integer)) and 1 <= i <= k))
    if bad:
        raise InvalidInputError(f"subset entries outside [1, {k}]: {bad}")
    return eigenvalue_by_size(k, p, shift, len(s))


@dataclass(frozen=True)
class EigenReport:
    """Full spectrum of a shifted distance-power matrix.

    `by_size[s]` is the eigenvalue shared by every character subset of size s
    (multiplicity C(k, s)).
    """

    k: int
    p: float
    shift: float
    by_size: tuple[float, ...]

    @property
    def lambda_all(self) -> float:
        """Eigenvalue of the all-ones character (always positive)."""
        return self.by_size[0]

    @property
    def lambda_par(self) -> float:
        """Eigenvalue of the full-parity character."""
        return self.by_size[self.k]

    @property
    def det(self) -> float:
        """Product of all 2^k eigenvalues (may overflow to inf for large k)."""
        out = 1.0
        for s, lam in enumerate(self.by_size):
            out *= lam ** math.comb(self.k, s)
        return out

    def signed_log_det(self) -> tuple[int, float]:
        """(sign, log |det|), robust to overflow; sign 0 when singular."""
        sign = 1
        logabs = 0.0
        for s, lam in enumerate(self.by_size):
            mult = math.comb(self.k, s)
            if lam == 0.0:
                return 0, -math.inf
            if lam < 0 and mult % 2 == 1:
                sign = -sign
            logabs += mult * math.log(abs(lam))
        return sign, logabs

    @property
    def min_ratio(self) -> float:
        """min_S |lambda_S| / lambda_all (the nonsingularity figure of merit)."""
        return min(abs(lam) for lam in self.by_size) / self.lambda_all

    def nonsingular(self, ratio: float = NONSINGULAR_RATIO) -> bool:
        return self.min_ratio >= ratio

    def eigenvalue_of(self, subset) -> float:
        s = set(subset)
        if any(not 1 <= i <= self.k for i in s):
            raise InvalidInputError(f"subset entries outside [1, {self.k}]")
        return self.by_size[len(s)]


def eigen_report(k: int, p, shift: float) -> EigenReport:
    k = check_k(k)
    q = finite_pvalue(p)
    by_size = tuple(eigenvalue_by_size(k, q, shift, s) for s in range(k + 1))
    return EigenReport(k=k, p=q, shift=float(shift), by_size=by_size)


def determinant(k: int, p, shift: float) -> float:
    """det of the distance-power matrix as the eigenvalue product."""
    return eigen_report(k, p, shift).det


def is_nonsingular(k: int, p, shift: float, ratio: float = NONSINGULAR_RATIO) -> bool:
    return eigen_report(k, p, shift).nonsingular(ratio)
