"""Shifted distance-power matrix on the hypercube and its character spectrum.

For a dimension k, a finite exponent p >= 1 and a real shift, the matrix has
entry |<u, y> - shift|^p at vertex pair (u, y) of {-1, +1}^k.  Its eigenbasis
is the character table: the eigenvalue attached to the character of a subset
S depends only on |S|, which keeps the full spectrum O(k^2) to compute.

The gadget pipeline reads only the spectrum; its weight solve works on the
k + 1 Hamming classes (`gadgets.solve_weights`).  `distance_matrix` builds the
dense 2^k x 2^k matrix, which the tests use as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .numeric import finite_pvalue, integer_grid

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
    return EigenReport(tuple(eigenvalue_by_size(k, q, shift, s) for s in range(k + 1)))
