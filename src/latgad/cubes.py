"""Combinatorial structure tools over the boolean cube: a complete
affine-cube search over pair-sum classes, clause constructions with
prescribed satisfying counts, and the mod-2 rigidity check on sets of
closest vectors.

Points of F_2^n are Python ints; bit j-1 holds variable j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidInputError, ResourceLimitError, VerificationError
from .formulas import Clause
from .gadgets import Condition, VerificationReport
from .numeric import DEFAULT_TOL, Tolerance
from .oracle import cvp_enumerate

MAX_BITS = 24
# the most calls of the affine-cube search: on cube-free random sets, 20 000
# calls took 5-6 s at n = 16-20 (3000-6000 points, d = 4 and 5) and 29 s at
# n = 24 (20 000 points, d = 4)
MAX_CUBE_CALLS = 20_000


def bit(point: int, var: int) -> int:
    return (point >> (var - 1)) & 1


def independent_f2(vectors: Iterable[int]) -> bool:
    """Linear independence over F_2 by elimination on leading bits."""
    pivots: dict[int, int] = {}
    for v in vectors:
        w = int(v)
        while w:
            msb = w.bit_length() - 1
            if msb not in pivots:
                pivots[msb] = w
                break
            w ^= pivots[msb]
        if w == 0:
            return False
    return True


@dataclass(frozen=True)
class AffineCube:
    """base + span subsets of the directions over F_2 (2^d points)."""

    base: int
    directions: tuple[int, ...]
    n: int

    @property
    def dim(self) -> int:
        return len(self.directions)

    def points(self) -> set[int]:
        pts = {self.base}
        for direction in self.directions:
            pts |= {p ^ direction for p in pts}
        return pts

    def verify(self, universe: set[int]) -> None:
        if not independent_f2(self.directions):
            raise VerificationError("cube directions are dependent over F_2")
        pts = self.points()
        if len(pts) != 2**self.dim:
            raise VerificationError("cube points collapsed")
        if not pts <= universe:
            raise VerificationError("cube points escape the source set")


def min_set_size(n: int, d: int) -> int:
    """Smallest set size guaranteeing an affine d-cube: 2^(n(1 - 2^-(d-1)) + 2)."""
    return math.ceil(2.0 ** (n * (1.0 - 2.0 ** -(d - 1)) + 2.0))


def _pair_sum_counts(arr: np.ndarray, n: int) -> np.ndarray:
    """counts[z] = number of unordered pairs {a, b} in arr with a ^ b = z."""
    counts = np.zeros(2**n, dtype=np.int64)
    step = max(1, (1 << 22) // max(1, arr.size))
    for start in range(0, arr.size, step):
        block = arr[start : start + step, None] ^ arr[None, :]
        counts += np.bincount(block.ravel(), minlength=2**n)
    counts //= 2  # each unordered pair counted twice; z = 0 holds diagonals
    counts[0] = 0
    return counts


def _sum_classes(pts: list[int], n: int, size: int) -> np.ndarray:
    """The pair sums of pts shared by at least size pairs, by decreasing
    pair count, the smaller sum on ties.  Fewer pairs than 2^(n-4) are
    counted by sorting their sums, not by a count over all 2^n sums."""
    arr = np.asarray(pts, dtype=np.int64)
    if arr.size * (arr.size - 1) < 2 ** (n - 3):
        i, j = np.triu_indices(arr.size, 1)
        sums, counts = np.unique(arr[i] ^ arr[j], return_counts=True)
    else:
        counts = _pair_sum_counts(arr, n)
        sums = np.flatnonzero(counts)
        counts = counts[sums]
    big = counts >= size
    return sums[big][np.argsort(-counts[big], kind="stable")]


def find_affine_cube(points, d: int, n: int) -> AffineCube | None:
    """Affine d-cube inside a point set, or None when it holds none.

    A d-cube lies in S iff, for some z != 0, T_z = {x in S : x ^ z in S,
    x < x ^ z} holds a (d-1)-cube: its points and their translates by z.
    The search tries the pair-sum classes z by decreasing size, the smaller
    z on ties, skipping classes of fewer than 2^(d-1) pairs and sets of
    fewer than 2^d points, and recurses into T_z depth first; the class sum
    is the last direction.  Its first branch follows the largest class
    alone, as the pigeonhole argument behind min_set_size(n, d) does.  None
    means that the search was complete: past MAX_CUBE_CALLS calls it raises
    ResourceLimitError instead.  The returned cube is re-verified against
    the input set.
    """
    if not 1 <= n <= MAX_BITS:
        raise ResourceLimitError(f"n must lie in [1, {MAX_BITS}]")
    if d < 1:
        raise InvalidInputError("cube dimension must be at least 1")
    universe = {int(x) for x in points}
    if any(not 0 <= x < 2**n for x in universe):
        raise InvalidInputError(f"points must fit in {n} bits")
    calls = 0

    def search(pts: list[int], d: int) -> AffineCube | None:
        nonlocal calls
        calls += 1
        if calls > MAX_CUBE_CALLS:
            raise ResourceLimitError(f"affine-cube search passed {MAX_CUBE_CALLS} calls")
        if len(pts) < 2**d:
            return None
        if d == 1:
            return AffineCube(base=pts[0], directions=(pts[0] ^ pts[1],), n=n)
        here = set(pts)
        for z in map(int, _sum_classes(pts, n, 2 ** (d - 1))):
            sub = search([x for x in pts if x ^ z in here and x < x ^ z], d - 1)
            if sub is not None:
                return AffineCube(base=sub.base, directions=sub.directions + (z,), n=n)
        return None

    cube = search(sorted(universe), d)
    if cube is not None:
        cube.verify(universe)
    return cube


# ---------------------------------------------------------------------------
# clause constructions


def clause_isolating_one(points, k: int, n: int) -> Clause:
    """A clause of at most k literals satisfied by exactly |S| - 1 points of S.

    Inductive construction: split on the lowest coordinate where S differs,
    recurse into the minority side, and disjoin the literal that covers the
    majority side.  Verified by evaluation before returning.
    """
    S = {int(x) for x in points}
    if not S:
        raise InvalidInputError("point set must be non-empty")
    if any(not 0 <= x < 2**n for x in S):
        raise InvalidInputError(f"points must fit in {n} bits")
    if len(S) > 2**k:
        raise InvalidInputError(f"|S| = {len(S)} exceeds 2^k = {2**k}")
    literals = _isolate(S, n)
    if not literals:
        # singleton at top level: one literal falsified by the lone point
        x = next(iter(S))
        literals = [1 if bit(x, 1) == 0 else -1]
    clause = Clause(tuple(literals))
    if clause.arity > k:
        raise VerificationError(f"construction emitted {clause.arity} literals for k={k}")
    count = sum(1 for x in S if clause.satisfied(tuple(bit(x, j) for j in range(1, n + 1))))
    if count != len(S) - 1:
        raise VerificationError(f"clause satisfies {count} of {len(S)} points, wanted {len(S) - 1}")
    return clause


def _isolate(S: set[int], n: int) -> list[int]:
    if len(S) == 1:
        return []  # the empty disjunction falsifies the lone point
    for j in range(1, n + 1):
        ones = sum(bit(x, j) for x in S)
        if 0 < ones < len(S):
            minority = 1 if ones <= len(S) - ones else 0
            side = {x for x in S if bit(x, j) == minority}
            literal = -j if minority == 1 else j  # true on the majority side
            return _isolate(side, n) + [literal]
    raise VerificationError("distinct points share every coordinate")


def separating_3cnf(close, away, n: int) -> Clause:
    """A clause of at most three literals satisfied by all four points of
    `close` and falsified by at least one point of `away`.

    Majority-string construction: fix the majority bit at the first position
    where a chosen outside point disagrees, then cover the at most two
    dissenting close points at positions where they differ from it.
    """
    S = sorted({int(x) for x in close})
    T = sorted({int(x) for x in away})
    if len(S) != 4:
        raise InvalidInputError(f"close set must have exactly 4 points, got {len(S)}")
    if len(T) < 2:
        raise InvalidInputError("away set needs at least 2 points")
    if set(S) & set(T):
        raise InvalidInputError("sets must be disjoint")
    maj = 0
    for j in range(1, n + 1):
        if sum(bit(x, j) for x in S) >= 3:
            maj |= 1 << (j - 1)
    t = next(x for x in T if x != maj)
    j = ((t ^ maj) & -(t ^ maj)).bit_length()  # lowest differing position
    literals = [j if bit(maj, j) else -j]
    for d in S:
        if bit(d, j) != bit(maj, j):
            q = ((t ^ d) & -(t ^ d)).bit_length()
            lit = q if bit(d, q) else -q
            if lit not in literals:
                literals.append(lit)
    clause = Clause(tuple(literals))
    assign = lambda x: tuple(bit(x, v) for v in range(1, n + 1))
    if not all(clause.satisfied(assign(x)) for x in S):
        raise VerificationError("separating clause misses a close point")
    if clause.satisfied(assign(t)):
        raise VerificationError("separating clause failed to falsify the outside point")
    return clause


# ---------------------------------------------------------------------------
# closest-vector mod-2 structure


def closest_square_structure(basis, target, zs, box, tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    """Rigidity of Euclidean closest-vector sets on a mod-2 square.

    Input: four coordinate vectors z_1..z_4 with z_4 = z_1 + z_2 + z_3 - 2v
    for integral v, all verified closest over the given box (tie band at most
    tol.rel, which must hold for the conclusion to be meaningful in floats).
    Then z_2+z_3-v, z_1+z_3-v, z_1+z_2-v and v are closest too, the union C
    has size 4 or 8, and size 4 happens exactly when the z_i form a
    parallelogram.
    """
    zs = [np.asarray(z, dtype=np.int64) for z in zs]
    if len(zs) != 4:
        raise InvalidInputError("exactly four coordinate vectors required")
    double_v = zs[0] + zs[1] + zs[2] - zs[3]
    if np.any(double_v % 2 != 0):
        raise InvalidInputError("z_1 + z_2 + z_3 - z_4 must be even (a mod-2 square)")
    v = double_v // 2
    if len({tuple(int(x) for x in z) for z in zs}) != 4:
        raise InvalidInputError("the four vectors must be distinct")

    sol = cvp_enumerate(basis, target, 2.0, box, tol)
    band = tol.ceiling(sol.distance)
    B = np.asarray(basis, dtype=float)
    t = np.asarray(target, dtype=float).ravel()
    dist = lambda z: float(np.linalg.norm(B @ z.astype(float) - t))
    for z in zs:
        if dist(z) > band:
            raise InvalidInputError(f"input vector {tuple(int(x) for x in z)} is not a closest vector")

    derived = [zs[1] + zs[2] - v, zs[0] + zs[2] - v, zs[0] + zs[1] - v, v.copy()]
    conditions = []
    worst = 0.0
    witness = None
    for z in derived:
        gap = max(0.0, dist(z) - sol.distance)
        if gap > worst:
            worst, witness = gap, tuple(int(x) for x in z)
    conditions.append(
        Condition("derived-vectors-closest", worst <= tol.allowance(max(sol.distance, 1.0)), worst, witness)
    )

    C = {tuple(int(x) for x in z) for z in zs} | {tuple(int(x) for x in z) for z in derived}
    conditions.append(Condition("union-size-4-or-8", len(C) in (4, 8), float(len(C))))

    originals = [tuple(int(x) for x in z) for z in zs]
    is_par = _is_parallelogram(originals)
    conditions.append(
        Condition("size-4-iff-parallelogram", (len(C) == 4) == is_par, abs(len(C) - (4 if is_par else 8)))
    )
    return VerificationReport(conditions, tol)


def _is_parallelogram(points: list[tuple[int, ...]]) -> bool:
    a, b, c, d = (np.asarray(p, dtype=np.int64) for p in points)
    return (
        bool(np.array_equal(a + b, c + d))
        or bool(np.array_equal(a + c, b + d))
        or bool(np.array_equal(a + d, b + c))
    )
