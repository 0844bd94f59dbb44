"""Shared numeric and combinatorial substrate.

Vectors and small dense matrices are plain numpy arrays.  Hypercube vertices
are ordered lexicographically over {-1, +1}^k with -1 before +1, so index 0
is the all-minus-ones vertex; the matching {0, 1}^k order puts the all-zeros
point at index 0.  All floating verification uses relative tolerance against
the larger magnitude with an absolute fallback near zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class PNorm:
    """Norm selector: a finite exponent p >= 1, or infinity."""

    p: float

    def __post_init__(self):
        if not self.p >= 1.0:
            raise InvalidInputError(f"norm exponent must satisfy p >= 1, got {self.p!r}")

    @classmethod
    def finite(cls, p) -> "PNorm":
        p = float(p)
        if math.isinf(p):
            raise InvalidInputError("finite norm requested with p = inf")
        return cls(p)

    @classmethod
    def infinity(cls) -> "PNorm":
        return cls(math.inf)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.p)

    def __str__(self) -> str:
        return "inf" if math.isinf(self.p) else repr(self.p)


def pvalue(p) -> float:
    """Coerce a PNorm or a bare number to a validated exponent."""
    v = p.p if isinstance(p, PNorm) else float(p)
    if not v >= 1.0:
        raise InvalidInputError(f"norm exponent must satisfy p >= 1, got {p!r}")
    return v


def finite_pvalue(p) -> float:
    v = pvalue(p)
    if math.isinf(v):
        raise InvalidInputError("operation requires a finite norm exponent")
    return v


@dataclass(frozen=True)
class Tolerance:
    """Verification tolerance: relative against the larger magnitude, with an
    absolute fallback near zero."""

    rel: float = 1e-9
    abs: float = 1e-12

    def __post_init__(self):
        if not (self.rel > 0 and self.abs > 0):
            raise InvalidInputError("tolerances must be positive")

    def allowance(self, scale: float) -> float:
        return max(self.rel * abs(scale), self.abs)

    def close(self, a: float, b: float) -> bool:
        return abs(a - b) <= max(self.rel * max(abs(a), abs(b)), self.abs)

    def ceiling(self, bound):
        """The largest value still counted as <= bound: bound (1 + rel) + abs."""
        return bound * (1.0 + self.rel) + self.abs


DEFAULT_TOL = Tolerance()


def pnorm(v, p=2.0) -> float:
    """The p-norm of a real vector: (sum |v_i|^p)^(1/p), or max |v_i| for p = inf.

    An empty vector has norm 0 by convention.
    """
    q = pvalue(p)
    a = np.abs(np.asarray(v, dtype=float).ravel())
    if a.size == 0:
        return 0.0
    if math.isinf(q):
        return float(a.max())
    if q == 1.0:
        return float(a.sum())
    m = float(a.max())
    if m == 0.0:
        return 0.0
    # rescale by the max entry so intermediate powers cannot overflow
    return float(m * np.sum((a / m) ** q) ** (1.0 / q))


def _integer_entries(v) -> bool:
    if isinstance(v, np.ndarray):
        return issubclass(v.dtype.type, np.integer)
    try:
        return all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in v)
    except TypeError:
        return False


def pnorm_pow(v, p):
    """sum |v_i|^p.  Returns an exact arbitrary-precision int when p is an
    integer and every entry is an integer; a float otherwise."""
    q = finite_pvalue(p)
    if float(q).is_integer() and _integer_entries(v):
        e = int(q)
        return sum(abs(int(x)) ** e for x in v)
    a = np.abs(np.asarray(v, dtype=float).ravel())
    if a.size == 0:
        return 0.0
    return float(np.sum(a**q))


def sin_half_pi(p) -> float:
    """sin(pi * p / 2), exact at integer p (0 at even, +-1 at odd)."""
    q = float(p)
    if q.is_integer():
        return (0.0, 1.0, 0.0, -1.0)[int(q) % 4]
    return math.sin(math.pi * q / 2.0)


# ---------------------------------------------------------------------------
# hypercube indexing


def cube_points(k: int) -> list[tuple[int, ...]]:
    """All of {-1, +1}^k in lexicographic order (-1 < +1); index 0 is -1^k."""
    if k < 0:
        raise InvalidInputError("k must be non-negative")
    return list(product((-1, 1), repeat=k))


def binary_points(k: int) -> list[tuple[int, ...]]:
    """All of {0, 1}^k in the matching lexicographic order; index 0 is 0^k."""
    if k < 0:
        raise InvalidInputError("k must be non-negative")
    return list(product((0, 1), repeat=k))


def cube_index(coords: Sequence[int]) -> int:
    """Lexicographic index of a {-1, +1} vertex (all-minus-ones has index 0)."""
    idx = 0
    for c in coords:
        if c not in (-1, 1):
            raise InvalidInputError(f"cube coordinates must be +-1, got {c!r}")
        idx = 2 * idx + (c + 1) // 2
    return idx


def cube_coords(index: int, k: int) -> tuple[int, ...]:
    if not 0 <= index < 2**k:
        raise InvalidInputError(f"index {index} out of range for k={k}")
    return tuple(2 * ((index >> (k - 1 - i)) & 1) - 1 for i in range(k))


@dataclass(frozen=True)
class CubePoint:
    """A vertex of {-1, +1}^k together with its lexicographic index."""

    coords: tuple[int, ...]

    def __post_init__(self):
        if not self.coords:
            raise InvalidInputError("cube point needs at least one coordinate")
        cube_index(self.coords)  # validates entries

    @property
    def k(self) -> int:
        return len(self.coords)

    @property
    def index(self) -> int:
        return cube_index(self.coords)

    @classmethod
    def from_index(cls, index: int, k: int) -> "CubePoint":
        return cls(cube_coords(index, k))


def fourier_vector(subset: Iterable[int], k: int) -> np.ndarray:
    """Output table of the character x -> prod_{i in subset} x_i over
    {-1, +1}^k in lexicographic order (a +-1 vector of length 2^k).

    `subset` holds 1-based coordinate indices; the empty subset gives the
    all-ones vector.
    """
    if k < 1:
        raise InvalidInputError("k must be at least 1")
    s = set(subset)
    bad = sorted(i for i in s if not (isinstance(i, (int, np.integer)) and 1 <= i <= k))
    if bad:
        raise InvalidInputError(f"subset entries outside [1, {k}]: {bad}")
    out = np.ones(2**k, dtype=np.int64)
    for i in s:
        block = 2 ** (k - i)
        out *= np.tile(np.repeat(np.array((-1, 1), dtype=np.int64), block), 2 ** (i - 1))
    return out


# largest integer exponent raised by repeated multiplication: on 2^16 floats
# one multiply pass cost 1/40 to 1/190 of a float pow pass, so q - 1 passes
# stay far cheaper for the small odd p the gadgets and reductions use
MAX_MUL_POWER = 8


def row_pnorms(diffs: np.ndarray, p, out: np.ndarray | None = None) -> np.ndarray:
    """The p-norm of every row of a 2-D array (no rescaling, unlike pnorm).

    `out`, when given, is scratch space of diffs' shape for the powers, so a
    walk can reuse one buffer for every chunk; `diffs` is never written.
    """
    q = pvalue(p)
    w = np.empty(diffs.shape) if out is None else out
    if math.isinf(q):
        return np.abs(diffs, out=w).max(axis=1)
    if q == 1.0:
        return np.abs(diffs, out=w).sum(axis=1)
    if q.is_integer() and q <= MAX_MUL_POWER:
        # x^q by multiplication; rounding is sign-symmetric, so |x^q| = |x|^q
        np.multiply(diffs, diffs, out=w)
        for _ in range(int(q) - 2):
            np.multiply(w, diffs, out=w)
        if q % 2:
            np.abs(w, out=w)
    else:
        np.power(np.abs(diffs, out=w), q, out=w)
    return w.sum(axis=1) ** (1.0 / q)


# entries (rows x row width) per chunk of a brute-force distance walk, 512 KiB
# per float64 temporary: 2^14 paid more per-chunk overhead on the oracle's
# benchmark jobs, and 2^18 was no faster there and slower on k=12 gadget checks
CHUNK_ENTRIES = 1 << 16


def chunk_rows(width: int) -> int:
    """Rows per chunk when each row of the walk's distance table has `width` entries."""
    return max(1, CHUNK_ENTRIES // width)


def integer_grid(ranges: Sequence[tuple[int, int]], chunk_size: int) -> Iterator[np.ndarray]:
    """Yield the integer box prod [lo_i, hi_i] as (m, n) int arrays of at most
    `chunk_size` rows, in ascending mixed-radix order (last coordinate fastest)."""
    total = box_volume(ranges)
    lows = np.array([lo for lo, _ in ranges], dtype=np.int64)
    sizes = np.array([hi - lo + 1 for lo, hi in ranges], dtype=np.int64)
    for start in range(0, total, chunk_size):
        idx = np.arange(start, min(start + chunk_size, total), dtype=np.int64)
        out = np.empty((idx.size, len(ranges)), dtype=np.int64)
        rem = idx
        for j in range(len(ranges) - 1, -1, -1):
            out[:, j] = lows[j] + rem % sizes[j]
            rem = rem // sizes[j]
        yield out


def box_volume(ranges: Sequence[tuple[int, int]]) -> int:
    vol = 1
    for lo, hi in ranges:
        if hi < lo:
            raise InvalidInputError("every box range needs lo <= hi")
        vol *= hi - lo + 1
    return vol
