"""Shared numeric and combinatorial substrate.

Vectors and small dense matrices are plain numpy arrays.  The hypercube has
one order, `integer_grid`'s: over [(0, 1)] * k it yields {0, 1}^k in
lexicographic order with the all-zeros point at index 0, and the vertices of
{-1, +1}^k are 2x - 1 in that same order, so index 0 is the all-minus-ones
vertex.  `gadgets._cube` reads the builders' cube in that order from the
bits of the row numbers.  All floating verification uses relative tolerance
against the larger magnitude with an absolute fallback near zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import InvalidInputError, NumericDegeneracyError


def pvalue(p) -> float:
    """A validated norm exponent: a float p >= 1, with math.inf for the max
    norm."""
    v = float(p)
    if not v >= 1.0:
        raise InvalidInputError(f"norm exponent must satisfy p >= 1, got {p!r}")
    return v


def float_range_error(what: str, underflow: bool = False) -> NumericDegeneracyError:
    cause = f"a power or a sum of them exceeds {sys.float_info.max:.6g}"
    if underflow:
        cause = "a nonzero power underflows to 0"
    return NumericDegeneracyError(f"{what} leaves the float range: {cause}")


def finite_float(compute: Callable[[], float], what: str) -> float:
    """compute(), a float built from powers: an OverflowError or a result
    that is not finite raises float_range_error(what)."""
    try:
        x = compute()
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise float_range_error(what)
    return x


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
        if not (0 < self.rel < math.inf and 0 < self.abs < math.inf):
            raise InvalidInputError("tolerances must be finite and positive")

    def allowance(self, scale: float) -> float:
        return max(self.rel * abs(scale), self.abs)

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


def column_rank(M: np.ndarray) -> int:
    """The column rank of the d x n float array M, without an SVD when rows
    with a single nonzero entry certify full rank: every column needs such
    a row, and the smallest of the columns' largest such |entry| must clear
    np.linalg.matrix_rank's threshold.  One such row per column forms a
    diagonal submatrix, so M's smallest singular value is at least that
    entry; sqrt(d n) times the largest |entry| bounds the largest one, which
    sets the threshold, and unlike the Frobenius norm it cannot underflow.
    Padded instances, CVPP queries, gap instances and isolating lattices all
    hold such rows.  Any other M goes to the SVD."""
    d, n = M.shape
    singles = M[np.count_nonzero(M, axis=1) == 1]
    smallest = np.abs(singles).max(axis=0, initial=0.0).min(initial=math.inf)
    if smallest > np.abs(M).max(initial=0.0) * math.sqrt(d * n) * max(d, n) * np.finfo(float).eps:
        return n
    return int(np.linalg.matrix_rank(M))


# largest integer exponent raised by repeated multiplication: on 2^16 floats
# one multiply pass cost 1/40 to 1/190 of a float pow pass, so q - 1 passes
# stay far cheaper for the small odd p the gadgets and reductions use
MAX_MUL_POWER = 8


def abs_powers(x: np.ndarray, p) -> np.ndarray:
    """|x|^p elementwise for finite p, and |x| for p = inf, in a new array
    (`x` is never written).  The oracle raises its table and row blocks with
    it, and the class vertex check its terms."""
    q = pvalue(p)
    w = np.empty(x.shape)
    if math.isinf(q) or q == 1.0:
        return np.abs(x, out=w)
    if q.is_integer() and q <= MAX_MUL_POWER:
        # x^q by multiplication; rounding is sign-symmetric, so |x^q| = |x|^q
        np.multiply(x, x, out=w)
        for _ in range(int(q) - 2):
            np.multiply(w, x, out=w)
        if q % 2:
            np.abs(w, out=w)
    else:
        np.power(np.abs(x, out=w), q, out=w)
    return w


def row_pnorms(diffs: np.ndarray, p) -> np.ndarray:
    """The p-norm of every row of a 2-D array of finite entries (no
    rescaling, unlike pnorm); `diffs` is never written.  The vertex checks
    of a gadget without a class form use it: its class vertices after the
    sorted-row certificate, and the walk.  A row whose power sum leaves the
    float range raises float_range_error."""
    q = pvalue(p)
    with np.errstate(over="ignore"):
        w = abs_powers(diffs, q)
        norms = w.max(axis=1) if math.isinf(q) else w.sum(axis=1) ** (1.0 / q)
    if not np.isfinite(norms).all():
        raise float_range_error(f"a vertex distance at p={q:g}")
    return norms


# entries (rows x row width) per chunk of a brute-force distance walk, 512 KiB
# per float64 temporary: 2^14 paid more per-chunk overhead on the oracle's
# benchmark jobs, and 2^18 was no faster there and slower on k=12 gadget checks
CHUNK_ENTRIES = 1 << 16


def chunk_rows(width: int) -> int:
    """Rows per chunk when each row of the walk's distance table has `width` entries."""
    return max(1, CHUNK_ENTRIES // width)


def integer_grid(ranges: Sequence[tuple[int, int]], chunk_size: int) -> Iterator[np.ndarray]:
    """Yield the integer box prod [lo_i, hi_i] as (m, n) int64 arrays of at
    most `chunk_size` rows, in ascending mixed-radix order (last coordinate
    fastest).  The box of no coordinates is one point: a single (1, 0) chunk."""
    total = box_volume(ranges)
    if not ranges:  # np.unravel_index refuses the empty shape
        yield np.zeros((1, 0), dtype=np.int64)
        return
    lows = np.array([lo for lo, _ in ranges], dtype=np.int64)
    sizes = tuple(hi - lo + 1 for lo, hi in ranges)
    for start in range(0, total, chunk_size):
        idx = np.arange(start, min(start + chunk_size, total), dtype=np.int64)
        yield np.column_stack(np.unravel_index(idx, sizes)) + lows


def box_volume(ranges: Sequence[tuple[int, int]]) -> int:
    vol = 1
    for lo, hi in ranges:
        if hi < lo:
            raise InvalidInputError("every box range needs lo <= hi")
        vol *= hi - lo + 1
    return vol
