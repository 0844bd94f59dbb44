"""Weighted binomial sums, their contour-integral form, the product identity
for the squared-factorial ratio, and the theta-series exponent constants.

The alternating sum sum_i (-1)^i C(k, i) |i - tau|^p and its non-alternating
partner are the two eigenvalues driving the parity gadget; everything here
gives independent routes to their values and bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError, VerificationError
from .numeric import finite_pvalue, sin_half_pi


def binom_sum(k: int, tau: float, p: float, alternating: bool = False):
    """The weighted binomial sum sum_i C(k, i) |i - tau|^p, with the sign
    (-1)^i when alternating, by direct O(k) evaluation with compensated
    summation.  The callers validate k and p.

    Returns an exact integer when p and tau are both integers.
    """
    tau, p = float(tau), float(p)
    sign = -1 if alternating else 1
    if p.is_integer() and tau.is_integer():
        e, t0 = int(p), int(tau)
        return sum(sign**i * math.comb(k, i) * abs(i - t0) ** e for i in range(k + 1))
    return math.fsum(sign**i * math.comb(k, i) * abs(i - tau) ** p for i in range(k + 1))


def direct_alt_sum(n: int, m: int, p) -> float:
    """The (n, m) parameterization of the alternating sum:
    sum_{i=0}^{2n-m} (-1)^(n-i) C(2n-m, i) |n - i|^p."""
    q = finite_pvalue(p)
    return math.fsum(
        (-1) ** ((n - i) % 2) * math.comb(2 * n - m, i) * abs(n - i) ** q
        for i in range(2 * n - m + 1)
    )


def _log_sinh(x: float) -> float:
    if x > 20.0:
        return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)
    return math.log(math.sinh(x))


def alt_sum_integral(n: int, m: int, p) -> float:
    """Contour-integral evaluation of direct_alt_sum:

        -2 sin(pi p/2) C(2n-m, n) *
        int_0^inf x^p / sinh(pi x) * Re(G(n-m+1) G(n+1) /
                                        (G(n-m+1+ix) G(n+1-ix))) dx

    with the real part computed through the complex log-gamma function.  The
    integrand is evaluated in log space (the gamma ratio grows like sinh, so
    the product decays only polynomially) and integrated adaptively over the
    whole half-line.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidInputError(f"n must be a positive integer, got {n!r}")
    if not (isinstance(m, (int, np.integer)) and 0 <= m <= n):
        raise InvalidInputError(f"m must lie in [0, n], got {m!r}")
    q = finite_pvalue(p)
    if not q < 2 * n - m:
        raise InvalidInputError(f"need p < 2n - m, got p={q}, 2n-m={2 * n - m}")
    sine = sin_half_pi(q)
    if sine == 0.0:
        return 0.0
    # scipy is imported where it is used: it triples the CLI's import time
    from scipy import integrate, special

    const = math.lgamma(n - m + 1) + math.lgamma(n + 1)

    def integrand(x: float) -> float:
        if x <= 0.0:
            return 0.0 if q > 1.0 else 1.0 / math.pi
        g = const - special.loggamma(complex(n - m + 1, x)) - special.loggamma(complex(n + 1, -x))
        return math.exp(q * math.log(x) - _log_sinh(math.pi * x) + g.real) * math.cos(g.imag)

    value, _ = integrate.quad(integrand, 0.0, np.inf, limit=400, epsabs=1e-14, epsrel=1e-11)
    return -2.0 * sine * math.comb(2 * n - m, n) * value


# ---------------------------------------------------------------------------
# the normalized alternating sum and its limit


@dataclass(frozen=True)
class SkpResult:
    value: float
    sign: int
    lower_bound: float
    exact: Fraction | None = None


def s_kp(k: int, p) -> SkpResult:
    """Normalized alternating sum S = A(k, floor(k/2), p) / C(k, floor(k/2)).

    Its sign is (-1)^(floor(k/2) + floor(p/2) + 1) (zero at even integer p)
    and |S| never drops below the infinite-k limit c_p_limit(p).  Integer p
    additionally gives an exact rational value.
    """
    if k < 3:
        raise InvalidInputError("normalized sum needs k >= 3")
    q = finite_pvalue(p)
    if not q < k:
        raise InvalidInputError(f"need p < k, got p={q}, k={k}")
    tau = k // 2
    raw = binom_sum(k, tau, q, alternating=True)
    denom = math.comb(k, tau)
    exact = Fraction(raw, denom) if isinstance(raw, int) else None
    value = float(raw) / denom
    expected = 0 if (q.is_integer() and int(q) % 2 == 0) else (-1) ** (k // 2 + math.floor(q / 2) + 1)
    actual = 0 if value == 0.0 else (1 if value > 0 else -1)
    if actual != expected:
        raise VerificationError(
            f"sign of the normalized sum at k={k}, p={q} is {actual}, predicted {expected}"
        )
    lower = c_p_limit(q).value
    if abs(value) < lower * (1.0 - 1e-9):
        raise VerificationError(
            f"|S| = {abs(value)} dropped below its infinite-k limit {lower} at k={k}, p={q}"
        )
    return SkpResult(value=value, sign=actual, lower_bound=lower, exact=exact)


@dataclass(frozen=True)
class CpLimit:
    value: float
    weak_bound: float


def c_p_limit(p) -> CpLimit:
    """Infinite-k limit of |S|:
    2 |sin(pi p/2)| zeta(p+1) (2 - 2^-p) Gamma(p+1) / pi^(p+1),
    together with the weaker closed bound 4 |sin(pi p/2)| (p / (e pi))^p."""
    from scipy import special

    q = finite_pvalue(p)
    sine = abs(sin_half_pi(q))
    value = 2.0 * sine * float(special.zeta(q + 1.0)) * (2.0 - 2.0**-q) * math.gamma(q + 1.0) / math.pi ** (q + 1.0)
    weak = 4.0 * sine * (q / (math.e * math.pi)) ** q
    if value < weak * (1.0 - 1e-12):
        raise VerificationError(f"limit {value} fell below its weak bound {weak} at p={q}")
    return CpLimit(value=value, weak_bound=weak)


# ---------------------------------------------------------------------------
# non-alternating sum bounds


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    rhs: float
    passed: bool
    rhs_c1: float | None = None
    passed_c1: bool | None = None


def non_alt_bound_check(k: int, p, c: int = 0) -> BoundReport:
    """Check sum_i C(k, i) |i - (k-c)/2|^p against
    11 C(k+c, floor((k+c)/2)) (p (k+c) / 2)^((p+1)/2), plus the c = 1
    specialization with constant 44 over the un-shifted central binomial."""
    if k < 2:
        raise InvalidInputError("bound needs k >= 2")
    q = finite_pvalue(p)
    if not q < k:
        raise InvalidInputError(f"need p < k, got p={q}, k={k}")
    if not (isinstance(c, (int, np.integer)) and c >= 0):
        raise InvalidInputError("c must be a non-negative integer")
    lhs = float(binom_sum(k, (k - c) / 2, q))
    rhs = 11.0 * math.comb(k + c, (k + c) // 2) * (q * (k + c) / 2.0) ** ((q + 1.0) / 2.0)
    report = BoundReport(lhs=lhs, rhs=rhs, passed=lhs <= rhs)
    if c == 1:
        rhs_c1 = 44.0 * math.comb(k, k // 2) * (q * k / 2.0) ** ((q + 1.0) / 2.0)
        report = BoundReport(lhs=lhs, rhs=rhs, passed=lhs <= rhs, rhs_c1=rhs_c1, passed_c1=lhs <= rhs_c1)
    return report


# ---------------------------------------------------------------------------
# squared-factorial ratio product identity


def factorial_ratio(k: int, x: float) -> float:
    """Gamma(k+1)^2 / (Gamma(k+1+ix) Gamma(k+1-ix)) through complex log-gamma."""
    from scipy import special

    g = 2.0 * math.lgamma(k + 1) - special.loggamma(complex(k + 1, x)) - special.loggamma(complex(k + 1, -x))
    # the two conjugate terms cancel imaginary parts exactly
    return float(np.real(np.exp(g)))


def sinh_product(k: int, x: float) -> float:
    """sinh(pi x)/(pi x) * prod_{j=1}^k (1 + x^2/j^2)^(-1)."""
    lead = math.sinh(math.pi * x) / (math.pi * x)
    prod = 1.0
    for j in range(1, k + 1):
        prod *= 1.0 + x * x / (j * j)
    return lead / prod


def ramanujan_check(k: int, x: float) -> float:
    """Relative residual between the factorial ratio and the sinh product;
    also confirms the value strictly decreases from k-1 to k."""
    if x == 0:
        raise InvalidInputError("the identity needs x != 0")
    if k < 1:
        raise InvalidInputError("k must be at least 1")
    lhs = factorial_ratio(k, x)
    rhs = sinh_product(k, x)
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    if k >= 2 and not factorial_ratio(k, x) < factorial_ratio(k - 1, x):
        raise VerificationError(f"factorial ratio failed to decrease from k={k - 1} to k={k} at x={x}")
    return residual


# ---------------------------------------------------------------------------
# theta-series exponent constants


THETA_TERM_CUTOFF = 1e-18


def theta_series(p, tau: float) -> float:
    """sum_{z in Z} exp(-tau |z|^p), truncated when terms drop below 1e-18."""
    q = finite_pvalue(p)
    if not tau > 0:
        raise InvalidInputError("tau must be positive")
    total = 1.0
    z = 1
    while True:
        term = math.exp(-tau * float(z) ** q)
        total += 2.0 * term
        if term < THETA_TERM_CUTOFF:
            break
        z += 1
    return total


def w_constant(p) -> float:
    """min over tau > 0 of exp(tau / 2^p) * theta_series(p, tau), by
    golden-section search over log tau."""
    q = finite_pvalue(p)
    if not q > 2:
        raise InvalidInputError(f"exponent constants need p > 2, got {q}")

    def objective(log_tau: float) -> float:
        tau = math.exp(log_tau)
        return math.exp(tau / 2.0**q) * theta_series(q, tau)

    lo, hi = math.log(1e-4), math.log(200.0)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - golden * (hi - lo), lo + golden * (hi - lo)
    fa, fb = objective(a), objective(b)
    for _ in range(160):
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - golden * (hi - lo)
            fa = objective(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + golden * (hi - lo)
            fb = objective(b)
    return objective((lo + hi) / 2.0)


@dataclass(frozen=True)
class SvpConstants:
    p: float
    W: float
    C: float | None  # None when W >= 2 (exponent constant undefined)


def svp_constants(p) -> SvpConstants:
    q = finite_pvalue(p)
    W = w_constant(q)
    C = None if W >= 2.0 else 1.0 / (1.0 - math.log2(W))
    return SvpConstants(p=q, W=W, C=C)


def find_p0(tol: float = 1e-6) -> float:
    """Unique p with w_constant(p) = 2, by bisection."""
    lo, hi = 2.01, 3.0
    if not (w_constant(lo) > 2.0 > w_constant(hi)):
        raise VerificationError("bisection bracket for the threshold exponent is invalid")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if w_constant(mid) > 2.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0
