"""Exact low-degree chi-squared divergence for the distinguishing problem.

The degree-<=D chi-squared mass decomposes over multi-indices alpha of tensor
entries; only alpha whose per-coordinate usage counts are all even contribute.
Counting those alpha by the number s of distinct coordinates reduces the sum
to exact integer combinatorics (even_surj_count over the closed-form power
sums of even_all_count), evaluated in rational arithmetic, with a brute-force
multiset oracle for cross-checking and the threshold calculators in both
directions.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .tensor import unflatten

MAX_HERMITE_DEGREE = 40
ORACLE_MULTISET_GUARD = 10**6


@dataclass(frozen=True)
class LowDegParams:
    n: int
    k: int
    p: int
    D: int
    lam: float
    eps: float = 0.25

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if self.D < 1:
            raise ValueError("D must be >= 1")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if not 0 < self.eps <= 0.5:
            raise ValueError("eps must be in (0, 1/2]")


@dataclass
class ChiSqReport:
    """Degree-<=D chi-squared mass with its per-degree decomposition."""

    total: Fraction | float
    per_degree: dict[int, Fraction | float]
    arithmetic: str  # "exact-rational" or "log-float"
    d_le_2n_over_p: bool

    def to_json_dict(self) -> dict:
        return {
            "chi2": float(self.total),
            "per_degree": {str(d): float(v) for d, v in self.per_degree.items()},
            "arithmetic": self.arithmetic,
            "d_le_2n_over_p": self.d_le_2n_over_p,
        }


@functools.cache
def even_all_count(m: int, j: int) -> int:
    """Length-m sequences over j labeled symbols with every symbol count even.

    The exponential generating function is cosh(x)^j = 2^-j sum_i C(j, i)
    e^{(j - 2i) x}, so the count is 2^-j sum_i C(j, i) (j - 2i)^m. The power
    sum vanishes for odd m (terms i and j - i cancel) and is 0^m for j = 0.
    """
    if m < 0 or j < 0:
        raise ValueError("m and j must be nonnegative")
    return sum(math.comb(j, i) * (j - 2 * i) ** m for i in range(j + 1)) >> j


def even_surj_count(m: int, s: int) -> int:
    """Length-m sequences using each of s labeled symbols an even, nonzero count.

    Inclusion-exclusion over which symbols actually appear. Zero for odd m or
    s > m/2 (each used symbol needs count >= 2).
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if m % 2 == 1 or s > m // 2:
        return 0
    return sum((-1) ** (s - j) * math.comb(s, j) * even_all_count(m, j) for j in range(s + 1))


def degree_term(n: int, k: int, p: int, d: int) -> Fraction:
    """Sum over size-d entry multi-indices alpha with even coordinate profile
    of (k/n)^{2 s(alpha)} * prod 1/alpha_i!, as an exact rational.

    Grouping by s, the number of distinct coordinates used, gives
    (1/d!) * sum_s C(n, s) (k/n)^{2s} even_surj_count(pd, s). Zero when pd is
    odd; s is capped at n, which generalizes the d <= 2n/p counting range.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    m = p * d
    if m % 2 == 1:
        return Fraction(0)
    ratio = Fraction(k, n)
    total = Fraction(0)
    for s in range(1, min(m // 2, n) + 1):
        total += math.comb(n, s) * ratio ** (2 * s) * even_surj_count(m, s)
    return total / math.factorial(d)


def chi_squared_exact(params: LowDegParams, arithmetic: str = "exact-rational") -> ChiSqReport:
    """total = sum_{d=1}^{D} lam^{2d} k^{-pd} degree_term(n, k, p, d)."""
    if arithmetic not in ("exact-rational", "log-float"):
        raise ValueError("arithmetic must be 'exact-rational' or 'log-float'")
    n, k, p, D, lam = params.n, params.k, params.p, params.D, params.lam
    in_range = D <= 2 * n / p
    if not in_range:
        warnings.warn(
            f"D={D} exceeds 2n/p={2 * n / p:.3g}; counting range capped at s <= n",
            stacklevel=2,
        )
    per_degree: dict[int, Fraction | float] = {}
    if arithmetic == "exact-rational":
        lam_sq = Fraction(lam) ** 2
        for d in range(1, D + 1):
            per_degree[d] = lam_sq**d * degree_term(n, k, p, d) / Fraction(k) ** (p * d)
        total: Fraction | float = sum(per_degree.values(), Fraction(0))
    else:
        for d in range(1, D + 1):
            term = degree_term(n, k, p, d)
            if lam == 0.0 or term == 0:
                per_degree[d] = 0.0
                continue
            log_term = (
                2 * d * math.log(lam)
                - p * d * math.log(k)
                + math.log(term.numerator)
                - math.log(term.denominator)
            )
            per_degree[d] = math.exp(log_term)
        total = math.fsum(per_degree.values())
    return ChiSqReport(total, per_degree, arithmetic, in_range)


def _oracle_multiset_count(n: int, p: int, D: int) -> int:
    size = n**p
    return sum(math.comb(size + d - 1, d) for d in range(1, D + 1))


def chi_squared_oracle(params: LowDegParams) -> Fraction:
    """Direct enumeration over multisets of tensor entries; exact rational.

    Independent of the counting identity behind degree_term: it walks the
    entry multisets themselves, rebuilding the coordinate profile of each.
    """
    n, k, p, D = params.n, params.k, params.p, params.D
    count = _oracle_multiset_count(n, p, D)
    if count > ORACLE_MULTISET_GUARD:
        raise ValueError(f"{count} multisets exceeds oracle guard {ORACLE_MULTISET_GUARD}")
    lam_sq = Fraction(params.lam) ** 2
    ratio = Fraction(k, n)
    total = Fraction(0)
    for d in range(1, D + 1):
        degree_sum = Fraction(0)
        for alpha in itertools.combinations_with_replacement(range(n**p), d):
            coord_counts: Counter[int] = Counter()
            for entry in alpha:
                coord_counts.update(unflatten(entry, n, p))
            if any(c % 2 for c in coord_counts.values()):
                continue
            s = len(coord_counts)
            value = ratio ** (2 * s)
            for mult in Counter(alpha).values():
                value /= math.factorial(mult)
            degree_sum += value
        total += lam_sq**d / Fraction(k) ** (p * d) * degree_sum
    return total


def lower_bound_lambda(n: int, k: int, p: int, D: int, eps: float) -> float:
    """Signal strength below which the degree-<=D chi-squared mass is <= 2 eps."""
    if not 0 <= eps <= 0.5:
        raise ValueError("eps must be in [0, 1/2]")
    if D > 2 * n / p:
        warnings.warn(f"D={D} exceeds 2n/p={2 * n / p:.3g}", stacklevel=2)
    term_n = (n / (p * D)) ** (p / 4)
    term_k = (k / (p * D) * (1 + abs(math.log(n * p * D / (math.e * k**2))))) ** (p / 2)
    return math.sqrt(eps * D / (math.e * 4**p)) * min(term_n, term_k)


@dataclass
class UpperBoundReport:
    """Distinguishing-side thresholds; each regime carries its own validity."""

    regime1_lambda: float
    regime1_valid: bool
    regime2_lambda: float
    regime2_valid: bool

    @property
    def best(self) -> tuple[str, float] | None:
        """Smallest valid threshold, or None if neither regime applies."""
        options = []
        if self.regime1_valid:
            options.append(("regime1", self.regime1_lambda))
        if self.regime2_valid:
            options.append(("regime2", self.regime2_lambda))
        if not options:
            return None
        return min(options, key=lambda kv: kv[1])

    def to_json_dict(self) -> dict:
        return {
            "regime1": {"lambda": self.regime1_lambda, "valid": self.regime1_valid},
            "regime2": {"lambda": self.regime2_lambda, "valid": self.regime2_valid},
        }


def upper_bound_lambda(n: int, k: int, p: int, D: int, eps: float) -> UpperBoundReport:
    """Thresholds above which degree-D polynomials distinguish at level eps.

    Regime 1 needs D even; regime 2 additionally needs p <= n, a small-D
    condition, and a window on k.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    prefactor = eps ** (1.0 / (2 * D)) * math.sqrt(D)
    lam1 = prefactor * math.e ** (p / 2) * (n / (p * D)) ** (p / 4)
    d_even = D % 2 == 0
    if n > k:
        log_nk = math.log(n / k)
        lam2 = prefactor * (k / (p * D) * log_nk) ** (p / 2)
        window_low = math.sqrt(n * p) * math.e * math.sqrt(D) / log_nk
        window_high = math.sqrt(n * p)
        regime2_valid = (
            d_even
            and p <= n
            and D <= math.log(n / p) ** 2 / (4 * math.e**2)
            and window_low <= k <= window_high
        )
    else:
        lam2 = math.inf
        regime2_valid = False
    return UpperBoundReport(lam1, d_even, lam2, regime2_valid)


def hermite_normalized(nth: int, z: float) -> float:
    """Probabilists' Hermite polynomial at z, normalized by 1/sqrt(n!).

    Orthonormal under N(0,1): h_0 = 1, h_1 = z, h_2 = (z^2 - 1)/sqrt(2).
    """
    if not 0 <= nth <= MAX_HERMITE_DEGREE:
        raise ValueError(f"nth must be in [0, {MAX_HERMITE_DEGREE}]")
    prev, cur = 1.0, z  # He_0, He_1
    if nth == 0:
        return 1.0
    for m in range(1, nth):
        prev, cur = cur, z * cur - m * prev
    return cur / math.sqrt(math.factorial(nth))


def hermite_moment(nth: int, mu: float) -> float:
    """E_{z ~ N(mu, 1)}[h_nth(z)] = mu^nth / sqrt(nth!)."""
    if not 0 <= nth <= MAX_HERMITE_DEGREE:
        raise ValueError(f"nth must be in [0, {MAX_HERMITE_DEGREE}]")
    return mu**nth / math.sqrt(math.factorial(nth))


def hermite_moment_quadrature(nth: int, mu: float, order: int = 80) -> float:
    """Same moment by Gauss-Hermite quadrature against the N(mu, 1) density."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    values = np.array([hermite_normalized(nth, float(z) + mu) for z in nodes])
    return float(weights @ values / math.sqrt(2 * math.pi))
