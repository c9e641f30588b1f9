"""Exact low-degree chi-squared divergence for the distinguishing problem.

The degree-<=D chi-squared mass decomposes over multi-indices alpha of tensor
entries; only alpha whose per-coordinate usage counts are all even contribute.
Counting those alpha by the number s of distinct coordinates reduces the sum
to exact integer combinatorics over even_all_count, which a four-step integer
recurrence in m fills row by row, in increasing m. One integer coefficient
table per call folds in even_surj_count's inclusion-exclusion, so each degree
is one dot product, evaluated in rational arithmetic. even_surj_count is the
reference for that table, a brute-force multiset oracle cross-checks the
totals, and the threshold calculators cover both directions.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .tensor import unflatten

ORACLE_MULTISET_GUARD = 10**6


@dataclass(frozen=True)
class LowDegParams:
    n: int
    k: int
    p: int
    D: int
    lam: float

    def __post_init__(self):
        _check_nkp(self.n, self.k, self.p)
        if self.D < 1:
            raise ValueError("D must be >= 1")
        if not math.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam}")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")


def _check_nkp(n: int, k: int, p: int) -> None:
    """The ranges the counting identities assume: 1 <= k <= n (so n >= 1), p >= 2."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if p < 2:
        raise ValueError("p must be >= 2")


@dataclass
class ChiSqReport:
    """Degree-<=D chi-squared mass with its per-degree decomposition."""

    total: Fraction | float
    per_degree: dict[int, Fraction | float]
    arithmetic: str  # "exact-rational" or "log-float"
    d_le_2n_over_p: bool

    def to_json_dict(self) -> dict:
        return {
            "chi2": _as_double(float, self.total),
            "per_degree": {str(d): float(v) for d, v in self.per_degree.items()},
            "arithmetic": self.arithmetic,
            "d_le_2n_over_p": self.d_le_2n_over_p,
        }


def _as_double(f, *args) -> float:
    """f(*args) as a double; an overflow of the double range raises ValueError."""
    try:
        return f(*args)
    except OverflowError:
        raise ValueError("chi-squared mass exceeds the double range (about 1.8e308)") from None


@functools.cache
def even_all_count(m: int, j: int) -> int:
    """Length-m sequences over j labeled symbols with every symbol count even.

    The count E(m, j) is the coefficient of x^m/m! in cosh(x)^j. Differentiating
    twice gives E(m, j) = j^2 E(m-2, j) - j(j-1) E(m-2, j-2); applied twice,

        E(m, j) = j^4 E(m-4, j) - 2j(j-1)(j^2-2j+2) E(m-4, j-2)
                  + j(j-1)(j-2)(j-3) E(m-4, j-4),

    from E(0, j) = 1 and E(2, j) = j; odd m gives 0. Each entry costs three
    small-int by big-int products.

    A cold call recurses m/4 levels deep, and each level uses two of the
    interpreter's recursion limit (1000 by default), so a cold call with m
    of 2,000 or more raises RecursionError. _degree_terms fills the rows in
    increasing m, so its calls recurse one level at most.
    """
    if m < 0 or j < 0:
        raise ValueError("m and j must be nonnegative")
    if m % 2 == 1:
        return 0
    if m <= 2:
        return j if m == 2 else 1
    count = j**4 * even_all_count(m - 4, j)
    if j >= 2:
        count -= 2 * j * (j - 1) * (j * j - 2 * j + 2) * even_all_count(m - 4, j - 2)
    if j >= 4:
        count += j * (j - 1) * (j - 2) * (j - 3) * even_all_count(m - 4, j - 4)
    return count


def even_surj_count(m: int, s: int) -> int:
    """Length-m sequences using each of s labeled symbols an even, nonzero count.

    Inclusion-exclusion over which symbols actually appear. Zero for odd m or
    s > m/2 (each used symbol needs count >= 2). _degree_terms folds this
    sum into its coefficient table; the tests check the table against it.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if m % 2 == 1 or s > m // 2:
        return 0
    return sum((-1) ** (s - j) * math.comb(s, j) * even_all_count(m, j) for j in range(s + 1))


def _degree_terms(n: int, k: int, p: int, D: int) -> Iterator[Fraction]:
    """degree_term(n, k, p, d) for d = 1..D, from one integer coefficient table.

    With m = pd, S = min(m/2, n) and r = k/n, swapping the sum over s with
    even_surj_count's alternating sum gives
    d! degree_term = sum_{j=1}^{S} c_j(S) even_all_count(m, j), where
    c_j(S) = sum_{s=j}^{S} (-1)^{s-j} C(n, s) C(s, j) r^{2s}; j = 0 drops out
    because even_all_count(m, 0) = 0^m. S never decreases with d, so each s
    adds its row to the table once. In lowest terms r = k'/n', with
    g = gcd(n, k), n' = n/g and k' = k/g; scaled by n'^(2 S_max), every row
    is an integer, C(n, s) k'^(2s) n'^(2(S_max - s)) C(s, j), and each degree
    costs one dot product and one Fraction. Fractions normalize, so the terms
    equal those of the unreduced scale n^(2 S_max), which coprime n and k
    (g = 1) keep; at n=2000, k=40 (g = 40, r = 1/50) every integer is about
    half as long.

    even_all_count's recurrence steps m by 4, so the rows m = 0 and m = 2
    (mod 4) form two chains. Before each degree, m's chain is filled up to
    row m for every j <= S_max, in increasing m, so no call recurses more
    than one row.
    """
    s_max = min(p * D // 2, n)
    g = math.gcd(n, k)
    n_red, k_red = n // g, k // g
    scale = n_red ** (2 * s_max)
    coeffs = [0]  # coeffs[j] = scale * c_j(S); j = 0 is never read
    chain_top = {0: 0, 2: -2}  # last row filled per chain; base row 0 is never requested
    for d in range(1, D + 1):
        m = p * d
        if m % 2 == 1:
            yield Fraction(0)
            continue
        S = min(m // 2, n)
        for s in range(len(coeffs), S + 1):
            coeffs.append(0)
            # row = scale * C(n, s) r^{2s} C(s, j), walked down from j = s
            row = math.comb(n, s) * k_red ** (2 * s) * n_red ** (2 * (s_max - s))
            for j in range(s, 0, -1):
                coeffs[j] += -row if (s - j) % 2 else row
                row = row * j // (s - j + 1)
        for m_fill in range(chain_top[m % 4] + 4, m + 1, 4):  # ends at m_fill = m
            counts = [even_all_count(m_fill, j) for j in range(1, s_max + 1)]
        chain_top[m % 4] = m
        num = sum(c * e for c, e in zip(coeffs[1:], counts))  # j = 1..S
        yield Fraction(num, scale * math.factorial(d))


def degree_term(n: int, k: int, p: int, d: int) -> Fraction:
    """Sum over size-d entry multi-indices alpha with even coordinate profile
    of (k/n)^{2 s(alpha)} * prod 1/alpha_i!, as an exact rational.

    Grouping by s, the number of distinct coordinates used, gives
    (1/d!) * sum_s C(n, s) (k/n)^{2s} even_surj_count(pd, s). Zero when pd is
    odd; s is capped at n, which generalizes the d <= 2n/p counting range.
    """
    _check_nkp(n, k, p)
    if d < 1:
        raise ValueError("d must be >= 1")
    *_, term = _degree_terms(n, k, p, d)
    return term


def _degree_in_range(n: int, p: int, D: int) -> bool:
    """Whether D <= 2n/p; otherwise warn, with the one message both callers share."""
    if D <= 2 * n / p:
        return True
    warnings.warn(f"D={D} exceeds 2n/p={2 * n / p:.3g}", stacklevel=3)
    return False


def chi_squared_exact(params: LowDegParams, arithmetic: str = "exact-rational") -> ChiSqReport:
    """total = sum_{d=1}^{D} lam^{2d} k^{-pd} degree_term(n, k, p, d).

    Warns when D > 2n/p; the counting range is then capped at s <= n.
    """
    if arithmetic not in ("exact-rational", "log-float"):
        raise ValueError("arithmetic must be 'exact-rational' or 'log-float'")
    n, k, p, D, lam = params.n, params.k, params.p, params.D, params.lam
    in_range = _degree_in_range(n, p, D)
    terms = enumerate(_degree_terms(n, k, p, D), start=1)
    per_degree: dict[int, Fraction | float] = {}
    if arithmetic == "exact-rational":
        lam_sq = Fraction(lam) ** 2
        for d, term in terms:
            per_degree[d] = lam_sq**d * term / Fraction(k) ** (p * d)
        total: Fraction | float = sum(per_degree.values(), Fraction(0))
    else:
        for d, term in terms:
            if lam == 0.0 or term == 0:
                per_degree[d] = 0.0
                continue
            log_term = (
                2 * d * math.log(lam)
                - p * d * math.log(k)
                + math.log(term.numerator)
                - math.log(term.denominator)
            )
            per_degree[d] = _as_double(math.exp, log_term)
        total = _as_double(math.fsum, per_degree.values())
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
    _degree_in_range(n, p, D)
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
