import functools
import hashlib
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpca.lowdeg import (
    ChiSqReport,
    LowDegParams,
    _degree_terms,
    chi_squared_exact,
    chi_squared_oracle,
    degree_term,
    even_all_count,
    even_surj_count,
    lower_bound_lambda,
    upper_bound_lambda,
)

SMALL_GRID = [
    (n, k, D, lam)
    for n in (2, 3)
    for k in (1, 2)
    for D in (1, 2, 3)
    for lam in (0.5, 1.0, 2.0)
    if k <= n
]


def brute_even_all(m, j):
    """Count length-m sequences over j symbols with all counts even."""
    return sum(
        1
        for seq in itertools.product(range(j), repeat=m)
        if all(seq.count(sym) % 2 == 0 for sym in range(j))
    )


def brute_even_surj(m, s):
    """Sum of multinomials over compositions of m into s even nonzero parts."""
    if m % 2 == 1 or s > m // 2:
        return 0
    total = 0
    for cuts in itertools.combinations(range(1, m // 2), s - 1):
        bounds = (0, *cuts, m // 2)
        parts = [2 * (b - a) for a, b in zip(bounds, bounds[1:])]
        coeff = math.factorial(m)
        for part in parts:
            coeff //= math.factorial(part)
        total += coeff
    return total


@functools.cache
def recursive_even_all(m, j):
    """Recursion over the count c of the last symbol: sum over even c of
    C(m, c) * recursive_even_all(m - c, j - 1)."""
    if m % 2 == 1:
        return 0
    if j == 0:
        return 1 if m == 0 else 0
    return sum(math.comb(m, c) * recursive_even_all(m - c, j - 1) for c in range(0, m + 1, 2))


@functools.cache
def closed_form_even_all(m, j):
    """The power sum 2^-j sum_i C(j, i) (j - 2i)^m, the coefficient of x^m/m! in
    cosh(x)^j = 2^-j sum_i C(j, i) e^{(j - 2i) x}. Terms i and j - i cancel for
    odd m and are equal for even m, so the half i < j/2 is taken twice; the
    middle term C(j, j/2) 0^m adds up to 2^j only at m = 0, where the count is 1."""
    if m % 2 == 1:
        return 0
    if m == 0:
        return 1
    return 2 * sum(math.comb(j, i) * (j - 2 * i) ** m for i in range((j + 1) // 2)) >> j


def closed_form_even_surj(m, s):
    """even_surj_count's inclusion-exclusion over closed_form_even_all, so no
    value comes from the library's counting cache."""
    return sum((-1) ** (s - j) * math.comb(s, j) * closed_form_even_all(m, j)
               for j in range(s + 1))


def reference_degree_term(n, k, p, d, surj=even_surj_count):
    """(1/d!) sum_s C(n, s) (k/n)^{2s} surj(pd, s), one degree at a time."""
    m = p * d
    if m % 2 == 1:
        return Fraction(0)
    ratio = Fraction(k, n)
    total = sum(
        (math.comb(n, s) * ratio ** (2 * s) * surj(m, s)
         for s in range(1, min(m // 2, n) + 1)),
        Fraction(0),
    )
    return total / math.factorial(d)


def unreduced_degree_terms(n, k, p, D):
    """degree_term for d = 1..D over closed_form_even_all, each degree's
    coefficient table scaled by n^(2 S_max) with k/n left unreduced."""
    s_max = min(p * D // 2, n)
    scale = n ** (2 * s_max)
    terms = []
    for d in range(1, D + 1):
        m = p * d
        S = min(m // 2, n) if m % 2 == 0 else 0
        coeffs = [0] * (S + 1)  # coeffs[j] = scale * c_j(S)
        for s in range(1, S + 1):
            row = math.comb(n, s) * k ** (2 * s) * n ** (2 * (s_max - s))
            for j in range(1, s + 1):
                coeffs[j] += (-1) ** (s - j) * math.comb(s, j) * row
        num = sum(coeffs[j] * closed_form_even_all(m, j) for j in range(1, S + 1))
        terms.append(Fraction(num, scale * math.factorial(d)))
    return terms


def reference_log_float(lam, k, p, d, term):
    """The log-float per-degree formula applied to a reference degree term."""
    if lam == 0.0 or term == 0:
        return 0.0
    return math.exp(
        2 * d * math.log(lam)
        - p * d * math.log(k)
        + math.log(term.numerator)
        - math.log(term.denominator)
    )


@st.composite
def lowdeg_params(draw):
    n = draw(st.integers(1, 12))
    return LowDegParams(
        n=n,
        k=draw(st.integers(1, n)),
        p=draw(st.integers(2, 5)),
        D=draw(st.integers(1, 10)),
        lam=draw(st.sampled_from([0.0, 0.5, 1.0, 1.7, 3.0])),
    )


class TestEvenAllCount:
    def test_two_one(self):
        assert even_all_count(2, 1) == 1

    def test_two_two(self):
        assert even_all_count(2, 2) == 2

    def test_four_two(self):
        assert even_all_count(4, 2) == 8
        assert brute_even_all(4, 2) == 8

    def test_odd_m_is_zero(self):
        assert even_all_count(3, 2) == 0

    def test_matches_brute_force(self):
        for m in range(0, 7):
            for j in range(0, 4):
                assert even_all_count(m, j) == brute_even_all(m, j)

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(0, 120), j=st.integers(0, 60))
    def test_closed_form_matches_recursion(self, m, j):
        assert even_all_count(m, j) == closed_form_even_all(m, j) == recursive_even_all(m, j)

    def test_half_sum_matches_full_power_sum(self):
        # odd m, m = 0 and j = 0 are the cases the half sum treats apart
        for m in (0, 1, 2, 3, 7, 10, 33, 40):
            for j in range(20):
                full = sum(math.comb(j, i) * (j - 2 * i) ** m for i in range(j + 1)) >> j
                assert even_all_count(m, j) == closed_form_even_all(m, j) == full

    def test_recurrence_matches_closed_form_exhaustively(self):
        # every entry of the benchmark's limits config (m <= 240, j <= 120) and more
        for m in range(0, 241, 2):
            for j in range(121):
                assert even_all_count(m, j) == closed_form_even_all(m, j), (m, j)

    def test_cold_direct_call_at_m_1000(self):
        # 250 levels of recursion, within the limit the docstring states
        even_all_count.cache_clear()
        assert even_all_count(1000, 40) == closed_form_even_all(1000, 40)

    def test_large_j_needs_no_recursion(self):
        # m=2: one of the j symbols, used twice
        assert even_all_count(2, 1500) == 1500

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            even_all_count(-2, 1)
        with pytest.raises(ValueError):
            even_all_count(2, -1)


class TestEvenSurjCount:
    def test_two_one(self):
        assert even_surj_count(2, 1) == 1

    def test_six_two(self):
        # two symbols, counts (2,4) or (4,2): C(6;2,4) + C(6;4,2) = 15 + 15
        assert even_surj_count(6, 2) == 30

    def test_six_one_and_three(self):
        assert even_surj_count(6, 1) == 1
        assert even_surj_count(6, 3) == 90  # C(6;2,2,2)

    def test_odd_or_oversized_zero(self):
        assert even_surj_count(5, 2) == 0
        assert even_surj_count(4, 3) == 0

    def test_matches_composition_enumeration(self):
        for m in range(2, 13, 2):
            for s in range(1, 7):
                assert even_surj_count(m, s) == brute_even_surj(m, s)


class TestDegreeTerm:
    def test_worked_example(self):
        # p=2, n=2, k=1, d=3: (1/3)(k/n)^2 + 5(k/n)^4 at k/n = 1/2
        assert degree_term(2, 1, 2, 3) == Fraction(19, 48)
        assert Fraction(1, 3) * Fraction(1, 4) + 5 * Fraction(1, 16) == Fraction(19, 48)

    def test_odd_pd_is_zero(self):
        assert degree_term(4, 2, 3, 1) == 0
        assert degree_term(4, 2, 3, 3) == 0

    @settings(max_examples=150, deadline=None)
    @given(params=lowdeg_params())
    def test_matches_per_degree_reference(self, params):
        n, k, p = params.n, params.k, params.p
        for d in range(1, params.D + 1):
            assert degree_term(n, k, p, d) == reference_degree_term(n, k, p, d)

    def test_matches_reference_past_the_s_cap(self):
        # pd/2 > n for every d >= 2 here, so s stops at n while the degree grows
        for d in range(1, 9):
            assert degree_term(2, 1, 5, d) == reference_degree_term(2, 1, 5, d)
            assert degree_term(3, 2, 4, d) == reference_degree_term(3, 2, 4, d)

    @pytest.mark.parametrize(
        "n, k, p, d",
        [(5, 2, 0, 1), (5, 2, 1, 1), (-3, 1, 2, 1), (0, 0, 2, 1), (3, 5, 2, 2), (3, 0, 2, 2)],
    )
    def test_invalid_inputs_rejected(self, n, k, p, d):
        # the same check as LowDegParams, so both reject the same inputs
        with pytest.raises(ValueError) as term_error:
            degree_term(n, k, p, d)
        with pytest.raises(ValueError) as params_error:
            LowDegParams(n=n, k=k, p=p, D=d, lam=1.0)
        assert str(term_error.value) == str(params_error.value)

    def test_lowest_terms_match_unreduced_scale(self):
        # g = gcd(n, k) runs through 1, k (k | n), n (k = n) and the values between;
        # each D has its own S_max, so each is its own table
        for p in (2, 3, 4, 5):
            for n in range(1, 41):
                for k in range(1, n + 1):
                    expected = unreduced_degree_terms(n, k, p, 12)
                    for D in range(1, 13):
                        assert list(_degree_terms(n, k, p, D)) == expected[:D], (n, k, p, D)

    @pytest.mark.parametrize("n", [2000, 2001])  # g = 40 and g = 1
    def test_lowest_terms_match_unreduced_scale_at_limits_config(self, n):
        assert list(_degree_terms(n, 40, 4, 60)) == unreduced_degree_terms(n, 40, 4, 60)

    def test_matches_entry_multiset_oracle(self):
        # isolate d=2 from oracle totals at lam=1 (terms scale by k^{-pd})
        n, k, p = 3, 2, 2
        with_d2 = chi_squared_oracle(LowDegParams(n=n, k=k, p=p, D=2, lam=1.0))
        with_d1 = chi_squared_oracle(LowDegParams(n=n, k=k, p=p, D=1, lam=1.0))
        assert degree_term(n, k, p, 2) == (with_d2 - with_d1) * Fraction(k) ** (p * 2)


class TestChiSquared:
    def test_zero_lambda(self):
        report = chi_squared_exact(LowDegParams(n=3, k=2, p=2, D=3, lam=0.0))
        assert report.total == 0

    def test_assembly_from_degree_terms(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = chi_squared_exact(LowDegParams(n=2, k=1, p=2, D=3, lam=1.0))
        expected = sum(degree_term(2, 1, 2, d) for d in (1, 2, 3))
        assert report.total == expected
        assert report.per_degree[3] == Fraction(19, 48)

    def test_oracle_equality_grid(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for n, k, D, lam in SMALL_GRID:
                params = LowDegParams(n=n, k=k, p=2, D=D, lam=lam)
                assert chi_squared_exact(params).total == chi_squared_oracle(params)

    @settings(max_examples=100, deadline=None)
    @given(params=lowdeg_params())
    def test_both_arithmetics_match_per_degree_reference(self, params):
        n, k, p, D, lam = params.n, params.k, params.p, params.D, params.lam
        terms = {d: reference_degree_term(n, k, p, d) for d in range(1, D + 1)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            exact = chi_squared_exact(params)
            approx = chi_squared_exact(params, "log-float")
        lam_sq = Fraction(lam) ** 2
        expected = {d: lam_sq**d * t / Fraction(k) ** (p * d) for d, t in terms.items()}
        assert exact.per_degree == expected
        assert exact.total == sum(expected.values(), Fraction(0))
        expected_log = {d: reference_log_float(lam, k, p, d, t) for d, t in terms.items()}
        assert approx.per_degree == expected_log
        assert approx.total == math.fsum(expected_log.values())

    def test_oracle_hand_case(self):
        # n=2, p=2, D=1, k=1, lam=1: of the 4 entries only the two diagonal
        # ones have an even coordinate profile, each weighing (k/n)^2 = 1/4
        assert chi_squared_oracle(LowDegParams(n=2, k=1, p=2, D=1, lam=1.0)) == Fraction(1, 2)

    def test_log_float_agrees_with_exact(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for n in (2, 3):
                for k in (1, 2):
                    if k > n:
                        continue
                    for D in (1, 2, 3, 4):
                        for lam in (0.5, 1.0, 2.0):
                            params = LowDegParams(n=n, k=k, p=2, D=D, lam=lam)
                            exact = float(chi_squared_exact(params).total)
                            approx = chi_squared_exact(params, "log-float").total
                            assert approx == pytest.approx(exact, rel=1e-12)

    @given(st.floats(0.1, 3.0), st.floats(0.01, 2.0))
    @settings(max_examples=50)
    def test_monotone_in_lambda(self, lam, bump):
        lo = chi_squared_exact(LowDegParams(n=3, k=2, p=2, D=2, lam=lam)).total
        hi = chi_squared_exact(LowDegParams(n=3, k=2, p=2, D=2, lam=lam + bump)).total
        assert hi > lo

    def test_totals_match_closed_form_reference(self):
        # p in 2..5 covers both row chains and the fill between requested rows
        lam = 1.5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for p in (2, 3, 4, 5):
                for n in range(1, 13):
                    for k in range(1, n + 1):
                        expected = Fraction(0)
                        for D in range(1, 13):
                            term = reference_degree_term(n, k, p, D, closed_form_even_surj)
                            expected += Fraction(lam) ** (2 * D) / Fraction(k) ** (p * D) * term
                            total = chi_squared_exact(LowDegParams(n, k, p, D, lam)).total
                            assert total == expected, (n, k, p, D)

    def test_out_of_range_D_warns(self):
        with pytest.warns(UserWarning):
            chi_squared_exact(LowDegParams(n=2, k=1, p=2, D=3, lam=1.0))

    def test_report_total_is_sum(self):
        report = chi_squared_exact(LowDegParams(n=3, k=1, p=2, D=2, lam=1.5))
        assert isinstance(report, ChiSqReport)
        assert report.total == sum(report.per_degree.values())
        assert all(v >= 0 for v in report.per_degree.values())


class TestDoubleRange:
    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_named_in_error(self, lam):
        with pytest.raises(ValueError, match="lam must be finite"):
            LowDegParams(n=6, k=2, p=3, D=2, lam=lam)

    # lambda^60 = 1e12000 at n=50, k=5, p=3, D=30: far beyond the double range
    HUGE = LowDegParams(n=50, k=5, p=3, D=30, lam=1e200)

    def test_log_float_overflow_is_value_error(self):
        with pytest.raises(ValueError, match="double range"):
            chi_squared_exact(self.HUGE, arithmetic="log-float")

    def test_exact_overflow_is_value_error(self):
        report = chi_squared_exact(self.HUGE)
        assert report.total > 10**308
        with pytest.raises(ValueError, match="double range"):
            report.to_json_dict()


class TestLimitsConfig:
    """n=2000, k=40, p=4, D=60: the configuration of the benchmark's limits op."""

    PARAMS = LowDegParams(n=2000, k=40, p=4, D=60, lam=1.0)

    def test_cold_cache_entries_and_exact_total(self):
        even_all_count.cache_clear()
        total = chi_squared_exact(self.PARAMS).total
        # rows m = 4..240 filled for 1 <= j <= S_max = 120, the base row m = 0 for
        # 0 <= j <= 120, and j = 0 at m = 4..236, reached from j = 2 and j = 4
        assert even_all_count.cache_info().currsize == 60 * 120 + 121 + 59 == 7380
        digest = hashlib.sha256(f"{total.numerator}/{total.denominator}".encode()).hexdigest()
        assert digest == "3778b4571db8c2f41f52f147d5fa8a2ffbc49899359749a40310f4480805e31a"

    def test_log_float_total(self):
        assert chi_squared_exact(self.PARAMS, "log-float").total == 1.062139598484739e-06


class TestThresholds:
    def test_lower_bound_zero_eps(self):
        assert lower_bound_lambda(16, 4, 2, 1, 0.0) == 0.0

    def test_lower_bound_value(self):
        assert lower_bound_lambda(16, 4, 2, 1, 0.5) == pytest.approx(
            0.28024278786868856, rel=1e-12
        )

    def test_upper_bound_odd_D_invalid(self):
        report = upper_bound_lambda(16, 4, 2, 1, 0.5)
        assert not report.regime1_valid and not report.regime2_valid
        assert report.best is None

    def test_upper_bound_regime1_value(self):
        report = upper_bound_lambda(16, 4, 2, 2, 1.0)
        assert report.regime1_valid
        assert report.regime1_lambda == pytest.approx(2 * math.sqrt(2) * math.e, rel=1e-12)

    def test_lower_bound_consistency_sweep(self):
        # at the guaranteed-quiet threshold the chi-squared mass is <= 2 eps: the
        # paper's low-degree lower bound as an invariant of the code, on SMALL_GRID
        # and on n in {50, 200}, k in {2, 5}, p in {2, 3, 4}, D in {2, 4, 8} <= 2n/p
        eps = 0.25
        grid = [(n, k, 2, D) for n, k, D, _ in SMALL_GRID]
        grid += itertools.product((50, 200), (2, 5), (2, 3, 4), (2, 4, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for n, k, p, D in grid:
                lam = lower_bound_lambda(n, k, p, D, eps)
                total = chi_squared_exact(LowDegParams(n=n, k=k, p=p, D=D, lam=lam)).total
                assert total <= 2 * eps, (n, k, p, D)

    def test_regime1_consistency(self):
        # at the distinguishing threshold the mass is >= eps
        eps = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for n, k in ((2, 1), (2, 2), (3, 1), (3, 2)):
                report = upper_bound_lambda(n, k, 2, 2, eps)
                assert report.regime1_valid
                total = chi_squared_exact(
                    LowDegParams(n=n, k=k, p=2, D=2, lam=report.regime1_lambda)
                ).total
                assert total >= eps


MAX_HERMITE_DEGREE = 40


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


class TestHermite:
    """The Hermite oracles behind the per-entry moment E[h_n(z)] = mu^n / sqrt(n!)."""

    def test_low_orders(self):
        for z in (-1.3, 0.0, 0.4, 2.0):
            assert hermite_normalized(0, z) == 1.0
            assert hermite_normalized(1, z) == pytest.approx(z)
            assert hermite_normalized(2, z) == pytest.approx((z * z - 1) / math.sqrt(2))

    def test_moment_closed_form(self):
        assert hermite_moment(3, 0.7) == pytest.approx(0.343 / math.sqrt(6), abs=1e-12)

    def test_moment_quadrature_matches(self):
        for nth in range(0, 7):
            for mu in (0.0, 0.7, -1.2):
                assert hermite_moment_quadrature(nth, mu) == pytest.approx(
                    hermite_moment(nth, mu), abs=1e-10
                )

    def test_orthonormality(self):
        nodes, weights = np.polynomial.hermite_e.hermegauss(80)
        norm = math.sqrt(2 * math.pi)
        for m in range(9):
            for n in range(9):
                val = sum(
                    w * hermite_normalized(m, z) * hermite_normalized(n, z)
                    for z, w in zip(nodes, weights)
                ) / norm
                assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-10)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            hermite_normalized(41, 0.0)
