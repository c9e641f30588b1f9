import functools
import itertools
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpca.lowdeg import (
    ChiSqReport,
    LowDegParams,
    chi_squared_exact,
    chi_squared_oracle,
    degree_term,
    even_all_count,
    even_surj_count,
    hermite_moment,
    hermite_moment_quadrature,
    hermite_normalized,
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
        assert even_all_count(m, j) == recursive_even_all(m, j)

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

    def test_out_of_range_D_warns(self):
        with pytest.warns(UserWarning):
            chi_squared_exact(LowDegParams(n=2, k=1, p=2, D=3, lam=1.0))

    def test_report_total_is_sum(self):
        report = chi_squared_exact(LowDegParams(n=3, k=1, p=2, D=2, lam=1.5))
        assert isinstance(report, ChiSqReport)
        assert report.total == sum(report.per_degree.values())
        assert all(v >= 0 for v in report.per_degree.values())


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
        # at the guaranteed-quiet threshold the chi-squared mass is <= 2 eps
        eps = 0.25
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for n, k, D, _ in SMALL_GRID:
                lam = lower_bound_lambda(n, k, 2, D, eps)
                total = chi_squared_exact(LowDegParams(n=n, k=k, p=2, D=D, lam=lam)).total
                assert total <= 2 * eps

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


class TestHermite:
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
        import numpy as np

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
