import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from stpca import infotheory
from stpca.infotheory import (
    covering_number_oracle,
    dist_l2,
    dist_sign_invariant,
    enumerate_Uk,
    greedy_cover_size,
    it_bound_report,
    kl_upper_bound,
    minimax_lambda,
    packing_lower_bound_log,
    risk_constant,
)

METRICS = {"l2": dist_l2, "rho": dist_sign_invariant}
# includes the exact distances sqrt(2), sqrt(3) and 2 between points of U_k
EPS_GRID = (0.5, 1.0, 1.2, math.sqrt(2), 1.5, math.sqrt(3), 2.0)
# every (n, k) with n <= 7, k <= 3 and |U_k| <= 120
SMALL_UK = [(n, k) for n in range(1, 8) for k in range(1, min(3, n) + 1)
            if 2**k * math.comb(n, k) <= 120]


def reference_Uk(n, k):
    """U_k built entry by entry: supports lexicographic, signs counting from +1."""
    mag = 1.0 / math.sqrt(k)
    out = []
    for support in itertools.combinations(range(n), k):
        for signs in itertools.product((1.0, -1.0), repeat=k):
            v = np.zeros(n)
            for i, s in zip(support, signs):
                v[i] = s * mag
            out.append(v)
    return out


def reference_greedy(points, eps, dist):
    """Greedy net recomputing every distance; ties go to the smallest index."""
    uncovered = set(range(len(points)))
    size = 0
    while uncovered:
        best_i, best_gain = None, -1
        for i in sorted(uncovered):
            gain = sum(1 for j in uncovered if dist(points[i], points[j]) <= eps)
            if gain > best_gain:
                best_i, best_gain = i, gain
        uncovered -= {j for j in uncovered if dist(points[best_i], points[j]) <= eps}
        size += 1
    return size


def reference_min_cover(points, eps, dist):
    """Smallest net found by trying every center subset in order of size."""
    m = len(points)
    for size in range(1, m + 1):
        for centers in itertools.combinations(range(m), size):
            if all(any(dist(points[c], points[j]) <= eps for c in centers) for j in range(m)):
                return size


class TestMinimaxLambda:
    def test_boundary_undefined(self):
        assert minimax_lambda(20, 10) is None  # n = 2k: log term vanishes

    def test_value(self):
        expected = math.sqrt(10 / 12 * math.log(9) - 0.5)
        assert minimax_lambda(100, 10) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_n(self):
        values = [minimax_lambda(n, 10) for n in (200, 400, 800, 1600)]
        assert all(v is not None for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_undefined_iff_argument_nonpositive(self):
        for n in range(2, 60):
            for k in range(1, n // 2 + 1):
                defined = minimax_lambda(n, k) is not None
                assert defined == (k * math.log((n - k) / k) > 6)


class TestPackingBound:
    def test_value(self):
        log_bound = packing_lower_bound_log(4, 1, 1.0)
        assert log_bound == pytest.approx(0.5 * math.log(3), abs=1e-12)
        assert math.exp(log_bound) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_small_eps_limit(self):
        small = packing_lower_bound_log(100, 5, 1e-9)
        assert small == pytest.approx(5 * math.log(19), rel=1e-6)

    def test_bounded_by_cardinality(self):
        for n in range(2, 13):
            for k in range(1, min(4, n // 2) + 1):
                log_card = math.log(2**k * math.comb(n, k))
                assert packing_lower_bound_log(n, k, 0.5) <= log_card + 1e-12

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            packing_lower_bound_log(3, 2, 0.5)
        with pytest.raises(ValueError):
            packing_lower_bound_log(10, 2, 0.0)


class TestKlUpperBound:
    def test_values(self):
        assert kl_upper_bound(0.0) == 0.0
        assert kl_upper_bound(2.0) == 8.0
        assert kl_upper_bound(1.5) == 4.5


class TestMetrics:
    def test_sign_invariance(self):
        x = np.array([1.0, 0.0])
        assert dist_sign_invariant(x, -x) == 0.0
        assert dist_l2(x, -x) == 2.0

    def test_basis_vectors(self):
        e1, e2 = np.eye(2)
        assert dist_sign_invariant(e1, e2) == pytest.approx(math.sqrt(2))


class TestAgainstReference:
    @pytest.mark.parametrize("n, k", SMALL_UK)
    def test_enumerate_Uk_bytes(self, n, k):
        got = enumerate_Uk(n, k)
        ref = reference_Uk(n, k)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in ref]

    @pytest.mark.parametrize("metric", sorted(METRICS))
    @pytest.mark.parametrize("n, k", SMALL_UK)
    def test_greedy_cover_size(self, n, k, metric):
        points = reference_Uk(n, k)
        for eps in EPS_GRID:
            expected = reference_greedy(points, eps, METRICS[metric])
            assert greedy_cover_size(n, k, eps, metric) == expected

    @pytest.mark.parametrize("metric", sorted(METRICS))
    @pytest.mark.parametrize("n, k", [(n, k) for n, k in SMALL_UK if 2**k * math.comb(n, k) <= 12])
    def test_exact_cover_is_smallest(self, n, k, metric):
        points = reference_Uk(n, k)
        for eps in EPS_GRID:
            expected = reference_min_cover(points, eps, METRICS[metric])
            assert covering_number_oracle(n, k, eps, metric) == expected


class TestCoveringOracle:
    def test_enumeration_size(self):
        assert len(enumerate_Uk(4, 1)) == 8
        assert len(enumerate_Uk(4, 2)) == 24

    def test_rho_identifies_antipodes(self):
        # +-e_i collapse in rho; distinct axes stay sqrt(2) > 1 apart
        assert covering_number_oracle(4, 1, 1.0, metric="rho") == 4

    def test_l2_needs_all_singletons(self):
        assert covering_number_oracle(4, 1, 1.0, metric="l2") == 8

    def test_large_eps_single_center(self):
        assert covering_number_oracle(4, 1, 2.0, metric="rho") == 1
        assert covering_number_oracle(4, 1, 2.0, metric="l2") == 1

    def test_guard(self):
        with pytest.raises(ValueError):
            covering_number_oracle(10, 2, 1.0)

    def test_guard_precedes_enumeration(self, monkeypatch):
        def refuse(n, k):
            raise AssertionError("U_k enumerated before the guard")

        monkeypatch.setattr(infotheory, "enumerate_Uk", refuse)
        with pytest.raises(ValueError, match="exceeds exact-search guard"):
            covering_number_oracle(40, 4, 1.0)

    def test_exact_at_most_greedy(self):
        for n, k, eps in ((4, 1, 0.5), (4, 1, 1.0), (6, 1, 1.5), (4, 2, 1.0)):
            for metric in ("l2", "rho"):
                exact = covering_number_oracle(n, k, eps, metric)
                greedy = greedy_cover_size(n, k, eps, metric)
                assert exact <= greedy

    def test_packing_bound_below_l2_covering(self):
        # guard-feasible instances with n >= 2k
        cases = [(n, 1) for n in range(2, 13)] + [(4, 2)]
        for n, k in cases:
            for eps in (0.5, 1.0):
                exact = covering_number_oracle(n, k, eps, metric="l2")
                assert math.exp(packing_lower_bound_log(n, k, eps)) <= exact + 1e-9


class TestRiskConstant:
    def test_exact_identity(self):
        value = risk_constant()
        assert value == Fraction(7, 80)
        assert float(value) == 0.0875
        assert value > Fraction(1, 12)


class TestReport:
    def test_report_fields(self):
        report = it_bound_report(100, 10, 0.5, 2.0)
        assert report.minimax_lambda == pytest.approx(1.153698609305531, abs=1e-12)
        assert report.kl_upper == 8.0
        assert report.packing_log_lower > 0

    def test_undefined_threshold_noted(self):
        report = it_bound_report(20, 10)
        assert report.minimax_lambda is None
        assert report.notes
