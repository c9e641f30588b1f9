"""Closed-form information-theoretic quantities for sparse support recovery.

Minimax recovery threshold, packing-number lower bound, KL upper bound, and a
tiny exact covering-number oracle over the k-sparse flat vectors U_k. Natural
logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .recovery import candidate_count, enumerate_candidates

EXACT_COVER_GUARD = 24  # |U_k| cap for the exhaustive set-cover search


@dataclass
class ItBoundReport:
    minimax_lambda: float | None
    packing_log_lower: float | None
    kl_upper: float
    notes: list[str] = field(default_factory=list)


def minimax_lambda(n: int, k: int) -> float | None:
    """sqrt(k/12 * ln((n-k)/k) - 1/2); None when n < 2k or the argument is <= 0.

    Below this strength no estimator attains low worst-case recovery risk.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 2 * k:
        return None
    arg = k / 12 * math.log((n - k) / k) - 0.5
    if arg <= 0:
        return None
    return math.sqrt(arg)


def packing_lower_bound_log(n: int, k: int, eps: float) -> float:
    """Log of the eps-packing size of U_k: k (1 - eps^2/2) ln((n-k)/k)."""
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    if n < 2 * k:
        raise ValueError(f"need n >= 2k, got n={n}, k={k}")
    return k * (1 - eps**2 / 2) * math.log((n - k) / k)


def kl_upper_bound(lam: float) -> float:
    """KL divergence between two spiked laws is at most 2 lam^2."""
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return 2 * lam**2


def enumerate_Uk(n: int, k: int) -> list[np.ndarray]:
    """All 2^k C(n,k) k-sparse flat vectors, in the rank order of enumerate_candidates."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    # odd parity pins no sign, so U_k keeps both u and -u
    return [v.to_dense() for v in enumerate_candidates(n, k, frozenset(), 1)]


def dist_l2(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.linalg.norm(x - y))


def dist_sign_invariant(x: np.ndarray, y: np.ndarray) -> float:
    """Pseudometric rho(x, y) = min(||x - y||, ||x + y||); identifies x and -x."""
    return min(float(np.linalg.norm(x - y)), float(np.linalg.norm(x + y)))


_METRICS = {"l2": dist_l2, "rho": dist_sign_invariant}


def _covers(n: int, k: int, eps: float, metric: str) -> list[frozenset[int]]:
    """covers[i]: the indices of the points of U_k within eps of point i."""
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {sorted(_METRICS)}")
    dist = _METRICS[metric]
    points = enumerate_Uk(n, k)
    return [frozenset(j for j, y in enumerate(points) if dist(x, y) <= eps) for x in points]


def _greedy_cover(covers: list[frozenset[int]]) -> int:
    uncovered = set(range(len(covers)))
    size = 0
    while uncovered:
        # cover the most uncovered points; max keeps the first, so ties go to the smallest index
        best = max(sorted(uncovered), key=lambda i: len(covers[i] & uncovered))
        uncovered -= covers[best]
        size += 1
    return size


def greedy_cover_size(n: int, k: int, eps: float, metric: str = "l2") -> int:
    """Greedy eps-net size over U_k; an upper bound on the covering number."""
    return _greedy_cover(_covers(n, k, eps, metric))


def covering_number_oracle(n: int, k: int, eps: float, metric: str = "l2") -> int:
    """Exact smallest eps-net of U_k (centers restricted to U_k).

    Exhaustive branch-and-bound over cover subsets; guarded by |U_k| <= 24.
    """
    m = candidate_count(n, k, 0, 1)
    if m > EXACT_COVER_GUARD:
        raise ValueError(f"|U_k| = {m} exceeds exact-search guard {EXACT_COVER_GUARD}")
    covers = _covers(n, k, eps, metric)
    best = _greedy_cover(covers)
    centers_covering = [sum(1 for c in covers if j in c) for j in range(m)]

    def search(uncovered: frozenset, used: int, budget: int) -> int:
        if not uncovered:
            return used
        if used + 1 > budget:
            return budget + 1
        # branch on the hardest point: fewest candidate centers cover it
        target = min(uncovered, key=lambda j: (centers_covering[j], j))
        result = budget + 1
        for i in range(m):
            if target in covers[i]:
                sub = search(uncovered - covers[i], used + 1, min(budget, result - 1))
                result = min(result, sub)
        return result

    exact = search(frozenset(range(m)), 0, best)
    return min(exact, best)


def risk_constant(tau=Fraction(1, 20), eps=Fraction(1, 2)) -> Fraction:
    """Minimax risk floor from the packing/KL ingredients:
    (1 - 4 tau / eps^2)(1 - eps^2/2)/2, in exact rational arithmetic.
    Defaults give 7/80 = 0.0875 > 1/12.
    """
    tau, eps = Fraction(tau), Fraction(eps)
    return (1 - 4 * tau / eps**2) * (1 - eps**2 / 2) / 2


def it_bound_report(n: int, k: int, eps: float = 0.5, lam: float = 1.0) -> ItBoundReport:
    notes = []
    mm = minimax_lambda(n, k)
    if mm is None:
        notes.append("minimax threshold undefined: need n >= 2k and k ln((n-k)/k) > 6")
    try:
        packing = packing_lower_bound_log(n, k, eps)
    except ValueError as exc:
        packing = None
        notes.append(str(exc))
    return ItBoundReport(mm, packing, kl_upper_bound(lam), notes)
