"""Limited brute-force support recovery.

The algorithm family: split the observation into two independent copies,
maximize <Y1, u^{xp}> over the t-sparse flat candidates U_t, then read off
the signal support from the leave-one-mode contraction against Y2. Multi-
spike recovery repeats the round with the already-recovered indices
forbidden; the general-tensor variant searches over tuples of disjoint
candidates across mode compositions. Every search streams its family with
:func:`family_chunks` and scores it with :func:`argmax_over_family`.
"""

from __future__ import annotations

import itertools
import math
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import substream
from .tensor import (
    DenseTensor,
    DenseUnitVector,
    SparseSignVector,
    contract_leave_mode,
    contract_leave_one,
    rank1_inner,
)

# members per family_chunks chunk, the default of every family search
FAMILY_CHUNK_SIZE = 1024


class EnumerationError(ValueError):
    """Too few free coordinates to enumerate t-sparse candidates."""


@dataclass(frozen=True)
class RecoveryParams:
    """Knobs of the provable-guarantee threshold: budget t, slack eps, ratio kappa."""

    k: int
    t: int
    r: int = 1
    eps: float = 0.5
    kappa: float = 5.0
    delta: float = 0.01
    A: float = 1.0

    def __post_init__(self):
        if not 1 <= self.t <= self.k:
            raise ValueError(f"need 1 <= t <= k, got t={self.t}, k={self.k}")
        if not 0 < self.eps <= 0.5:
            raise ValueError("eps must be in (0, 1/2]")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.A < 1:
            raise ValueError("A must be >= 1")


@dataclass
class RecoveryReport:
    """Recovered supports matched against ground truth."""

    recovered: list[frozenset[int]]
    matching: list[int]  # recovered[i] is matched to truth[matching[i]]
    exact: list[bool]
    overlap: list[float]
    argmax_values: list[float]

    @property
    def all_exact(self) -> bool:
        return all(self.exact)

    def to_json_dict(self) -> dict:
        return {
            "recovered": [sorted(s) for s in self.recovered],
            "matching": self.matching,
            "exact": self.exact,
            "overlap": self.overlap,
            "argmax_values": self.argmax_values,
        }


def preprocess_split(Y: DenseTensor, seed: int) -> tuple[DenseTensor, DenseTensor]:
    """Split Y into two independent copies Y1 = (Y+Z)/sqrt2, Y2 = (Y-Z)/sqrt2.

    Allocates two tensor-sized buffers, Y1 and Z; Y2 is computed in Z's.
    """
    Z = substream(seed, "split").standard_normal(Y.data.shape[0])
    s = 1.0 / np.sqrt(2.0)
    Y1 = np.add(Y.data, Z)
    Y1 *= s
    np.subtract(Y.data, Z, out=Z)
    Z *= s
    return DenseTensor._owned(Y.n, Y.p, Y1), DenseTensor._owned(Y.n, Y.p, Z)


def candidate_count(n: int, t: int, n_forbidden: int, p: int) -> int:
    """|U_t| after removing forbidden coordinates and (for even p) sign flips."""
    free = n - n_forbidden
    if free < t:
        return 0
    return math.comb(free, t) * 2 ** (t - (1 if p % 2 == 0 else 0))


def _candidates(allowed: list[int], t: int, parity: int):
    """(support, signs) of each U_t candidate over the allowed indices, in rank order."""
    pinned = 1 if parity % 2 == 0 else 0
    patterns = [(1,) * pinned + s for s in itertools.product((1, -1), repeat=t - pinned)]
    for support in itertools.combinations(allowed, t):
        for signs in patterns:
            yield support, signs


def enumerate_candidates(
    n: int, t: int, forbidden: frozenset[int] | set[int], p: int
):
    """Deterministic iterator over U_t avoiding forbidden coordinates.

    Supports come in lexicographic order of the sorted index tuple; for each
    support, sign patterns follow binary counting (bit 0 -> +1, first support
    index is the most significant bit). For even p the global flip symmetry
    <u, x>^p = <-u, x>^p lets us pin the first index to +1, halving the count.
    """
    allowed = [i for i in range(1, n + 1) if i not in forbidden]
    if len(allowed) < t:
        raise EnumerationError(
            f"only {len(allowed)} free coordinates, need t={t}"
        )
    for support, signs in _candidates(allowed, t, p):
        yield SparseSignVector(n, support, signs)


def _compositions(p: int, ell: int):
    """All C(p-1, ell-1) compositions of p into ell positive parts, lexicographic."""
    for cuts in itertools.combinations(range(1, p), ell - 1):
        bounds = (0, *cuts, p)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


# (modes, flat indices, coefficients): the nonzeros of a product of sparse
# factors spanning `modes` consecutive modes, indices over n**modes entries
_SparseTerms = tuple[int, list[int], list[float]]


def _sign_terms(support: tuple[int, ...], signs: tuple[int, ...]) -> _SparseTerms:
    """One-mode terms of the U_t vector with this 1-based support and these signs."""
    mag = 1.0 / math.sqrt(len(support))
    return 1, [i - 1 for i in support], [s * mag for s in signs]


def _sparse_terms(n: int, factors: list[_SparseTerms]) -> _SparseTerms:
    """Flat indices and coefficients of the nonzeros of f_1 x ... x f_m.

    Each factor is a :data:`_SparseTerms` block, from :func:`_sign_terms` or
    an earlier call, so a product over several modes can be built once and
    reused. Terms come in lexicographic order of the factors' own terms, and
    each coefficient is c_1 * ... * c_m multiplied left to right.
    """
    modes, idx, coeffs = 0, [0], [1.0]
    for f_modes, f_idx, f_coeffs in factors:
        stride = n**f_modes
        idx = [x * stride + i for x in idx for i in f_idx]
        coeffs = [x * c for x in coeffs for c in f_coeffs]
        modes += f_modes
    return modes, idx, coeffs


def _members(n: int, p: int, t: int, ell: int, allowed: list[int]):
    """(composition, candidates, terms) of every family member, in rank order.

    Compositions come in lexicographic order. Part q of a composition holds a
    U_t candidate over comp[q] modes, so its sign pruning follows comp[q]'s
    parity; members are the ordered tuples with pairwise-disjoint supports,
    the first part varying slowest. A U_t member (ell=1) never repeats, so
    its terms are built directly; a composite member combines each
    candidate's power terms, built once per (candidate, part size).
    """
    for comp in _compositions(p, ell):
        if ell == 1:
            for cand in _candidates(allowed, t, p):
                yield comp, (cand,), _sparse_terms(n, [_sign_terms(*cand)] * p)
            continue
        parts = [[(c, _sparse_terms(n, [_sign_terms(*c)] * m)) for c in _candidates(allowed, t, m)]
                 for m in comp]
        for combo in itertools.product(*parts):
            cands = tuple(cand for cand, _ in combo)
            if len({i for support, _ in cands for i in support}) == ell * t:
                yield comp, cands, _sparse_terms(n, [terms for _, terms in combo])


def family_chunks(
    n: int,
    p: int,
    t: int,
    ell: int = 1,
    forbidden: frozenset[int] | set[int] = frozenset(),
    chunk_size: int = FAMILY_CHUNK_SIZE,
):
    """Stream the candidate family of an order-p tensor in rank order.

    The family holds, for every composition of p into ell parts, the ordered
    tuples of pairwise-disjoint U_t candidates that avoid forbidden; ell=1 is
    U_t itself. Yields (members, indices, coefficients) for chunk_size
    members at a time, which bounds the rows held at once: members[j] is
    (composition, ((support, signs), ...)) and row j of the two
    (len(members), t**p) arrays holds the flat indices and coefficients of
    the member's tensor product.
    """
    allowed = [i for i in range(1, n + 1) if i not in forbidden]
    if len(allowed) < ell * t:
        raise EnumerationError(f"only {len(allowed)} free coordinates, need {ell} x t={t}")
    members = _members(n, p, t, ell, allowed)
    while True:
        # raw int64/float64 buffers hold a chunk's rows without a Python object per term
        ranked, idx, coeffs = [], array("q"), array("d")
        for comp, cands, (_, m_idx, m_coeffs) in itertools.islice(members, chunk_size):
            ranked.append((comp, cands))
            idx.extend(m_idx)
            coeffs.extend(m_coeffs)
        if not ranked:
            return
        shape = (len(ranked), -1)
        yield (ranked, np.frombuffer(idx, np.int64).reshape(shape),
               np.frombuffer(coeffs).reshape(shape))


def argmax_over_family(data: np.ndarray, family, workers: int = 1):
    """First maximum of <data, member> over a family, in rank order.

    family is a sequence of :func:`family_chunks` chunks, streamed or kept to
    score several tensors; data is a tensor's flat entries. Returns
    (value, member). Ties break by rank (earliest wins), so the result is
    identical for any worker count or chunk size.
    """

    def best_in(chunk):
        members, idx, coeffs = chunk
        values = (data[idx] * coeffs).sum(axis=1)
        j = int(np.argmax(values))  # np.argmax returns the first max: rank tie-break
        return float(values[j]), members[j]

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            scored = list(pool.map(best_in, family))
    else:
        scored = map(best_in, family)
    # max keeps the first of equal values: the rank tie-break across chunks
    return max(scored, key=lambda s: s[0])


def argmax_over_Ut(
    Y1: DenseTensor,
    t: int,
    forbidden: frozenset[int] | set[int] = frozenset(),
    workers: int = 1,
    chunk_size: int = FAMILY_CHUNK_SIZE,
) -> tuple[SparseSignVector, float]:
    """Maximize <Y1, u^{xp}> over the enumerated candidate set.

    Ties break by enumeration rank (earliest wins), so the result is
    identical for any worker count or chunk partitioning.
    """
    family = family_chunks(Y1.n, Y1.p, t, 1, forbidden, chunk_size)
    value, (_, ((support, signs),)) = argmax_over_family(Y1.data, family, workers)
    return SparseSignVector(Y1.n, support, signs), value


def top_k_magnitude(alpha: np.ndarray, k: int) -> frozenset[int]:
    """1-based indices of the k largest |alpha| entries, ties to smaller index."""
    order = np.lexsort((np.arange(len(alpha)), -np.abs(alpha)))
    return frozenset(int(i) + 1 for i in order[:k])


def recover_single(
    Y: DenseTensor, k: int, t: int, seed: int, workers: int = 1
) -> tuple[frozenset[int], float]:
    """Single-spike limited brute force; returns (support estimate, argmax value)."""
    recovered, values = recover_multi(Y, k, t, 1, seed, workers)
    return recovered[0], values[0]


def recover_multi(
    Y: DenseTensor, k: int, t: int, r: int, seed: int, workers: int = 1
) -> tuple[list[frozenset[int]], list[float]]:
    """r-round recovery with disjointness constraints; one split for all rounds."""
    if r * k > Y.n:
        raise ValueError(f"need r*k <= n, got r={r}, k={k}, n={Y.n}")
    if not 1 <= t <= k:
        raise ValueError(f"need 1 <= t <= k, got t={t}, k={k}")
    Y1, Y2 = preprocess_split(Y, seed)
    recovered: list[frozenset[int]] = []
    values: list[float] = []
    forbidden: set[int] = set()
    for i in range(r):
        try:
            v_star, value = argmax_over_Ut(Y1, t, forbidden, workers)
        except EnumerationError as exc:
            raise EnumerationError(f"round {i + 1}/{r}: {exc}") from exc
        alpha = contract_leave_one(Y2, v_star)
        support = top_k_magnitude(alpha, k)
        recovered.append(support)
        values.append(value)
        forbidden |= support
    return recovered, values


def recover_general(
    Y: DenseTensor, k: int, t: int, ell: int, seed: int
) -> tuple[list[frozenset[int]], float]:
    """Recover the ell factor supports of a general spike x_(1) x ... x x_(p).

    Maximizes <Y1, u_(1) x ... x u_(p)> over all compositions and all
    ell-tuples of disjoint-support U_t candidates, then reads each factor's
    support from the contraction leaving one of its modes free.
    """
    if not 1 <= ell <= Y.p:
        raise ValueError(f"need 1 <= ell <= p, got ell={ell}")
    Y1, Y2 = preprocess_split(Y, seed)
    value, (comp, cands) = argmax_over_family(Y1.data, family_chunks(Y.n, Y.p, t, ell))
    factors: list[SparseSignVector] = []
    for cand, m in zip(cands, comp):
        factors += [SparseSignVector(Y.n, *cand)] * m
    supports = []
    for q in range(ell):
        # free the last mode occupied by factor q
        free_mode = sum(comp[: q + 1]) - 1
        alpha = contract_leave_mode(Y2, factors, free_mode)
        supports.append(top_k_magnitude(alpha, k))
    return supports, value


def threshold_lambda(
    n: int,
    k: int,
    p: int,
    t: int,
    r: int = 1,
    A: float = 1.0,
    eps: float = 0.5,
    kappa: float = 5.0,
    delta: float = 0.01,
) -> tuple[float, bool]:
    """Signal strength at which recovery is provably reliable, with the
    kappa-validity flag.

    lambda = (32 kappa / (A eps)^p) * sqrt(t (k/t)^p ln(n/delta)); valid when
    kappa >= 5 A^{2p} (eps/(1-eps))^{p-1}. r does not enter the formula but is
    kept for parity with the recovery entry points.
    """
    RecoveryParams(k=k, t=t, r=r, eps=eps, kappa=kappa, delta=delta, A=A)
    lam = (32.0 * kappa / (A * eps) ** p) * math.sqrt(t * (k / t) ** p * math.log(n / delta))
    valid = kappa >= 5.0 * A ** (2 * p) * (eps / (1.0 - eps)) ** (p - 1)
    return lam, valid


def threshold_lambda_general(
    n: int,
    k: int,
    p: int,
    t: int,
    ell: int,
    A: float = 1.0,
    eps: float = 0.5,
    kappa: float = 5.0,
    delta: float = 0.01,
) -> tuple[float, bool]:
    """Threshold for the ell-distinct-factor spike: extra sqrt(ell) factor."""
    lam, valid = threshold_lambda(n, k, p, t, 1, A, eps, kappa, delta)
    return lam * math.sqrt(ell), valid


def match_supports(
    recovered: list[frozenset[int]],
    truth: list[frozenset[int]],
    argmax_values: list[float] | None = None,
) -> RecoveryReport:
    """Greedy maximum-overlap bijection between recovered and truth supports."""
    if len(recovered) != len(truth):
        raise ValueError(f"length mismatch: {len(recovered)} vs {len(truth)}")
    r = len(recovered)
    pairs = sorted(
        ((i, j) for i in range(r) for j in range(r)),
        key=lambda ij: (-len(recovered[ij[0]] & truth[ij[1]]), ij[0], ij[1]),
    )
    matching = [-1] * r
    used_truth: set[int] = set()
    for i, j in pairs:
        if matching[i] == -1 and j not in used_truth:
            matching[i] = j
            used_truth.add(j)
    exact = [recovered[i] == truth[matching[i]] for i in range(r)]
    overlap = [
        len(recovered[i] & truth[matching[i]]) / max(len(truth[matching[i]]), 1)
        for i in range(r)
    ]
    return RecoveryReport(
        recovered=list(recovered),
        matching=matching,
        exact=exact,
        overlap=overlap,
        argmax_values=list(argmax_values or []),
    )


def distinguish(Y: DenseTensor, xhat: DenseUnitVector, k: int, C: float = 2.0) -> str:
    """'planted' iff |<Y, xhat^{xp}>| >= C sqrt(k ln n), else 'null'."""
    stat = abs(rank1_inner(Y, [xhat] * Y.p))
    return "planted" if stat >= C * math.sqrt(k * math.log(Y.n)) else "null"

