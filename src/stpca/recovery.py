"""Limited brute-force support recovery.

The algorithm family: split the observation into two independent copies,
maximize <Y1, u^{xp}> over the t-sparse flat candidates U_t, then read off
the signal support from the leave-one-mode contraction against Y2. Only Y1
is stored, beside the caller's Y; Y2 is derived on the contracted support
blocks (see :func:`preprocess_split`), so a recovery holds two tensors. Multi-
spike recovery repeats the round with the already-recovered indices
forbidden; the general-tensor variant searches over tuples of disjoint
candidates across mode compositions. Every search streams its family with
:func:`family_chunks` and scores it with :func:`argmax_over_family`. Every
size guard and feasibility check reads :func:`candidate_count`; 0 is infeasible.

Flipping the signs of a part that spans m modes scales a member's tensor by
(-1)^m, so the family splits into sign classes: the members that differ
only by flips of odd parts hold one tensor up to sign. The stream holds one
pinned member per class (every part's first sign +1) and the scorer
recovers the rest, so a member and its negation are never both scored.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import _standard_normal
from .tensor import (
    DenseTensor,
    DenseUnitVector,
    SparseSignVector,
    SplitHalf,
    contract_leave_mode,
    contract_leave_one,
    rank1_inner,
)

# members per family_chunks chunk, the default of every family search
FAMILY_CHUNK_SIZE = 1024


class EnumerationError(ValueError):
    """The candidate family is empty: too few free coordinates."""


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


def preprocess_split(Y: DenseTensor, seed: int) -> tuple[DenseTensor, SplitHalf]:
    """Split Y into two independent copies Y1 = (Y+Z)/sqrt2, Y2 = (Y-Z)/sqrt2.

    Allocates one tensor-sized buffer, the noise Z, and computes Y1 in it.
    Y2 = sqrt2*Y - Y1 is a :class:`SplitHalf` over Y and Y1: the recoveries
    read it only on support blocks, so it is derived there and never stored.
    """
    Z = _standard_normal(seed, "split", Y.data.shape[0])
    Z += Y.data
    Z *= 1.0 / np.sqrt(2.0)
    Y1 = DenseTensor._owned(Y.n, Y.p, Z)
    return Y1, SplitHalf(Y, Y1)


def candidate_count(n: int, t: int, n_forbidden: int, p: int, ell: int = 1) -> int:
    """Size of the full candidate family for these arguments (|U_t| at ell=1).

    Summed over compositions of p into ell parts: part q picks t of the free
    coordinates left by parts 0..q-1, with 2^t signs, or 2^(t-1) when comp[q]
    is even (the flip is pinned). :func:`family_chunks` streams one pinned
    member per sign class, 1/2^(number of odd parts) of each composition.
    Raises ValueError for t < 1 or ell outside [1, p].
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got t={t}")
    if not 1 <= ell <= p:
        raise ValueError(f"need 1 <= ell <= p, got ell={ell}, p={p}")
    free = n - n_forbidden
    if free < ell * t:
        return 0
    return sum(
        math.prod(math.comb(free - q * t, t) * 2 ** (t - (m % 2 == 0)) for q, m in enumerate(comp))
        for comp in _compositions(p, ell)
    )


def _candidates(allowed: list[int], t: int, pinned: bool):
    """(support, signs) of each U_t candidate over the allowed indices, in rank order.

    With pinned, the first sign of every candidate is +1.
    """
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
    if candidate_count(len(allowed), t, 0, p) == 0:
        raise EnumerationError(f"only {len(allowed)} free coordinates, need t={t}")
    for support, signs in _candidates(allowed, t, p % 2 == 0):
        yield SparseSignVector(n, support, signs)


def _compositions(p: int, ell: int):
    """All C(p-1, ell-1) compositions of p into ell positive parts, lexicographic."""
    for cuts in itertools.combinations(range(1, p), ell - 1):
        bounds = (0, *cuts, p)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _members(comp: tuple[int, ...], t: int, allowed: list[int]):
    """Candidate tuples of every pinned member of one composition, in rank order.

    Part q holds a U_t candidate with its first sign pinned to +1; members are
    the ordered tuples with pairwise-disjoint supports, the first part varying
    slowest. U_t (one part) streams; a composite filters the tuples of the
    materialized candidate list.
    """
    if len(comp) == 1:
        return ((cand,) for cand in _candidates(allowed, t, True))
    cands = list(_candidates(allowed, t, True))
    return (combo for combo in itertools.product(cands, repeat=len(comp))
            if len({i for support, _ in combo for i in support}) == len(comp) * t)


def _rows(n: int, comp: tuple[int, ...], supports: np.ndarray, signs: np.ndarray):
    """Flat indices and coefficients of each member's tensor product, one row each.

    supports (1-based) and signs are (members, len(comp), t) arrays; part q
    spans comp[q] modes. Terms run in lexicographic order of the modes'
    support positions, the first mode slowest. An index is Horner's rule over
    the modes; a coefficient multiplies each part's vector entries over its
    modes left to right from 1.0, then the parts' products left to right.
    """
    rows = len(supports)
    idx = np.zeros((rows, 1), np.int64)
    coeffs = np.ones((rows, 1))
    entries = signs * (1.0 / math.sqrt(supports.shape[2]))  # each part's U_t vector
    for q, m in enumerate(comp):
        part = np.ones((rows, 1))
        for _ in range(m):
            idx = (idx[:, :, None] * n + (supports[:, None, q] - 1)).reshape(rows, -1)
            part = (part[:, :, None] * entries[:, None, q]).reshape(rows, -1)
        coeffs = (coeffs[:, :, None] * part[:, None, :]).reshape(rows, -1)
    return idx, coeffs


def family_chunks(
    n: int,
    p: int,
    t: int,
    ell: int = 1,
    forbidden: frozenset[int] | set[int] = frozenset(),
    chunk_size: int = FAMILY_CHUNK_SIZE,
):
    """Stream one pinned member per sign class of a candidate family, in rank order.

    The full family holds, for every composition of p into ell parts, the
    ordered tuples of pairwise-disjoint U_t candidates that avoid forbidden;
    ell=1 is U_t itself. A pinned member has every part's first sign +1 and
    stands for itself, or for +-itself when its composition has an odd part
    (see :func:`argmax_over_family`). Yields (members, indices, coefficients)
    for up to chunk_size members of one composition at a time, which bounds
    the rows held at once: members[j] is (composition, ((support, signs),
    ...)) and row j of the two (len(members), t**p) arrays, built by
    :func:`_rows`, holds the flat indices and coefficients of the member's
    tensor product.
    """
    if chunk_size < 1:
        raise ValueError(f"need chunk_size >= 1, got chunk_size={chunk_size}")
    allowed = [i for i in range(1, n + 1) if i not in forbidden]
    if candidate_count(len(allowed), t, 0, p, ell) == 0:
        raise EnumerationError(f"only {len(allowed)} free coordinates, need {ell} x t={t}")
    for comp in _compositions(p, ell):
        members = _members(comp, t, allowed)
        while chunk := list(itertools.islice(members, chunk_size)):
            cands = np.array(chunk)  # (members, ell, 2, t): each part's support and signs
            yield [(comp, c) for c in chunk], *_rows(n, comp, cands[:, :, 0], cands[:, :, 1])


def _rank_key(scored):
    """Sort key of a (value, member) pair: higher value first, then earlier rank.

    Rank order is the composition, then for each part its support and its
    signs read as bits (-1 = 1, the first sign most significant).
    """
    value, (comp, cands) = scored
    return -value, comp, tuple((support, tuple(-s for s in signs)) for support, signs in cands)


def _class_best(value: float, member, odd: list[int]):
    """Earliest member of a pinned member's sign class with the class's best value.

    odd lists the composition's odd parts. Flipping an odd part negates the
    value, so when value < 0 the best is -value, first reached by flipping
    only the last odd part. IEEE negation is exact: -value has the bits the
    flipped member's own row sums to.
    """
    if value >= 0 or not odd:
        return value, member
    comp, cands = member
    q = odd[-1]
    support, signs = cands[q]
    return -value, (comp, (*cands[:q], (support, tuple(-s for s in signs)), *cands[q + 1:]))


def argmax_over_family(data: np.ndarray, family, workers: int = 1):
    """First maximum of <data, member> over a full family, in rank order.

    family is a sequence of :func:`family_chunks` chunks, streamed or kept to
    score several tensors; data is a tensor's flat entries. A pinned member
    scores v, and |v| when its composition has an odd part, since its class
    then also holds members scoring -v. Returns (value, member). Ties break
    by rank (earliest wins), within a chunk and across chunks, so the result
    is identical for any worker count or chunk size. Raises ValueError when
    a score is NaN or infinite.
    """

    def best_in(chunk):
        members, idx, coeffs = chunk
        values = (data[idx] * coeffs).sum(axis=1)
        if not np.isfinite(values).all():
            raise ValueError("a candidate score is not finite: the tensor holds NaN or inf")
        odd = [q for q, m in enumerate(members[0][0]) if m % 2]
        scores = np.abs(values) if odd else values
        tied = np.flatnonzero(scores == scores.max())
        return min((_class_best(float(values[j]), members[j], odd) for j in tied), key=_rank_key)

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            scored = list(pool.map(best_in, family))
    else:
        scored = map(best_in, family)
    return min(scored, key=_rank_key)


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


def recover_single(Y: DenseTensor, k: int, t: int, seed: int) -> tuple[frozenset[int], float]:
    """Single-spike limited brute force; returns (support estimate, argmax value)."""
    recovered, values = recover_multi(Y, k, t, 1, seed)
    return recovered[0], values[0]


def recover_multi(
    Y: DenseTensor, k: int, t: int, r: int, seed: int, workers: int = 1
) -> tuple[list[frozenset[int]], list[float]]:
    """r-round recovery with disjointness constraints; one split for all rounds."""
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    if r * k > Y.n:
        raise ValueError(f"need r*k <= n, got r={r}, k={k}, n={Y.n}")
    if not 1 <= t <= k:
        raise ValueError(f"need 1 <= t <= k, got t={t}, k={k}")
    Y1, Y2 = preprocess_split(Y, seed)
    recovered: list[frozenset[int]] = []
    values: list[float] = []
    forbidden: set[int] = set()
    # round i finds n - (i-1)k >= k >= t free coordinates, so U_t is never empty
    for _ in range(r):
        v_star, value = argmax_over_Ut(Y1, t, forbidden, workers)
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
    if not 1 <= t <= k:
        raise ValueError(f"need 1 <= t <= k, got t={t}, k={k}")
    if candidate_count(Y.n, t, 0, Y.p, ell) == 0:  # checked before the split allocates
        raise EnumerationError(f"only {Y.n} free coordinates, need {ell} x t={t}")
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
    if not 1 <= t <= k:
        raise ValueError(f"need 1 <= t <= k, got t={t}, k={k}")
    if not 0 < eps <= 0.5:
        raise ValueError("eps must be in (0, 1/2]")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if A < 1:
        raise ValueError("A must be >= 1")
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


def distinguish(Y: DenseTensor, xhat: DenseUnitVector, k: int) -> str:
    """'planted' iff |<Y, xhat^{xp}>| >= 2 sqrt(k ln n), else 'null'."""
    stat = abs(rank1_inner(Y, [xhat] * Y.p))
    return "planted" if stat >= 2.0 * math.sqrt(k * math.log(Y.n)) else "null"

