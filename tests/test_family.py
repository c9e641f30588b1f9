"""Differential tests of the ranked family scorer against enumeration oracles.

The oracles score every family member with the sparse ``rank1_inner`` in rank
order and keep the first maximum: U_t members come from
``enumerate_candidates``, general-spike tuples from the recursive
disjoint-tuple enumeration below. Sums run in a different order than the
scorer's, so values agree to rounding while members must agree exactly.
The exact oracle builds a row for every member of the full family, with the
scorer's own row arithmetic, so members and value bits must both agree, and
every streamed row must equal the oracle's row for its member.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpca.experiments import check_concentration, trial_seed
from stpca.model import sample_noise_tensor
from stpca.recovery import (
    EnumerationError,
    argmax_over_family,
    argmax_over_Ut,
    candidate_count,
    enumerate_candidates,
    family_chunks,
    preprocess_split,
    recover_general,
)
from stpca.tensor import DenseTensor, rank1_inner

REL = 1e-12


def oracle_compositions(p, ell):
    for cuts in itertools.combinations(range(1, p), ell - 1):
        bounds = (0, *cuts, p)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def oracle_disjoint_tuples(n, t, composition, forbidden=frozenset()):
    """Ordered tuples of U_t candidates with pairwise-disjoint supports.

    Factor q occupies composition[q] modes; flipping it scales the product by
    (-1)^{composition[q]}, so the sign-pruning parity is per factor.
    """

    def rec(prefix, used):
        if len(prefix) == len(composition):
            yield prefix
            return
        parity = composition[len(prefix)]
        for cand in enumerate_candidates(n, t, used, parity):
            yield from rec(prefix + (cand,), used | set(cand.support))

    yield from rec((), frozenset(forbidden))


def oracle_family(n, p, t, ell, forbidden=frozenset()):
    """(composition, candidates, factors) of every member, in rank order."""
    for comp in oracle_compositions(p, ell):
        for cands in oracle_disjoint_tuples(n, t, comp, forbidden):
            factors = [c for c, m in zip(cands, comp) for _ in range(m)]
            yield comp, cands, factors


def oracle_argmax(Y, t, ell, forbidden=frozenset()):
    best = None
    for comp, cands, factors in oracle_family(Y.n, Y.p, t, ell, forbidden):
        value = rank1_inner(Y, factors)
        if best is None or value > best[0]:
            best = (value, comp, tuple((c.support, c.signs) for c in cands))
    return best


def random_tensor(n, p, seed):
    return DenseTensor(n, p, np.random.default_rng(seed).standard_normal(n**p))


def oracle_row(n, comp, cands):
    """Flat indices and coefficients of one member's tensor, built as the
    scorer's rows are: each part's power first, then the parts, every
    coefficient a left-to-right product."""
    idx, coeffs = [0], [1.0]
    for m, (support, signs) in zip(comp, cands):
        mag = 1.0 / math.sqrt(len(support))
        part_idx, part_coeffs = [0], [1.0]
        for _ in range(m):
            part_idx = [x * n + i - 1 for x in part_idx for i in support]
            part_coeffs = [x * (s * mag) for x in part_coeffs for s in signs]
        idx = [x * n**m + i for x in idx for i in part_idx]
        coeffs = [x * c for x in coeffs for c in part_coeffs]
    return idx, coeffs


def oracle_argmax_exact(data, n, p, t, ell, forbidden=frozenset()):
    """First maximum over a row for every full-family member, in rank order."""
    members = [(comp, tuple((c.support, c.signs) for c in cands))
               for comp, cands, _ in oracle_family(n, p, t, ell, forbidden)]
    rows = [oracle_row(n, *member) for member in members]
    idx = np.array([i for i, _ in rows])
    coeffs = np.array([c for _, c in rows])
    values = (data[idx] * coeffs).sum(axis=1)
    j = int(np.argmax(values))
    return float(values[j]), members[j]


def tie_heavy_tensor(n, p, kind, seed):
    """Entries in {-1, 0, 1}, or one signed nonzero: many members tie."""
    rng = np.random.default_rng(seed)
    if kind == "integer":
        return rng.integers(-1, 2, n**p).astype(float)
    data = np.zeros(n**p)
    data[rng.integers(n**p)] = rng.choice([-1.0, 1.0])
    return data


seeds = st.integers(0, 2**32 - 1)
chunk_sizes = st.sampled_from([1, 7, 4096])


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 4]),
    t=st.integers(1, 3),
    extra=st.integers(0, 3),
    forbidden_bits=st.integers(0, 2**6 - 1),
    seed=seeds,
    chunk_size=chunk_sizes,
)
def test_argmax_over_Ut_matches_oracle(p, t, extra, forbidden_bits, seed, chunk_size):
    forbidden = frozenset(i + 1 for i in range(6) if forbidden_bits >> i & 1)
    n = t + len(forbidden) + extra
    Y = random_tensor(n, p, seed)
    v, value = argmax_over_Ut(Y, t, forbidden, chunk_size=chunk_size)
    o_value, _, ((o_support, o_signs),) = oracle_argmax(Y, t, 1, forbidden)
    assert (v.support, v.signs) == (o_support, o_signs)
    assert value == pytest.approx(o_value, rel=REL, abs=REL)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 4]),
    ell=st.integers(1, 4),
    t=st.integers(1, 2),
    extra=st.integers(0, 2),
    seed=seeds,
    chunk_size=chunk_sizes,
)
def test_general_family_matches_oracle(p, ell, t, extra, seed, chunk_size):
    ell = min(ell, p)
    t = 1 if ell > 2 else t  # keeps ordered 3- and 4-tuples to a few thousand
    n = ell * t + extra
    Y = random_tensor(n, p, seed)
    value, (comp, cands) = argmax_over_family(
        Y.data, family_chunks(n, p, t, ell, chunk_size=chunk_size)
    )
    o_value, o_comp, o_cands = oracle_argmax(Y, t, ell)
    assert (comp, cands) == (o_comp, o_cands)
    assert value == pytest.approx(o_value, rel=REL, abs=REL)


@settings(max_examples=100, deadline=None)
@given(
    p=st.sampled_from([2, 3, 4]),
    ell=st.integers(1, 3),
    t=st.integers(1, 3),
    extra=st.integers(0, 2),
    forbidden_bits=st.integers(0, 2**3 - 1),
    kind=st.sampled_from(["integer", "one-hot"]),
    seed=seeds,
    chunk_size=chunk_sizes,
)
def test_ties_and_value_bits_match_full_family(p, ell, t, extra, forbidden_bits, kind, seed,
                                               chunk_size):
    # one pinned member per sign class is scored; the winner and its bits must be
    # those of the first maximum over every member of the full family
    ell = min(ell, p)
    t = min(t, 4 - ell)  # keeps composite families to a few ten thousand members
    forbidden = frozenset(i + 1 for i in range(3) if forbidden_bits >> i & 1)
    n = ell * t + len(forbidden) + extra
    data = tie_heavy_tensor(n, p, kind, seed)
    family = family_chunks(n, p, t, ell, forbidden, chunk_size=chunk_size)
    value, member = argmax_over_family(data, family)
    o_value, o_member = oracle_argmax_exact(data, n, p, t, ell, forbidden)
    assert member == o_member
    assert value.hex() == o_value.hex()


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 4]),
    ell=st.integers(1, 3),
    t=st.integers(1, 3),
    extra=st.integers(0, 2),
    forbidden_bits=st.integers(0, 2**3 - 1),
    chunk_size=chunk_sizes,
)
def test_rows_match_oracle_rows(p, ell, t, extra, forbidden_bits, chunk_size):
    # every row, not only the winner's, holds the member's indices and coefficient bits
    ell = min(ell, p)
    t = min(t, 4 - ell)
    forbidden = frozenset(i + 1 for i in range(3) if forbidden_bits >> i & 1)
    n = ell * t + len(forbidden) + extra
    for members, idx, coeffs in family_chunks(n, p, t, ell, forbidden, chunk_size=chunk_size):
        assert (idx.dtype, coeffs.dtype) == (np.int64, np.float64)
        assert idx.shape == coeffs.shape == (len(members), t**p)
        for j, member in enumerate(members):
            o_idx, o_coeffs = oracle_row(n, *member)
            assert idx[j].tolist() == o_idx
            assert [c.hex() for c in coeffs[j].tolist()] == [c.hex() for c in o_coeffs]


@pytest.mark.parametrize("ell, entry", [(1, (1, 1, 2)), (2, (2, 3, 3))])
def test_opposite_signed_ties_in_one_chunk_resolve_by_rank(ell, entry):
    # the pinned members with signs (1, 1) and (1, -1) on the first odd part tie
    # at -c and +c: the first pinned member's best is its flip (-1, -1), but
    # (1, -1) comes earlier in rank order
    n, p, t = 4, 3, 2
    data = np.zeros(n**p)
    data[np.ravel_multi_index(tuple(i - 1 for i in entry), (n,) * p)] = -1.0
    value, member = argmax_over_family(data, family_chunks(n, p, t, ell))
    assert member[1][0] == ((1, 2), (1, -1))
    assert (value, member) == oracle_argmax_exact(data, n, p, t, ell)


def test_recover_general_value_is_oracle_best():
    n, p, k, t, ell, seed = 8, 3, 2, 2, 2, 21
    Y = random_tensor(n, p, seed)
    Y1, _ = preprocess_split(Y, seed)
    _, value = recover_general(Y, k, t, ell, seed)
    assert value == pytest.approx(oracle_argmax(Y1, t, ell)[0], rel=REL)


def test_all_ties_pick_first_member():
    # every member scores 0: the first composition and first tuple win
    Y = DenseTensor.zeros(5, 3)
    value, (comp, cands) = argmax_over_family(Y.data, family_chunks(5, 3, 1, 3, chunk_size=7))
    first_comp, first_cands, _ = next(oracle_family(5, 3, 1, 3))
    assert value == 0.0
    assert (comp, cands) == (first_comp, tuple((c.support, c.signs) for c in first_cands))


def test_family_size_matches_oracle():
    # each streamed member is pinned and stands for the 2^(odd parts) members of its class
    cases = [(6, 3, 2, 2, ()), (5, 4, 1, 3, ()), (7, 2, 3, 1, ()), (6, 2, 2, 2, ()),
             (8, 4, 1, 2, (2, 5, 7)), (7, 3, 2, 1, (4,))]
    for n, p, t, ell, forbidden in cases:
        size = 0
        for members, _, _ in family_chunks(n, p, t, ell, frozenset(forbidden), chunk_size=5):
            (comp,) = {comp for comp, _ in members}  # one composition per chunk
            assert all(signs[0] == 1 for _, cands in members for _, signs in cands)
            size += len(members) * 2 ** sum(m % 2 for m in comp)
        assert size == sum(1 for _ in oracle_family(n, p, t, ell, frozenset(forbidden)))
        assert size == candidate_count(n, t, len(forbidden), p, ell)


@pytest.mark.parametrize("chunk_size", [0, -1])
def test_nonpositive_chunk_size_is_value_error(chunk_size):
    # 0 once ended in "max() arg is an empty sequence", -1 in an islice message
    with pytest.raises(ValueError, match=f"chunk_size={chunk_size}"):
        argmax_over_Ut(DenseTensor.zeros(6, 3), 1, chunk_size=chunk_size)


def test_too_few_free_coordinates():
    with pytest.raises(EnumerationError):
        next(family_chunks(5, 3, 2, 3))
    with pytest.raises(EnumerationError):
        argmax_over_Ut(DenseTensor.zeros(4, 2), 2, {1, 2, 3})


@pytest.mark.parametrize("call", [
    lambda: argmax_over_Ut(DenseTensor.zeros(6, 3), 0),
    lambda: next(family_chunks(6, 3, 0)),
    lambda: check_concentration(6, 3, 0, 1, 0.05, 1, 0),
    lambda: candidate_count(6, 0, 0, 2),
    lambda: list(family_chunks(6, 3, 1, 4)),
], ids=["argmax-t0", "family-t0", "concentration-t0", "count-t0", "family-ell-above-p"])
def test_malformed_family_is_value_error(call):
    # t=0 once ended in ZeroDivisionError or a count of 0.5; ell > p streamed nothing
    with pytest.raises(ValueError, match="t >= 1|ell <= p"):
        call()


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from([2, 3, 4]),
    r=st.sampled_from([1, 2]),
    t=st.integers(1, 2),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**62),
)
def test_concentration_maxima_match_oracle(p, r, t, extra, seed):
    n = r * t + extra
    trials = 2
    report = check_concentration(n, p, t, r, 0.05, trials, seed)
    members = [factors for _, _, factors in oracle_family(n, p, t, r)]
    for trial, got in enumerate(report.per_trial_max):
        W = sample_noise_tensor(n, p, trial_seed(seed, 0, trial))
        expected = max(abs(rank1_inner(W, factors)) for factors in members)
        assert got == pytest.approx(expected, rel=REL, abs=REL)
