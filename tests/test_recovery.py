import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpca import recovery
from stpca.model import (
    SignalSpec,
    sample_general_instance,
    sample_noise_tensor,
    sample_sstm,
    substream,
)
from stpca.recovery import (
    EnumerationError,
    argmax_over_family,
    argmax_over_Ut,
    candidate_count,
    distinguish,
    enumerate_candidates,
    family_chunks,
    match_supports,
    preprocess_split,
    recover_general,
    recover_multi,
    recover_single,
    threshold_lambda,
    threshold_lambda_general,
    top_k_magnitude,
)
from stpca.tensor import (
    DenseTensor,
    DenseUnitVector,
    SparseSignVector,
    add_rank1,
    contract_leave_mode,
    contract_leave_one,
    rank1_inner,
)

EPS = np.finfo(np.float64).eps


def flat_spike_tensor(n, p, support, lam):
    x = SparseSignVector(n, tuple(support), (1,) * len(support))
    return add_rank1(DenseTensor.zeros(n, p), lam, [x] * p), x


def entries(T):
    """Every entry of a tensor or split half, read through its full block."""
    return T.block(np.ix_(*[np.arange(T.n)] * T.p)).ravel()


class TestPreprocessSplit:
    def test_reconstruction_identity(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            Y = DenseTensor(5, 3, rng.standard_normal(125))
            Y1, Y2 = preprocess_split(Y, seed)
            back = DenseTensor(5, 3, (Y1.data + entries(Y2)) / np.sqrt(2))
            assert np.max(np.abs(back.data - Y.data)) <= 1e-12

    def test_zero_input_gives_opposite_halves(self):
        Y1, Y2 = preprocess_split(DenseTensor.zeros(4, 2), 7)
        assert np.allclose(Y1.data, -entries(Y2), atol=1e-15)
        assert not np.allclose(Y1.data, 0.0)

    def test_halves_decorrelated(self):
        # pure noise: the two halves are independent N(0,1) tensors
        Y = sample_noise_tensor(10, 5, 3)  # 1e5 entries
        Y1, Y2 = preprocess_split(Y, 3)
        corr = np.corrcoef(Y1.data, entries(Y2))[0, 1]
        assert abs(corr) <= 4 / np.sqrt(1e5)


def reference_split(Y, seed):
    """Both halves stored, as the paper writes them, and the split noise Z."""
    Z = substream(seed, "split").standard_normal(Y.data.size)
    s = 1.0 / np.sqrt(2.0)
    return DenseTensor(Y.n, Y.p, (Y.data + Z) * s), DenseTensor(Y.n, Y.p, (Y.data - Z) * s), Z


def reference_recover_multi(Y, k, t, r, seed):
    """recover_multi's rounds against a stored Y2."""
    Y1, Y2, _ = reference_split(Y, seed)
    recovered, values, forbidden = [], [], set()
    for _ in range(r):
        v, value = argmax_over_Ut(Y1, t, forbidden)
        support = top_k_magnitude(contract_leave_one(Y2, v), k)
        recovered.append(support)
        values.append(value)
        forbidden |= support
    return recovered, values


def reference_recover_general(Y, k, t, ell, seed):
    """recover_general's search and read-off against a stored Y2."""
    Y1, Y2, _ = reference_split(Y, seed)
    value, (comp, cands) = argmax_over_family(Y1.data, family_chunks(Y.n, Y.p, t, ell))
    factors = [SparseSignVector(Y.n, *cand) for cand, m in zip(cands, comp) for _ in range(m)]
    supports = [top_k_magnitude(contract_leave_mode(Y2, factors, sum(comp[: q + 1]) - 1), k)
                for q in range(ell)]
    return supports, value


@st.composite
def split_cases(draw):
    """(Y, t, seed) over n <= 7, p in {2, 3, 4}, t <= 3, entries at three scales."""
    p = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(1, 7))
    t = draw(st.integers(1, min(3, n)))
    seed = draw(st.integers(0, 2**63 - 1))
    scale = draw(st.sampled_from((1e-3, 1.0, 1e3)))
    Y = DenseTensor(n, p, scale * np.random.default_rng(seed).standard_normal(n**p))
    return Y, t, seed


def sparse_factor(draw, n, t):
    support = sorted(draw(st.lists(st.integers(1, n), min_size=t, max_size=t, unique=True)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=t, max_size=t))
    return SparseSignVector(n, tuple(support), tuple(signs))


class TestDerivedHalf:
    """Y2 = sqrt2*Y - Y1, derived per block, against the stored (Y - Z)/sqrt2."""

    @settings(max_examples=60, deadline=None)
    @given(case=split_cases(), data=st.data())
    def test_contractions_match_stored_half(self, case, data):
        Y, t, seed = case
        n, p = Y.n, Y.p
        _, stored, Z = reference_split(Y, seed)
        _, Y2 = preprocess_split(Y, seed)
        factors = [sparse_factor(data.draw, n, t) for _ in range(p)]
        # 4 eps * max(|Y|, |Z|) per term; every factor value is at most 1 in magnitude
        per_term = 4 * EPS * np.max(np.maximum(np.abs(Y.data), np.abs(Z)))
        tol = per_term * t ** (p - 1)
        v = factors[0]
        assert np.all(np.abs(contract_leave_one(Y2, v) - contract_leave_one(stored, v)) <= tol)
        for m in range(p):
            diff = contract_leave_mode(Y2, factors, m) - contract_leave_mode(stored, factors, m)
            assert np.all(np.abs(diff) <= tol)
        assert abs(rank1_inner(Y2, factors) - rank1_inner(stored, factors)) <= tol * t

    @settings(max_examples=40, deadline=None)
    @given(case=split_cases(), data=st.data())
    def test_recover_multi_matches_stored_half(self, case, data):
        Y, t, seed = case
        k = data.draw(st.integers(t, Y.n))
        r = data.draw(st.integers(1, Y.n // k))
        recovered, values = recover_multi(Y, k, t, r, seed)
        ref_recovered, ref_values = reference_recover_multi(Y, k, t, r, seed)
        assert recovered == ref_recovered
        assert [v.hex() for v in values] == [v.hex() for v in ref_values]

    @settings(max_examples=30, deadline=None)
    @given(case=split_cases(), data=st.data())
    def test_recover_general_matches_stored_half(self, case, data):
        Y, t, seed = case
        k = data.draw(st.integers(t, Y.n))
        # composite families with t > 1 stay at two parts, so an example costs < 1 s
        ell = data.draw(st.integers(1, min(Y.p, Y.n // t, 2 if t > 1 else Y.p)))
        supports, value = recover_general(Y, k, t, ell, seed)
        ref_supports, ref_value = reference_recover_general(Y, k, t, ell, seed)
        assert supports == ref_supports
        assert value.hex() == ref_value.hex()


class TestEnumerateCandidates:
    def test_even_p_halves_signs(self):
        cands = list(enumerate_candidates(3, 1, frozenset(), 2))
        assert len(cands) == 3
        assert all(c.signs == (1,) for c in cands)

    def test_odd_p_full_signs(self):
        cands = list(enumerate_candidates(3, 1, frozenset(), 3))
        assert len(cands) == 6

    def test_forbidden_excluded_and_counted(self):
        cands = list(enumerate_candidates(5, 2, {1}, 3))
        assert len(cands) == math.comb(4, 2) * 4 == 24
        assert all(1 not in c.support for c in cands)
        assert len(cands) == candidate_count(5, 2, 1, 3)

    def test_deterministic_order(self):
        a = [
            (c.support, c.signs) for c in enumerate_candidates(5, 2, frozenset(), 2)
        ]
        b = [
            (c.support, c.signs) for c in enumerate_candidates(5, 2, frozenset(), 2)
        ]
        assert a == b
        supports = [s for s, _ in a]
        assert supports == sorted(supports)

    def test_infeasible_raises(self):
        with pytest.raises(EnumerationError):
            list(enumerate_candidates(4, 3, {1, 2}, 2))


class TestArgmaxOverUt:
    def test_noiseless_maximizer_value(self):
        n, p, k, t = 8, 3, 4, 2
        Y, x = flat_spike_tensor(n, p, (2, 3, 5, 7), 3.0)
        v, value = argmax_over_Ut(Y, t, frozenset())
        assert set(v.support) <= set(x.support)
        assert value == pytest.approx(3.0 * (t / k) ** (p / 2), abs=1e-10)

    def test_zero_tensor_tie_breaks_to_first_candidate(self):
        Y = DenseTensor.zeros(4, 2)
        first = next(enumerate_candidates(4, 2, frozenset(), 2))
        v, value = argmax_over_Ut(Y, 2, frozenset())
        assert (v.support, v.signs) == (first.support, first.signs)
        assert value == 0.0

    def test_matches_naive_exhaustive(self):
        from stpca.tensor import rank1_inner

        rng = np.random.default_rng(4)
        Y = DenseTensor(6, 2, rng.standard_normal(36))
        v, value = argmax_over_Ut(Y, 2, frozenset())
        best = -np.inf
        best_cand = None
        for cand in enumerate_candidates(6, 2, frozenset(), 2):
            val = rank1_inner(Y, [cand, cand])
            if val > best:
                best, best_cand = val, cand
        assert value == pytest.approx(best, abs=1e-12)
        assert (v.support, v.signs) == (best_cand.support, best_cand.signs)

    def test_worker_counts_agree(self):
        rng = np.random.default_rng(5)
        Y = DenseTensor(7, 3, rng.standard_normal(343))
        results = [
            argmax_over_Ut(Y, 2, frozenset(), workers=w, chunk_size=13)
            for w in (1, 2, 8)
        ]
        base = results[0]
        for v, value in results[1:]:
            assert (v.support, v.signs) == (base[0].support, base[0].signs)
            assert value == base[1]

    def test_single_worker_starts_no_pool(self, monkeypatch):
        import stpca.recovery

        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool created at workers=1")

        monkeypatch.setattr(stpca.recovery, "ThreadPoolExecutor", no_pool)
        Y = DenseTensor(6, 2, np.random.default_rng(6).standard_normal(36))
        argmax_over_Ut(Y, 2, frozenset(), workers=1)
        with pytest.raises(ValueError):
            argmax_over_Ut(Y, 2, frozenset(), workers=0)


class TestTopK:
    def test_magnitude_selection(self):
        alpha = np.array([0.1, -5.0, 2.0, -0.3])
        assert top_k_magnitude(alpha, 2) == {2, 3}

    def test_tie_breaks_to_smaller_index(self):
        alpha = np.array([1.0, -1.0, 1.0])
        assert top_k_magnitude(alpha, 2) == {1, 2}


class TestRecoverSingle:
    def test_noise_free_exact(self):
        # the split injects fresh unit-variance noise, so lambda must dominate it
        Y, x = flat_spike_tensor(10, 3, (1, 4, 6), 500.0)
        rec, _ = recover_single(Y, 3, 2, seed=0)
        assert rec == {1, 4, 6}

    def test_pure_noise_rarely_matches_a_fixed_set(self):
        target = frozenset({1, 2, 3, 4, 5, 6})
        hits = 0
        trials = 40
        for seed in range(trials):
            Y = sample_noise_tensor(60, 3, seed)
            rec, _ = recover_single(Y, 6, 1, seed)
            hits += rec == target
        assert hits <= 2

    def test_parameter_validation(self):
        Y = DenseTensor.zeros(5, 2)
        with pytest.raises(ValueError):
            recover_single(Y, 2, 3, 0)  # t > k
        with pytest.raises(ValueError):
            recover_single(Y, 6, 1, 0)  # k > n


class TestRecoverMulti:
    def test_r1_matches_recover_single(self):
        spec = SignalSpec(n=12, p=3, k=3, strengths=(50.0,))
        inst = sample_sstm(spec, 9)
        single, value_s = recover_single(inst.observation, 3, 1, 9)
        multi, values_m = recover_multi(inst.observation, 3, 1, 1, 9)
        assert multi == [single]
        assert values_m == [value_s]

    def test_noise_free_multi_exact(self):
        n, p, k = 12, 3, 3
        Y = DenseTensor.zeros(n, p)
        x1 = SparseSignVector(n, (1, 2, 3), (1, 1, -1))
        x2 = SparseSignVector(n, (7, 9, 11), (1, -1, 1))
        Y = add_rank1(Y, 600.0, [x1] * p)
        Y = add_rank1(Y, 400.0, [x2] * p)
        rec, _ = recover_multi(Y, k, 2, 2, seed=1)
        assert set(map(frozenset, rec)) == {frozenset({1, 2, 3}), frozenset({7, 9, 11})}

    def test_round_shapes_and_determinism(self):
        # only the candidate search is restricted across rounds; on pure
        # noise the top-k index sets themselves may overlap
        Y = sample_noise_tensor(12, 3, 2)
        rec, values = recover_multi(Y, 3, 1, 3, seed=2)
        assert len(rec) == 3
        assert all(len(s) == 3 for s in rec)
        rec2, values2 = recover_multi(Y, 3, 1, 3, seed=2)
        assert rec == rec2 and values == values2

    def test_infeasibility_reports_round(self):
        Y = sample_noise_tensor(5, 2, 0)
        with pytest.raises(ValueError):
            recover_multi(Y, 2, 2, 3, seed=0)  # r*k > n


class TestRecoverGeneral:
    def test_empty_family_refused_before_split(self, monkeypatch):
        def split(*args):
            raise AssertionError("preprocess_split must not run")

        monkeypatch.setattr(recovery, "preprocess_split", split)
        # 3 disjoint supports of size 2 need 6 of the 5 coordinates
        with pytest.raises(EnumerationError):
            recover_general(sample_noise_tensor(5, 3, 0), 2, 2, 3, seed=0)

    def test_ell1_reduces_to_single(self):
        spec = SignalSpec(n=10, p=3, k=3, strengths=(40.0,))
        inst = sample_sstm(spec, 14)
        single, _ = recover_single(inst.observation, 3, 1, 14)
        general, _ = recover_general(inst.observation, 3, 1, 1, 14)
        assert general == [single]

    def test_noise_free_general_exact(self):
        n, p, k = 10, 3, 2
        Y = DenseTensor.zeros(n, p)
        u = SparseSignVector(n, (2, 5), (1, -1))
        v = SparseSignVector(n, (3, 8), (1, 1))
        # composition (2, 1): u occupies two modes, v one
        Y = add_rank1(Y, 700.0, [u, u, v])
        rec, _ = recover_general(Y, k, 1, 2, seed=3)
        assert set(map(frozenset, rec)) == {frozenset({2, 5}), frozenset({3, 8})}

    def test_planted_general_recovery(self):
        lam, _ = threshold_lambda_general(20, 3, 3, 1, 2)
        inst = sample_general_instance(20, 3, 3, 2, lam, 6)
        rec, _ = recover_general(inst.observation, 3, 1, 2, 6)
        report = match_supports(rec, inst.truth_supports())
        assert report.all_exact


class TestThreshold:
    def test_closed_form_value(self):
        lam, valid = threshold_lambda(60, 6, 3, 1, r=1, A=1.0, eps=0.5, kappa=5.0, delta=0.01)
        expected = 32 * 5 / 0.5**3 * math.sqrt(1 * 6**3 * math.log(60 / 0.01))
        assert lam == pytest.approx(expected, rel=1e-12)
        assert lam == pytest.approx(5.55e4, rel=0.01)
        assert valid

    def test_monotone_decreasing_in_t(self):
        lams = [threshold_lambda(60, 6, 3, t)[0] for t in (1, 2, 3, 6)]
        assert all(a > b for a, b in zip(lams, lams[1:]))

    def test_kappa_validity_flag(self):
        _, valid = threshold_lambda(60, 6, 3, 1, kappa=1.0)
        assert not valid
        _, valid = threshold_lambda(60, 6, 3, 1, kappa=5.0)
        assert valid

    def test_general_adds_sqrt_ell(self):
        base, _ = threshold_lambda(30, 4, 3, 1)
        gen, _ = threshold_lambda_general(30, 4, 3, 1, 2)
        assert gen == pytest.approx(base * math.sqrt(2), rel=1e-12)


class TestMatchSupports:
    def test_identity_matching(self):
        truth = [frozenset({1, 2}), frozenset({3, 4})]
        report = match_supports(list(truth), truth)
        assert report.matching == [0, 1]
        assert report.exact == [True, True]

    def test_reversed_matching(self):
        truth = [frozenset({1, 2}), frozenset({3, 4})]
        report = match_supports(list(reversed(truth)), truth)
        assert report.matching == [1, 0]
        assert report.all_exact

    def test_one_index_perturbed(self):
        truth = [frozenset({1, 2, 3, 4})]
        report = match_supports([frozenset({1, 2, 3, 9})], truth)
        assert report.exact == [False]
        assert report.overlap == [0.75]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            match_supports([frozenset({1})], [])


class TestDistinguish:
    def test_zero_tensor_is_null(self):
        Y = DenseTensor.zeros(10, 2)
        xhat = DenseUnitVector(10, np.eye(10)[0])
        assert distinguish(Y, xhat, k=2) == "null"

    def test_strong_spike_is_planted(self):
        n, p, k = 10, 3, 3
        lam = 10 * math.sqrt(k * math.log(n))
        Y, x = flat_spike_tensor(n, p, (1, 2, 3), lam)
        xhat = DenseUnitVector(n, x.to_dense())
        assert distinguish(Y, xhat, k) == "planted"

    def test_pure_noise_mostly_null(self):
        n, p, k = 60, 3, 6
        xhat = DenseUnitVector(n, SparseSignVector(n, (1, 2, 3, 4, 5, 6), (1,) * 6).to_dense())
        nulls = 0
        trials = 100
        for seed in range(trials):
            Y = sample_noise_tensor(n, p, seed)
            nulls += distinguish(Y, xhat, k) == "null"
        assert nulls >= 95
