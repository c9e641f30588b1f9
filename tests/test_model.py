import dataclasses
import itertools
import json

import numpy as np
import pytest

from stpca.model import (
    NOISE_BLOCK,
    SignalSpec,
    _standard_normal,
    make_flat_signal,
    read_truth_supports,
    sample_apx_flat_signal,
    sample_distinguishing,
    sample_general_instance,
    sample_noise_tensor,
    sample_rademacher_prior,
    sample_sstm,
    substream,
    write_meta_json,
)
from stpca.recovery import preprocess_split
from stpca.tensor import CapacityError, DenseTensor, add_rank1


def serial_blocks(seed, label, size):
    """The blocked draw one block after another: block 0 from the label's
    stream, block b from (label, b)."""
    parts = []
    for b, start in enumerate(range(0, size, NOISE_BLOCK)):
        rng = substream(seed, *((label, b) if b else (label,)))
        parts.append(rng.standard_normal(min(NOISE_BLOCK, size - start)))
    return np.concatenate(parts)


class TestBlockedNormal:
    @pytest.mark.parametrize("size", [1, 7, NOISE_BLOCK - 1, NOISE_BLOCK])
    def test_one_block_is_the_label_stream(self, size):
        expected = substream(11, "noise").standard_normal(size)
        assert np.array_equal(_standard_normal(11, "noise", size), expected)

    @pytest.mark.parametrize("size", [NOISE_BLOCK + 1, 2 * NOISE_BLOCK, 2 * NOISE_BLOCK + 3])
    def test_blocks_match_serial_reference(self, size):
        out = _standard_normal(11, "split", size)
        assert out.shape == (size,) and out.dtype == np.float64
        assert np.array_equal(out, serial_blocks(11, "split", size))

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_independent_of_cpu_count(self, monkeypatch, cpus):
        size = 3 * NOISE_BLOCK + 5
        expected = serial_blocks(4, "noise", size)
        monkeypatch.setattr("stpca.model.os.sched_getaffinity", lambda pid: set(range(cpus)))
        assert np.array_equal(_standard_normal(4, "noise", size), expected)

    def test_blocks_are_distinct_streams(self):
        out = _standard_normal(9, "noise", 2 * NOISE_BLOCK)
        block0, block1 = out[:NOISE_BLOCK], out[NOISE_BLOCK:]
        assert not np.any(block0 == block1)
        assert abs(np.corrcoef(block0, block1)[0, 1]) <= 4 / np.sqrt(NOISE_BLOCK)

    def test_tensor_draws_use_the_blocks(self):
        # n=104, p=3: 1,124,864 entries, two blocks
        n, p, seed = 104, 3, 6
        Y = sample_noise_tensor(n, p, seed)
        assert np.array_equal(Y.data, serial_blocks(seed, "noise", n**p))
        Y1, _ = preprocess_split(Y, seed)
        expected = (Y.data + serial_blocks(seed, "split", n**p)) * (1.0 / np.sqrt(2.0))
        assert np.array_equal(Y1.data, expected)

    def test_single_block_tensor_keeps_serial_bits(self):
        # the scan workload's tensor, 64,000 entries
        Y = sample_noise_tensor(40, 3, 2)
        assert np.array_equal(Y.data, substream(2, "noise").standard_normal(40**3))


class TestSubstream:
    def test_distinct_labels_give_distinct_streams(self):
        a = substream(42, "noise").standard_normal(8)
        b = substream(42, "signs").standard_normal(8)
        assert not np.allclose(a, b)

    def test_same_label_reproducible(self):
        a = substream(42, "noise", 3).standard_normal(8)
        b = substream(42, "noise", 3).standard_normal(8)
        assert np.array_equal(a, b)


class TestNoise:
    def test_determinism(self):
        a = sample_noise_tensor(5, 3, 99)
        b = sample_noise_tensor(5, 3, 99)
        assert np.array_equal(a.data, b.data)

    def test_mean_near_zero(self):
        Y = sample_noise_tensor(20, 3, 0)
        N = 20**3
        assert abs(Y.data.mean()) <= 4 / np.sqrt(N)

    def test_variance_near_one(self):
        Y = sample_noise_tensor(20, 3, 1)
        assert 0.95 <= Y.data.var() <= 1.05


class TestFlatSignal:
    def test_k1_is_basis_vector(self):
        v = make_flat_signal(5, [3], [1])
        assert np.array_equal(v.values, np.eye(5)[2])

    def test_k4_magnitudes(self):
        v = make_flat_signal(8, [1, 2, 5, 7], [1, -1, 1, -1])
        nz = v.values[v.values != 0]
        assert np.allclose(np.abs(nz), 0.5)

    def test_unit_norm(self):
        v = make_flat_signal(10, [2, 4, 9], [1, 1, -1])
        assert abs(np.linalg.norm(v.values) - 1.0) < 1e-12

    def test_duplicate_support_rejected(self):
        with pytest.raises(ValueError):
            make_flat_signal(5, [2, 2], [1, 1])

    @pytest.mark.parametrize("support", [[7], [5, 1], [2, 9, 4], [1, 2, 3, 4], [8, 6, 3, 1]])
    def test_matches_entrywise_reference(self, support):
        n = 10
        for signs in itertools.product((1, -1), repeat=len(support)):
            ref = np.zeros(n)
            for i, s in zip(support, signs):
                ref[i - 1] = s * (1.0 / np.sqrt(len(support)))
            for sup, sg in ((support, signs), (np.array(support), np.array(signs))):
                assert make_flat_signal(n, sup, sg).values.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("support, signs", [([0, 2], [1, 1]), ([3, 6], [1, -1]), ([2], [1, -1])])
    def test_bad_support_rejected(self, support, signs):
        with pytest.raises(ValueError):
            make_flat_signal(5, support, signs)


class TestApxFlatSignal:
    def test_A1_is_exactly_flat(self):
        v, a_eff = sample_apx_flat_signal(20, 5, 1.0, 3)
        nz = np.abs(v.values[v.values != 0])
        assert np.allclose(nz, 1 / np.sqrt(5), atol=1e-12)
        assert a_eff == 1.0

    def test_effective_bound_A_squared(self):
        A, k, n = 2.0, 8, 50
        for seed in range(100):
            v, a_eff = sample_apx_flat_signal(n, k, A, seed)
            assert a_eff == A * A
            nz = np.abs(v.values[v.values != 0])
            assert len(nz) == k
            assert np.all(nz >= 1 / (a_eff * np.sqrt(k)) - 1e-12)
            assert np.all(nz <= a_eff / np.sqrt(k) + 1e-12)

    def test_unit_norm_many_seeds(self):
        for seed in range(100):
            v, _ = sample_apx_flat_signal(30, 6, 1.5, seed)
            assert abs(np.linalg.norm(v.values) - 1.0) < 1e-12


class TestSampleSstm:
    def test_zero_strength_equals_pure_noise(self):
        spec = SignalSpec(n=6, p=3, k=2, strengths=(0.0,))
        inst = sample_sstm(spec, 17)
        noise = sample_noise_tensor(6, 3, 17)
        assert np.array_equal(inst.observation.data, noise.data)

    def test_multi_spike_supports_disjoint(self):
        spec = SignalSpec(n=10, p=2, k=3, r=2, strengths=(2.0, 1.0))
        inst = sample_sstm(spec, 5)
        sups = inst.truth_supports()
        assert len(sups) == 2
        assert all(len(s) == 3 for s in sups)
        assert not (sups[0] & sups[1])

    def test_subtracting_spikes_recovers_noise(self):
        spec = SignalSpec(n=8, p=3, k=3, r=2, strengths=(3.0, 2.0))
        inst = sample_sstm(spec, 11)
        Y = inst.observation
        for sig in inst.truth:
            Y = add_rank1(Y, -sig.strength, sig.mode_factors(3))
        noise = sample_noise_tensor(8, 3, 11)
        assert np.max(np.abs(Y.data - noise.data)) <= 1e-12

    def test_apx_flat_mode_reconstruction(self):
        spec = SignalSpec(n=8, p=2, k=3, A=2.0, mode="apx-flat", strengths=(4.0,))
        inst = sample_sstm(spec, 13)
        Y = add_rank1(inst.observation, -4.0, inst.truth[0].mode_factors(2))
        noise = sample_noise_tensor(8, 2, 13)
        assert np.max(np.abs(Y.data - noise.data)) <= 1e-12

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ValueError):
            SignalSpec(n=5, p=2, k=3, r=2, strengths=(1.0, 1.0))

    def test_general_mode_reconstruction(self):
        spec = SignalSpec(n=10, p=4, k=2, strengths=(3.0,), mode="general", ell=3)
        inst = sample_sstm(spec, 7)
        sig = inst.truth[0]
        assert len(sig.factors) == 3 and sum(sig.composition) == 4
        Y = add_rank1(inst.observation, -sig.strength, sig.mode_factors(4))
        noise = sample_noise_tensor(10, 4, 7)
        assert np.max(np.abs(Y.data - noise.data)) <= 1e-12

    def test_general_mode_plants_one_spike(self):
        with pytest.raises(ValueError, match="r=2"):
            SignalSpec(n=20, p=3, k=2, r=2, strengths=(2.0, 1.0), mode="general", ell=2)

    @pytest.mark.parametrize("p", [1, 0, -2])
    def test_order_below_two_rejected(self, p):
        with pytest.raises(ValueError, match=f"p={p}"):
            SignalSpec(n=10, p=p, k=2, strengths=(5.0,))

    def test_capacity_checked_before_sampling(self):
        # refused before any draw: n^p is over the cap, though n-sized factors would fit
        with pytest.raises(CapacityError):
            sample_sstm(SignalSpec(n=10**6, p=3, k=2, strengths=(5.0,)), 0)
        with pytest.raises(CapacityError):
            sample_distinguishing(10**6, 3, 2, 5.0, "H1", 0)

    def test_strength_count_named_in_error(self):
        with pytest.raises(ValueError, match="r=3 and 2 strengths"):
            SignalSpec(n=20, p=3, k=2, r=3, strengths=(2.0, 1.0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_named_in_error(self, value):
        # NaN passed every comparison and was written into the tensor
        with pytest.raises(ValueError, match="strengths must be finite"):
            SignalSpec(n=20, p=3, k=2, r=2, strengths=(5.0, value))
        with pytest.raises(ValueError, match="A must be finite"):
            SignalSpec(n=20, p=3, k=2, A=value, mode="apx-flat")


class TestGeneralInstance:
    def test_ell1_reduces_to_single_spike(self):
        inst_gen = sample_general_instance(8, 3, 2, 1, 2.5, 21)
        inst_flat = sample_sstm(SignalSpec(n=8, p=3, k=2, strengths=(2.5,)), 21)
        assert np.array_equal(inst_gen.observation.data, inst_flat.observation.data)

    def test_ell_p_all_factors_distinct(self):
        inst = sample_general_instance(12, 3, 2, 3, 1.0, 2)
        assert inst.truth[0].composition == (1, 1, 1)
        sups = inst.truth_supports()
        assert len(sups) == 3
        assert not (sups[0] & sups[1]) and not (sups[1] & sups[2])

    def test_reconstruction(self):
        inst = sample_general_instance(10, 4, 2, 2, 3.0, 7)
        sig = inst.truth[0]
        Y = add_rank1(inst.observation, -sig.strength, sig.mode_factors(4))
        noise = sample_noise_tensor(10, 4, 7)
        assert np.max(np.abs(Y.data - noise.data)) <= 1e-12

    def test_ell_exceeding_p_rejected(self):
        with pytest.raises(ValueError):
            sample_general_instance(20, 2, 2, 3, 1.0, 0)


class TestDistinguishing:
    def test_h0_equals_noise(self):
        Y, prior = sample_distinguishing(6, 2, 2, 5.0, "H0", 31)
        noise = sample_noise_tensor(6, 2, 31)
        assert prior is None
        assert np.array_equal(Y.data, noise.data)

    def test_h1_zero_lambda_matches_h0_bytes(self):
        Y0, _ = sample_distinguishing(6, 2, 2, 0.0, "H0", 31)
        Y1, prior = sample_distinguishing(6, 2, 2, 0.0, "H1", 31)
        assert prior is not None
        assert np.array_equal(Y0.data, Y1.data)

    def test_h1_adds_prior_spike(self):
        Y, prior = sample_distinguishing(6, 3, 3, 2.0, "H1", 8)
        noise = sample_noise_tensor(6, 3, 8)
        diff = (Y.data - noise.data).reshape(6, 6, 6)
        x = prior.x
        expected = 2.0 * np.einsum("i,j,k->ijk", x, x, x)
        assert np.allclose(diff, expected, atol=1e-12)

    def test_realized_sparsity_concentrates(self):
        hits = 0
        for seed in range(100):
            prior = sample_rademacher_prior(1000, 100, seed)
            if 60 <= prior.realized_sparsity <= 140:
                hits += 1
        assert hits >= 99

    def test_prior_entry_values(self):
        prior = sample_rademacher_prior(50, 10, 4)
        vals = set(np.round(prior.x * np.sqrt(10), 9))
        assert vals <= {-1.0, 0.0, 1.0}


class TestMetaSidecar:
    def test_round_trip(self, tmp_path):
        spec = SignalSpec(n=8, p=2, k=2, r=2, strengths=(2.0, 1.0))
        inst = sample_sstm(spec, 3)
        path = str(tmp_path / "y.sstf.meta.json")
        write_meta_json(path, inst)
        doc = json.loads(open(path).read())
        fields = json.loads(json.dumps(dataclasses.asdict(spec)))
        assert {key: doc[key] for key in fields} == fields
        assert doc["seed"] == 3
        assert len(doc["truth"]) == 2
        assert sorted(doc["truth"][0]["supports"][0]) == sorted(
            inst.truth_supports()[0]
        )
        assert read_truth_supports(path) == inst.truth_supports()

    def test_top_level_key_order(self, tmp_path):
        spec = SignalSpec(n=12, p=3, k=2, strengths=(4.0,), mode="general", ell=2)
        path = str(tmp_path / "y.sstf.meta.json")
        write_meta_json(path, sample_sstm(spec, 3))
        with open(path) as f:
            doc = json.load(f)
        assert list(doc) == [
            "n", "p", "k", "A", "r", "strengths", "mode", "ell", "seed", "truth",
        ]
        assert list(doc["truth"][0]) == ["strength", "composition", "supports"]

    def test_no_truth_reads_as_none(self, tmp_path):
        spec = SignalSpec(n=8, p=2, k=2)
        path = str(tmp_path / "y.sstf.meta.json")
        with open(path, "w") as f:  # a sidecar from another tool, with no truth
            json.dump(dict(dataclasses.asdict(spec), seed=3), f)
        assert read_truth_supports(path) is None
