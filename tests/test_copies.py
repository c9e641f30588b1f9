"""The copy contract of DenseTensor and the allocation budget of each stage.

The public constructor copies and freezes; buffers the library allocates
itself are wrapped without a copy, and the split half Y2 is derived block by
block rather than stored. Budgets are tracemalloc peaks in units of
one tensor (n^p doubles), measured at n=50, p=3 (1 MB), and for the two
tensor-sized normal draws also at n=104, p=3 (1,124,864 entries, two
NOISE_BLOCK blocks filled by threads into the one output buffer).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpca.model import (
    MODES,
    NOISE_BLOCK,
    SignalSpec,
    sample_distinguishing,
    sample_noise_tensor,
    sample_sstm,
    substream,
)
from stpca.recovery import preprocess_split, recover_general, recover_multi
from stpca.tensor import (
    DenseTensor,
    DenseUnitVector,
    SparseSignVector,
    add_rank1,
    read_sstf1,
    write_sstf1,
)

N, P = 50, 3
TENSOR_BYTES = 8 * N**P
N_BLOCKS = 104  # N_BLOCKS**P spans two NOISE_BLOCK blocks
EPS = np.finfo(np.float64).eps


def entries(T):
    """Every entry of a tensor or split half, read through its full block."""
    return T.block(np.ix_(*[np.arange(T.n)] * T.p)).ravel()


def alloc_peak(fn, *args, tensor_bytes=TENSOR_BYTES):
    """fn(*args) and its allocation peak above the level at entry, in units of
    `tensor_bytes` (by default one n=50, p=3 tensor).

    fn runs once beforehand, so one-time lazy set-up (numpy's first draw from
    a generator allocates scratch memory) is not counted against the call.
    """
    fn(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, (peak - base) / tensor_bytes


@pytest.fixture
def spike():
    v = np.zeros(N)
    v[[3, 11, 20, 41]] = [0.5, -0.5, 0.5, 0.5]
    return DenseUnitVector(N, v)


class TestCopyBudget:
    def test_sample_noise_tensor(self):
        _, peak = alloc_peak(sample_noise_tensor, N, P, 1)
        assert peak <= 1.1

    def test_sample_noise_tensor_blocks(self):
        assert N_BLOCKS**P > NOISE_BLOCK
        _, peak = alloc_peak(sample_noise_tensor, N_BLOCKS, P, 1, tensor_bytes=8 * N_BLOCKS**P)
        assert peak <= 1.1

    # the spikes are written into the noise buffer; a copy per spike would read 2.0
    @pytest.mark.parametrize("spec", [
        SignalSpec(n=N, p=P, k=4, r=2, strengths=(5.0, 3.0)),
        SignalSpec(n=N, p=P, k=4, A=1.5, r=2, strengths=(5.0, 3.0), mode="apx-flat"),
        SignalSpec(n=N, p=P, k=4, strengths=(5.0,), mode="general", ell=2),
    ], ids=["flat-r2", "apx-flat", "general-ell2"])
    def test_sample_sstm(self, spec):
        _, peak = alloc_peak(sample_sstm, spec, 1)
        assert peak <= 1.1

    def test_sample_distinguishing_h1(self):
        (_, prior), peak = alloc_peak(sample_distinguishing, N, P, 10, 3.0, "H1", 1)
        assert prior.realized_sparsity > 0
        assert peak <= 1.1

    def test_add_rank1(self, spike):
        Y = sample_noise_tensor(N, P, 1)
        _, peak = alloc_peak(add_rank1, Y, 3.0, [spike] * P)
        assert peak <= 1.1

    def test_write_sstf1(self, tmp_path):
        Y = sample_noise_tensor(N, P, 1)
        _, peak = alloc_peak(write_sstf1, Y, str(tmp_path / "y.sstf"))
        assert peak <= 0.1

    def test_read_sstf1(self, tmp_path):
        path = str(tmp_path / "y.sstf")
        write_sstf1(sample_noise_tensor(N, P, 1), path)
        _, peak = alloc_peak(read_sstf1, path)
        assert peak <= 1.1

    def test_preprocess_split(self):
        Y = sample_noise_tensor(N, P, 1)
        _, peak = alloc_peak(preprocess_split, Y, 1)
        assert peak <= 1.1

    def test_preprocess_split_blocks(self):
        Y = sample_noise_tensor(N_BLOCKS, P, 1)
        _, peak = alloc_peak(preprocess_split, Y, 1, tensor_bytes=8 * N_BLOCKS**P)
        assert peak <= 1.1

    # a recovery stores Y1 alone beside the caller's Y; a stored Y2 would read 2.0
    def test_recover_multi(self):
        Y = sample_noise_tensor(N, P, 1)
        _, peak = alloc_peak(recover_multi, Y, 4, 1, 2, 1)
        assert peak <= 1.1

    def test_recover_general(self):
        # ell=1: an ell=2 family holds ~0.2 tensor of member objects per chunk here
        Y = sample_noise_tensor(N, P, 1)
        _, peak = alloc_peak(recover_general, Y, 2, 1, 1, 1)
        assert peak <= 1.1


class TestOwnership:
    def test_public_constructor_copies(self):
        arr = np.arange(8.0)
        Y = DenseTensor(2, 3, arr)
        arr[0] = 99.0
        assert Y.data[0] == 0.0
        assert not np.shares_memory(Y.data, arr)
        assert not Y.data.flags.writeable

    def test_owned_keeps_the_checks(self):
        with pytest.raises(ValueError):
            DenseTensor._owned(2, 3, np.zeros(8, dtype=np.float32))
        with pytest.raises(ValueError):
            DenseTensor._owned(2, 3, np.zeros(9))
        with pytest.raises(ValueError):
            DenseTensor._owned(2, 1, np.zeros(2))
        buf = np.zeros(8)
        Y = DenseTensor._owned(2, 3, buf)
        assert Y.data is buf and not buf.flags.writeable

    def test_library_tensors_are_read_only(self, tmp_path, spike):
        Y = sample_noise_tensor(N, P, 2)
        path = str(tmp_path / "y.sstf")
        write_sstf1(Y, path)
        sampled = sample_sstm(SignalSpec(n=N, p=P, k=4, strengths=(3.0,)), 2).observation
        Y1, Y2 = preprocess_split(Y, 2)
        returned = [
            Y,
            add_rank1(Y, 2.0, [spike] * P),
            DenseTensor.zeros(4, 3),
            read_sstf1(path),
            sampled,
            Y1,
        ]
        for T in returned:
            assert not T.data.flags.writeable
            with pytest.raises(ValueError):
                T.data[0] = 1.0
        for T in (*returned, Y2):
            block = entries(T)
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0] = 1.0

    def test_split_half_never_hands_back_a_tensor(self, tmp_path):
        Y = sample_noise_tensor(4, 3, 2)
        Y1, Y2 = preprocess_split(Y, 2)
        with pytest.raises(AttributeError, match="block"):
            Y2.data
        path = tmp_path / "y2.sstf"
        e1 = SparseSignVector(4, (1,), (1,))
        for op in (lambda: add_rank1(Y2, 1.0, [e1] * 3), lambda: write_sstf1(Y2, str(path))):
            with pytest.raises(AttributeError, match="block"):
                op()
        assert not path.exists()
        assert (Y2.n, Y2.p) == (4, 3)
        assert not np.array_equal(entries(Y2), Y.data)

    def test_add_rank1_leaves_its_input(self, spike):
        Y = sample_noise_tensor(N, P, 3)
        before = Y.data.copy()
        out = add_rank1(Y, 2.0, [spike] * P)
        assert np.array_equal(Y.data, before)
        assert not np.shares_memory(out.data, Y.data)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(MODES), p=st.integers(2, 4),
           seed=st.integers(0, 2**63 - 1))
    def test_sample_matches_add_rank1_reference(self, data, mode, p, seed):
        # building in the noise buffer gives the bits of noise + one add_rank1 per spike
        ell = data.draw(st.integers(1, p)) if mode == "general" else 1
        r = 1 if mode == "general" else data.draw(st.integers(1, 3))
        k = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(r * k * ell, max(9, r * k * ell)))
        strengths = sorted(data.draw(st.lists(
            st.sampled_from([0.0, 0.5, 3.0, 7.25]), min_size=r, max_size=r)), reverse=True)
        A = data.draw(st.floats(1.0, 3.0)) if mode == "apx-flat" else 1.0
        spec = SignalSpec(n=n, p=p, k=k, A=A, r=r, strengths=tuple(strengths), mode=mode,
                          ell=ell)
        inst = sample_sstm(spec, seed)
        ref = sample_noise_tensor(n, p, seed)
        for sig in inst.truth:
            ref = add_rank1(ref, sig.strength, sig.mode_factors(p))
        assert np.array_equal(inst.observation.data, ref.data)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 7), p=st.integers(2, 4), seed=st.integers(0, 2**63 - 1))
    def test_split_matches_reference_expression(self, n, p, seed):
        Y = DenseTensor(n, p, np.random.default_rng(seed).standard_normal(n**p))
        before = Y.data.copy()
        Y1, Y2 = preprocess_split(Y, seed)
        Z = substream(seed, "split").standard_normal(n**p)
        s = 1.0 / np.sqrt(2.0)
        assert np.array_equal(Y1.data, (Y.data + Z) * s)
        # Y2 = sqrt2*Y - Y1 is derived, so it matches (Y-Z)/sqrt2 to rounding
        scale = np.maximum(np.abs(Y.data), np.abs(Z))
        assert np.all(np.abs(entries(Y2) - (Y.data - Z) * s) <= 4 * EPS * scale)
        assert np.array_equal(Y.data, before)
