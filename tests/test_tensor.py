import functools
import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpca.tensor import (
    CapacityError,
    DenseTensor,
    DenseUnitVector,
    DimensionMismatchError,
    SparseSignVector,
    add_rank1,
    contract_leave_mode,
    contract_leave_one,
    flat_index,
    rank1_inner,
    read_sstf1,
    unflatten,
    write_sstf1,
)


def naive_rank1_inner(Y, factors):
    """Full n^p summation, independent of the sparse fast path."""
    n, p = Y.n, Y.p
    dense = [f.to_dense() for f in factors]
    total = 0.0
    for coords in itertools.product(range(1, n + 1), repeat=p):
        prod = float(Y.data[flat_index(coords, n)])
        for j, c in enumerate(coords):
            prod *= dense[j][c - 1]
        total += prod
    return total


def random_sparse(rng, n, t):
    support = tuple(sorted(rng.choice(n, size=t, replace=False) + 1))
    signs = tuple(int(s) for s in rng.choice([-1, 1], size=t))
    return SparseSignVector(n, support, signs)


class TestFlatIndex:
    def test_first_tuple(self):
        assert flat_index((1, 1), 3) == 0

    def test_lex_position(self):
        assert flat_index((2, 3), 3) == 5

    def test_round_trip_exhaustive(self):
        n, p = 4, 3
        for idx in range(n**p):
            assert flat_index(unflatten(idx, n, p), n) == idx

    @given(st.integers(2, 5), st.integers(2, 4), st.data())
    @settings(max_examples=100)
    def test_round_trip_random(self, n, p, data):
        coords = tuple(data.draw(st.integers(1, n)) for _ in range(p))
        assert unflatten(flat_index(coords, n), n, p) == coords

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            flat_index((0, 1), 3)
        with pytest.raises(IndexError):
            flat_index((1, 4), 3)


class TestConstruction:
    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            DenseTensor.zeros(2**10, 3)

    def test_data_length_checked(self):
        with pytest.raises(ValueError):
            DenseTensor(2, 2, np.zeros(5))

    def test_sparse_vector_validation(self):
        with pytest.raises(ValueError):
            SparseSignVector(5, (3, 2), (1, 1))  # not increasing
        with pytest.raises(ValueError):
            SparseSignVector(5, (1, 2), (1, 2))  # bad sign

    def test_sparse_vector_unit_norm(self):
        for t in (1, 2, 3):
            v = SparseSignVector(5, tuple(range(1, t + 1)), (1,) * t)
            assert abs(np.linalg.norm(v.to_dense()) - 1.0) < 1e-12

    def test_dense_unit_vector_rejects_non_unit(self):
        with pytest.raises(ValueError):
            DenseUnitVector(3, np.array([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dense_unit_vector_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            DenseUnitVector(3, np.array([bad, 0.0, 0.0]))


class TestRank1Inner:
    def test_zero_tensor(self):
        Y = DenseTensor.zeros(3, 3)
        v = SparseSignVector(3, (1,), (1,))
        assert rank1_inner(Y, [v] * 3) == 0.0

    def test_delta_tensor(self):
        data = np.zeros(8)
        data[flat_index((1, 1, 1), 2)] = 1.0
        Y = DenseTensor(2, 3, data)
        e1 = SparseSignVector(2, (1,), (1,))
        assert rank1_inner(Y, [e1] * 3) == pytest.approx(1.0)

    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            Y = DenseTensor(3, 3, rng.standard_normal(27))
            factors = [random_sparse(rng, 3, 2) for _ in range(3)]
            assert rank1_inner(Y, factors) == pytest.approx(
                naive_rank1_inner(Y, factors), abs=1e-12
            )

    def test_dense_factor_path_matches_naive(self):
        rng = np.random.default_rng(1)
        Y = DenseTensor(3, 3, rng.standard_normal(27))
        v = rng.standard_normal(3)
        dense = DenseUnitVector(3, v / np.linalg.norm(v))
        factors = [dense, random_sparse(rng, 3, 2), dense]
        assert rank1_inner(Y, factors) == pytest.approx(
            naive_rank1_inner(Y, factors), abs=1e-12
        )

    def test_linearity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            Ya = rng.standard_normal(16)
            Yb = rng.standard_normal(16)
            a, b = rng.standard_normal(2)
            factors = [random_sparse(rng, 2, 2) for _ in range(4)]
            lhs = rank1_inner(DenseTensor(2, 4, a * Ya + b * Yb), factors)
            rhs = a * rank1_inner(DenseTensor(2, 4, Ya), factors) + b * rank1_inner(
                DenseTensor(2, 4, Yb), factors
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_dimension_mismatch(self):
        Y = DenseTensor.zeros(3, 2)
        with pytest.raises(DimensionMismatchError):
            rank1_inner(Y, [SparseSignVector(4, (1,), (1,))] * 2)


class TestContractLeaveOne:
    def test_zero_tensor(self):
        Y = DenseTensor.zeros(4, 3)
        v = SparseSignVector(4, (1, 2), (1, 1))
        assert np.all(contract_leave_one(Y, v) == 0.0)

    def test_identity_matrix(self):
        data = np.zeros(4)
        data[flat_index((1, 1), 2)] = 1.0
        data[flat_index((2, 2), 2)] = 1.0
        Y = DenseTensor(2, 2, data)
        e1 = SparseSignVector(2, (1,), (1,))
        assert contract_leave_one(Y, e1) == pytest.approx([1.0, 0.0])

    def test_entries_match_rank1_inner(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            Y = DenseTensor(4, 3, rng.standard_normal(64))
            v = random_sparse(rng, 4, 2)
            alpha = contract_leave_one(Y, v)
            for ell in range(1, 5):
                e = SparseSignVector(4, (ell,), (1,))
                expected = rank1_inner(Y, [v, v, e])
                assert alpha[ell - 1] == pytest.approx(expected, abs=1e-12)


class TestAddRank1:
    def test_zero_lambda_is_identity(self):
        rng = np.random.default_rng(4)
        Y = DenseTensor(3, 2, rng.standard_normal(9))
        out = add_rank1(Y, 0.0, [SparseSignVector(3, (1,), (1,))] * 2)
        assert np.array_equal(out.data, Y.data)

    def test_flat_outer_product(self):
        Y = DenseTensor.zeros(3, 2)
        x = SparseSignVector(3, (1, 2), (1, 1))
        out = add_rank1(Y, 1.0, [x, x])
        expected = np.zeros((3, 3))
        expected[:2, :2] = 0.5
        assert np.allclose(out.as_ndarray(), expected, atol=1e-12)

    def test_add_then_inner_recovers_strength(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            Y = DenseTensor(4, 3, rng.standard_normal(64))
            x = random_sparse(rng, 4, 3)
            lam = float(rng.uniform(0.5, 3.0))
            before = rank1_inner(Y, [x] * 3)
            after = rank1_inner(add_rank1(Y, lam, [x] * 3), [x] * 3)
            assert after - before == pytest.approx(lam, abs=1e-12)

    def test_dense_factor_path(self):
        rng = np.random.default_rng(6)
        Y = DenseTensor(3, 2, rng.standard_normal(9))
        v = rng.standard_normal(3)
        dense = DenseUnitVector(3, v / np.linalg.norm(v))
        out = add_rank1(Y, 2.0, [dense, dense])
        expected = Y.as_ndarray() + 2.0 * np.outer(dense.values, dense.values)
        assert np.allclose(out.as_ndarray(), expected, atol=1e-12)


@st.composite
def factor_vectors(draw, n):
    """A SparseSignVector, a k-sparse DenseUnitVector or a full-support one."""
    kind = draw(st.sampled_from(["sign", "sparse", "full"]))
    k = n if kind == "full" else draw(st.integers(1, n))
    support = sorted(draw(st.permutations(range(1, n + 1)))[:k])
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=k, max_size=k))
    if kind == "sign":
        return SparseSignVector(n, tuple(support), tuple(signs))
    mags = draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k))
    v = np.zeros(n)
    v[np.array(support) - 1] = np.array(signs) * np.array(mags)
    return DenseUnitVector(n, v / np.linalg.norm(v))


class TestSupportBlockDifferential:
    """The support-block primitives against full n^p summation."""

    @staticmethod
    def draw_case(data):
        p = data.draw(st.sampled_from([2, 3, 4]), label="p")
        n = data.draw(st.integers(1, 4 if p == 4 else 5), label="n")
        factors = [data.draw(factor_vectors(n), label=f"factor {m}") for m in range(p)]
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        Y = DenseTensor(n, p, np.random.default_rng(seed).standard_normal(n**p))
        return Y, factors

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rank1_inner_matches_naive(self, data):
        Y, factors = self.draw_case(data)
        assert rank1_inner(Y, factors) == pytest.approx(
            naive_rank1_inner(Y, factors), rel=1e-12, abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_contract_leave_mode_matches_naive(self, data):
        Y, factors = self.draw_case(data)
        for free_mode in range(Y.p):
            alpha = contract_leave_mode(Y, factors, free_mode)
            assert alpha.shape == (Y.n,)
            for ell in range(1, Y.n + 1):
                e = SparseSignVector(Y.n, (ell,), (1,))
                probe = factors[:free_mode] + [e] + factors[free_mode + 1 :]
                assert alpha[ell - 1] == pytest.approx(
                    naive_rank1_inner(Y, probe), rel=1e-12, abs=1e-12
                )

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.floats(-50.0, 50.0))
    def test_add_rank1_equals_dense_outer_exactly(self, data, lam):
        # the samplers plant DenseUnitVector spikes; this pins their output bits
        Y, factors = self.draw_case(data)
        factors = [DenseUnitVector(Y.n, f.to_dense()) for f in factors]
        spike = functools.reduce(np.multiply.outer, [f.values for f in factors])
        out = add_rank1(Y, lam, factors)
        assert np.array_equal(out.data, Y.data + lam * spike.reshape(-1))


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        Y = DenseTensor(3, 3, rng.standard_normal(27))
        path = str(tmp_path / "y.sstf")
        write_sstf1(Y, path)
        Z = read_sstf1(path)
        assert Z.n == 3 and Z.p == 3
        assert np.array_equal(Z.data, Y.data)

    def test_header_layout(self, tmp_path):
        Y = DenseTensor.zeros(2, 2)
        path = str(tmp_path / "y.sstf")
        write_sstf1(Y, path)
        raw = open(path, "rb").read()
        assert raw[:5] == b"SSTF1"
        assert raw[5] == 1
        assert int.from_bytes(raw[6:10], "little") == 2  # p
        assert int.from_bytes(raw[10:14], "little") == 2  # n
        assert len(raw) == 14 + 4 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.sstf")
        with open(path, "wb") as f:
            f.write(b"NOPE!" + bytes(20))
        with pytest.raises(ValueError):
            read_sstf1(path)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 4),
        p=st.integers(2, 3),
        data=st.data(),
    )
    def test_round_trip_any_doubles(self, n, p, data):
        values = data.draw(
            st.lists(st.floats(width=64), min_size=n**p, max_size=n**p)
        )
        Y = DenseTensor(n, p, np.array(values, dtype=np.float64))
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "y.sstf")
            write_sstf1(Y, path)
            Z = read_sstf1(path)
        assert (Z.n, Z.p) == (n, p)
        assert Z.data.tobytes() == Y.data.tobytes()  # bit-exact, NaN payloads too

    @settings(max_examples=50, deadline=None)
    @given(cut=st.integers(0, 14 + 8 * 8 - 1), extra=st.binary(min_size=1, max_size=9))
    def test_truncated_or_padded_file_rejected(self, cut, extra):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "y.sstf"
            write_sstf1(DenseTensor(2, 3, np.arange(8.0)), str(path))
            raw = path.read_bytes()
            for bad in (raw[:cut], raw + extra):
                path.write_bytes(bad)
                with pytest.raises(ValueError):
                    read_sstf1(str(path))
