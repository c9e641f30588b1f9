"""Dense order-p tensors and sparse rank-one contractions.

Tensors are stored flat in lexicographic ("row-major") order over 1-based
p-tuples; linear indices are 0-based. All recovery algorithms are built on
three primitives: rank-one inner products, leave-one-mode contractions, and
rank-one updates. Each factor reports its nonzeros with ``nonzeros()``, and
each primitive has one path: it reads or updates only the block of the
tensor on the product of the factors' supports (a free mode takes all n
indices), so k-sparse factors cost O(k^p) work instead of O(n^p).

Copy contract: the public ``DenseTensor(n, p, data)`` copies ``data`` and
freezes the copy, so a caller's array never aliases a tensor. A buffer the
library has just allocated (sampled noise, the output of :func:`add_rank1`,
the split halves, a file read back) is wrapped with ``DenseTensor._owned``,
which runs the same checks and freezes it without a copy. Sampling therefore
peaks at two tensor sizes (the noise and the copy that :func:`add_rank1`
makes), SSTF1 I/O streams without an extra copy, and a recovery holds
``Y1`` and ``Y2`` beside the caller's ``Y``.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

import numpy as np

# n^p doubles; 2^27 * 8 bytes = 1 GiB
DEFAULT_ENTRY_CAP = 2**27

SSTF1_MAGIC = b"SSTF1"
SSTF1_VERSION = 1


class CapacityError(ValueError):
    """Requested tensor would exceed the entry cap."""


class DimensionMismatchError(ValueError):
    """Operands disagree on ambient dimension or order."""


def check_capacity(n: int, p: int, entry_cap: int = DEFAULT_ENTRY_CAP) -> int:
    """Return n**p, refusing sizes above the cap."""
    if n < 1 or p < 2:
        raise ValueError(f"need n >= 1 and p >= 2, got n={n}, p={p}")
    size = n**p
    if size > entry_cap:
        raise CapacityError(
            f"tensor with n={n}, p={p} has {size} entries, cap is {entry_cap}"
        )
    return size


def flat_index(coords: tuple[int, ...], n: int) -> int:
    """Map a 1-based p-tuple to its 0-based lexicographic linear index."""
    idx = 0
    for c in coords:
        if not 1 <= c <= n:
            raise IndexError(f"coordinate {c} out of range [1, {n}]")
        idx = idx * n + (c - 1)
    return idx


def unflatten(idx: int, n: int, p: int) -> tuple[int, ...]:
    """Inverse of :func:`flat_index`."""
    if not 0 <= idx < n**p:
        raise IndexError(f"linear index {idx} out of range [0, {n**p})")
    coords = []
    for _ in range(p):
        coords.append(idx % n + 1)
        idx //= n
    return tuple(reversed(coords))


@dataclass(frozen=True)
class SparseSignVector:
    """Element of U_t: t-sparse flat vector with entries in {-1/sqrt(t), 0, +1/sqrt(t)}.

    support is strictly increasing, 1-based. The nonzero magnitude 1/sqrt(t)
    is implicit, so the induced vector has unit norm exactly.
    """

    n: int
    support: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        t = len(self.support)
        if t < 1 or t > self.n:
            raise ValueError(f"sparsity {t} out of range [1, {self.n}]")
        if len(self.signs) != t:
            raise ValueError("signs and support lengths differ")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +-1")
        prev = 0
        for i in self.support:
            if not prev < i <= self.n:
                raise ValueError("support must be strictly increasing in [1, n]")
            prev = i

    @property
    def t(self) -> int:
        return len(self.support)

    def nonzeros(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based indices and values of the nonzero entries, in index order."""
        return np.array(self.support) - 1, np.array(self.signs) * (1.0 / np.sqrt(self.t))

    def to_dense(self) -> np.ndarray:
        v = np.zeros(self.n)
        idx, vals = self.nonzeros()
        v[idx] = vals
        return v


@dataclass(frozen=True)
class DenseUnitVector:
    """Unit vector in R^n with an explicit entry array; k counts nonzeros."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.n,):
            raise DimensionMismatchError(f"expected shape ({self.n},), got {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("entries must be finite")
        object.__setattr__(self, "values", vals)
        norm = float(np.linalg.norm(vals))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"not a unit vector: ||v|| = {norm}")

    @property
    def k(self) -> int:
        return int(np.count_nonzero(self.values))

    def support_set(self) -> frozenset[int]:
        """1-based indices of nonzero entries."""
        return frozenset(int(i) + 1 for i in np.nonzero(self.values)[0])

    def nonzeros(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based indices and values of the nonzero entries, in index order."""
        idx = np.flatnonzero(self.values)
        return idx, self.values[idx]

    def to_dense(self) -> np.ndarray:
        return self.values


FactorVector = SparseSignVector | DenseUnitVector


@dataclass(frozen=True)
class DenseTensor:
    """Dense order-p tensor over R^n, flat lexicographic float64 storage."""

    n: int
    p: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "data", self._frozen(np.array(self.data, dtype=np.float64)))

    def _frozen(self, data: np.ndarray) -> np.ndarray:
        """Check data's dtype and shape against (n, p), then make it read-only."""
        size = check_capacity(self.n, self.p)
        if data.dtype != np.float64:
            raise ValueError(f"expected float64 entries, got {data.dtype}")
        if data.shape != (size,):
            raise ValueError(f"expected {size} entries, got shape {data.shape}")
        data.setflags(write=False)
        return data

    @classmethod
    def _owned(cls, n: int, p: int, data: np.ndarray) -> DenseTensor:
        """Wrap a buffer the library has just allocated, without copying it.

        The caller hands data over: nothing else may write to it afterwards.
        """
        Y = object.__new__(cls)
        object.__setattr__(Y, "n", n)
        object.__setattr__(Y, "p", p)
        object.__setattr__(Y, "data", Y._frozen(data))
        return Y

    @classmethod
    def zeros(cls, n: int, p: int) -> DenseTensor:
        return cls._owned(n, p, np.zeros(check_capacity(n, p)))

    def as_ndarray(self) -> np.ndarray:
        """Read-only view shaped (n,) * p."""
        return self.data.reshape((self.n,) * self.p)

    def __getitem__(self, coords: tuple[int, ...]) -> float:
        return float(self.data[flat_index(coords, self.n)])

    def max_abs_diff(self, other: DenseTensor) -> float:
        _check_same_shape(self, other)
        return float(np.max(np.abs(self.data - other.data)))


def _check_same_shape(a: DenseTensor, b: DenseTensor) -> None:
    if a.n != b.n or a.p != b.p:
        raise DimensionMismatchError(
            f"shape mismatch: (n={a.n}, p={a.p}) vs (n={b.n}, p={b.p})"
        )


def _check_factor(Y: DenseTensor, v: FactorVector) -> None:
    if v.n != Y.n:
        raise DimensionMismatchError(f"factor dimension {v.n} != tensor dimension {Y.n}")


def _support_block(
    Y: DenseTensor, factors: list[FactorVector], free_mode: int | None = None
) -> tuple[tuple[np.ndarray, ...], list[np.ndarray]]:
    """np.ix_ index of Y's block on the product of the factors' supports, and values.

    values holds the nonzero values of each factor but the free one, in mode
    order. The free mode, if any, takes all n indices and its factor is ignored.
    """
    if len(factors) != Y.p:
        raise DimensionMismatchError(f"need {Y.p} factors, got {len(factors)}")
    axes, values = [], []
    for m, v in enumerate(factors):
        if m == free_mode:
            axes.append(np.arange(Y.n))
            continue
        _check_factor(Y, v)
        idx, vals = v.nonzeros()
        axes.append(idx)
        values.append(vals)
    return np.ix_(*axes), values


def _contract(Y: DenseTensor, factors: list[FactorVector], free_mode: int | None = None):
    """Contract the support block with the factor values; the free mode stays."""
    block, values = _support_block(Y, factors, free_mode)
    acc = Y.as_ndarray()[block]
    if free_mode is not None:
        acc = np.moveaxis(acc, free_mode, 0)
    for vals in reversed(values):
        acc = acc @ vals
    return acc


def rank1_inner(Y: DenseTensor, factors: list[FactorVector]) -> float:
    """<Y, u_1 x ... x u_p>, the rank-one inner product over the support block."""
    return float(_contract(Y, factors))


def contract_leave_one(Y: DenseTensor, v: FactorVector) -> np.ndarray:
    """alpha with alpha_l = <Y, v^{x(p-1)} x e_l>; the free slot is the last mode.

    One pass costing O(k^{p-1} * n) for a k-sparse v.
    """
    return contract_leave_mode(Y, [v] * Y.p, Y.p - 1)


def contract_leave_mode(
    Y: DenseTensor, factors: list[FactorVector], free_mode: int
) -> np.ndarray:
    """All n values of <Y, u_1 x ... x e_l at free_mode x ... x u_p>.

    factors[free_mode] is ignored. Only the block on the other factors'
    supports, times all n indices of the free mode, is read.
    """
    return _contract(Y, factors, free_mode)


def add_rank1(Y: DenseTensor, lam: float, factors: list[FactorVector]) -> DenseTensor:
    """Return Y + lam * u_1 x ... x u_p as a new tensor.

    Only the support block changes: each of its entries gains lam times the
    left-to-right product of the factor values, the same float that a dense
    outer product gives.
    """
    block, values = _support_block(Y, factors)
    out = Y.data.copy()
    out.reshape((Y.n,) * Y.p)[block] += lam * functools.reduce(np.multiply.outer, values)
    return DenseTensor._owned(Y.n, Y.p, out)


def write_sstf1(Y: DenseTensor, path: str) -> None:
    """Write the binary SSTF1 format (magic, version, p, n, LE doubles)."""
    with open(path, "wb") as f:
        f.write(SSTF1_MAGIC)
        f.write(bytes([SSTF1_VERSION]))
        f.write(struct.pack("<II", Y.p, Y.n))
        f.write(np.asarray(Y.data, "<f8"))  # no copy on a little-endian host


def read_sstf1(path: str) -> DenseTensor:
    """Read an SSTF1 file; round-trips bit-exactly with :func:`write_sstf1`.

    A short header, a short payload or bytes after the payload raise
    ValueError.
    """
    with open(path, "rb") as f:
        header = f.read(14)  # magic, version byte, then p and n as little-endian uint32
        magic = header[:5]
        if magic != SSTF1_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {SSTF1_MAGIC!r}")
        version = header[5:6]
        if version != bytes([SSTF1_VERSION]):
            raise ValueError(f"unsupported version byte {version!r}")
        if len(header) != 14:
            raise ValueError(f"truncated header: {len(header)} of 14 bytes")
        p, n = struct.unpack("<II", header[6:])
        size = check_capacity(n, p)
        payload = np.empty(size, "<f8")
        if f.readinto(payload) != size * 8:
            raise ValueError(f"truncated file: expected {size} doubles")
        if f.read(1):
            raise ValueError(f"trailing bytes after {size} doubles")
    return DenseTensor._owned(n, p, payload.astype(np.float64, copy=False))
