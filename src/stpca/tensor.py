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
library has just allocated (a sampled observation, the output of
:func:`add_rank1`, the split half ``Y1``, a file read back) is wrapped with
``DenseTensor._owned``, which runs the same checks and freezes it without a
copy. The other split half is a :class:`SplitHalf`: ``Y2 = sqrt2*Y - Y1``,
derived block by block from the two tensors and never stored. A sampler adds
its spikes to the noise buffer in place (:func:`_add_rank1_into`), so
sampling peaks at one tensor, SSTF1 I/O streams without an extra copy, and a
recovery holds ``Y1`` alone beside the caller's ``Y``: two tensors in all.
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


def check_capacity(n: int, p: int) -> int:
    """Return n**p, refusing sizes above the cap."""
    if n < 1 or p < 2:
        raise ValueError(f"need n >= 1 and p >= 2, got n={n}, p={p}")
    size = n**p
    if size > DEFAULT_ENTRY_CAP:
        raise CapacityError(
            f"tensor with n={n}, p={p} has {size} entries, cap is {DEFAULT_ENTRY_CAP}"
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
    """Unit vector in R^n with an explicit entry array."""

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

    def block(self, ix: tuple[np.ndarray, ...]) -> np.ndarray:
        """The entries on an ``np.ix_`` index, as a new read-only array."""
        out = self.as_ndarray()[ix]
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class SplitHalf:
    """The split half ``sqrt2*Y - Y1`` of an observation Y and its other half Y1.

    It holds no entries of its own: :meth:`block` derives the entries on an
    ``np.ix_`` index from the same block of Y and Y1, so a contraction that
    reads only a support block costs no tensor-sized buffer. There is no
    ``data``; reading it raises AttributeError rather than hand back Y.
    """

    Y: DenseTensor = field(repr=False)
    Y1: DenseTensor = field(repr=False)

    @property
    def n(self) -> int:
        return self.Y.n

    @property
    def p(self) -> int:
        return self.Y.p

    @property
    def data(self):
        raise AttributeError("a SplitHalf stores no entries; read them with block()")

    def block(self, ix: tuple[np.ndarray, ...]) -> np.ndarray:
        """sqrt2*Y - Y1 on an ``np.ix_`` index, as a new read-only array."""
        out = np.sqrt(2.0) * self.Y.as_ndarray()[ix]
        out -= self.Y1.as_ndarray()[ix]
        out.setflags(write=False)
        return out


# what the contractions read: a stored tensor or a derived split half
Tensor = DenseTensor | SplitHalf


def _support_block(
    n: int, p: int, factors: list[FactorVector], free_mode: int | None = None
) -> tuple[tuple[np.ndarray, ...], list[np.ndarray]]:
    """np.ix_ index of the (n, p) block on the product of the factors' supports, and values.

    values holds the nonzero values of each factor but the free one, in mode
    order. The free mode, if any, takes all n indices and its factor is ignored.
    """
    if len(factors) != p:
        raise DimensionMismatchError(f"need {p} factors, got {len(factors)}")
    axes, values = [], []
    for m, v in enumerate(factors):
        if m == free_mode:
            axes.append(np.arange(n))
            continue
        if v.n != n:
            raise DimensionMismatchError(f"factor dimension {v.n} != tensor dimension {n}")
        idx, vals = v.nonzeros()
        axes.append(idx)
        values.append(vals)
    return np.ix_(*axes), values


def _contract(Y: Tensor, factors: list[FactorVector], free_mode: int | None = None):
    """Contract the support block with the factor values; the free mode stays."""
    block, values = _support_block(Y.n, Y.p, factors, free_mode)
    acc = Y.block(block)
    if free_mode is not None:
        acc = np.moveaxis(acc, free_mode, 0)
    for vals in reversed(values):
        acc = acc @ vals
    return acc


def rank1_inner(Y: Tensor, factors: list[FactorVector]) -> float:
    """<Y, u_1 x ... x u_p>, the rank-one inner product over the support block."""
    return float(_contract(Y, factors))


def contract_leave_one(Y: Tensor, v: FactorVector) -> np.ndarray:
    """alpha with alpha_l = <Y, v^{x(p-1)} x e_l>; the free slot is the last mode.

    One pass costing O(k^{p-1} * n) for a k-sparse v.
    """
    return contract_leave_mode(Y, [v] * Y.p, Y.p - 1)


def contract_leave_mode(
    Y: Tensor, factors: list[FactorVector], free_mode: int
) -> np.ndarray:
    """All n values of <Y, u_1 x ... x e_l at free_mode x ... x u_p>.

    factors[free_mode] is ignored. Only the block on the other factors'
    supports, times all n indices of the free mode, is read.
    """
    return _contract(Y, factors, free_mode)


def _add_rank1_into(data: np.ndarray, n: int, p: int, lam: float,
                    factors: list[FactorVector]) -> None:
    """Add lam * u_1 x ... x u_p in place to data, a writable flat (n, p) buffer:
    each entry of the support block gains lam times the left-to-right product
    of the factor values, the same float that a dense outer product gives."""
    block, values = _support_block(n, p, factors)
    data.reshape((n,) * p)[block] += lam * functools.reduce(np.multiply.outer, values)


def add_rank1(Y: DenseTensor, lam: float, factors: list[FactorVector]) -> DenseTensor:
    """Return Y + lam * u_1 x ... x u_p as a new tensor; Y is left alone."""
    out = Y.data.copy()
    _add_rank1_into(out, Y.n, Y.p, lam, factors)
    return DenseTensor._owned(Y.n, Y.p, out)


def write_sstf1(Y: DenseTensor, path: str) -> None:
    """Write the binary SSTF1 format (magic, version, p, n, LE doubles)."""
    payload = np.asarray(Y.data, "<f8")  # no copy on a little-endian host
    with open(path, "wb") as f:
        f.write(SSTF1_MAGIC)
        f.write(bytes([SSTF1_VERSION]))
        f.write(struct.pack("<II", Y.p, Y.n))
        f.write(payload)


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
