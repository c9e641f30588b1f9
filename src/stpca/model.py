"""Reproducible samplers for the sparse spiked tensor model.

Every sampler is a pure function of (parameters, seed). A single 64-bit
master seed derives labeled sub-streams via :func:`substream`, so tests can
regenerate any component (noise, supports, signs, magnitudes) independently.
A tensor-sized Gaussian draw (the noise W, the split noise Z) is filled in
blocks of NOISE_BLOCK = 2^20 entries, in parallel threads: block 0 comes from
the label's own stream and block b >= 1 from the stream of (label, b), so the
result does not depend on the thread count. A tensor of at most 2^20 entries
is one block and keeps the bits of a single serial draw; a larger one differs
from the single serial stream that earlier versions drew.
`sample_sstm` serves every `SignalSpec` mode (flat, apx-flat, general) through
one loop over spikes and their factors.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .tensor import DenseTensor, DenseUnitVector, SparseSignVector, _add_rank1_into, check_capacity

MODES = ("flat", "apx-flat", "general")
# entries per independently seeded block of a tensor-sized normal draw
NOISE_BLOCK = 2**20


def substream(master_seed: int, *labels) -> np.random.Generator:
    """Derive a labeled random stream from a 64-bit master seed.

    Each label (string or int) is mapped to the uint32 words of its UTF-8
    bytes / value and used as the SeedSequence spawn key, so distinct labels
    give independent streams and the mapping is platform-stable.
    """
    key: list[int] = []
    for label in labels:
        if isinstance(label, int):
            key.extend((label & 0xFFFFFFFF, (label >> 32) & 0xFFFFFFFF))
        else:
            raw = str(label).encode("utf-8")
            key.extend(int.from_bytes(raw[i : i + 4], "little") for i in range(0, len(raw), 4))
    ss = np.random.SeedSequence(entropy=master_seed & (2**64 - 1), spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


def _standard_normal(master_seed: int, label: str, size: int) -> np.ndarray:
    """`size` i.i.d. N(0,1) doubles in one buffer, filled in NOISE_BLOCK blocks.

    Block 0 is drawn from substream(master_seed, label), so a draw of at most
    NOISE_BLOCK entries equals substream(master_seed, label).standard_normal(size);
    block b >= 1 is drawn from substream(master_seed, label, b). Several blocks
    are filled by a thread pool (numpy releases the GIL while it fills), each
    writing its own slice, so the bits depend only on (master_seed, label, size).
    """
    out = np.empty(size)

    def fill(b: int) -> None:
        labels = (label, b) if b else (label,)
        start = b * NOISE_BLOCK
        substream(master_seed, *labels).standard_normal(out=out[start : start + NOISE_BLOCK])

    blocks = range(-(-size // NOISE_BLOCK))
    if len(blocks) < 2:
        for b in blocks:
            fill(b)
    else:
        with ThreadPoolExecutor(min(len(os.sched_getaffinity(0)), len(blocks))) as pool:
            list(pool.map(fill, blocks))
    return out


@dataclass(frozen=True)
class SignalSpec:
    """Parameters of the planted signal(s): Y = W + sum_q strengths[q] * x_q^{xp}."""

    n: int
    p: int
    k: int
    A: float = 1.0
    r: int = 1
    strengths: tuple[float, ...] = (1.0,)
    mode: str = "flat"
    ell: int = 1  # distinct factors per spike; 1 unless mode is "general"

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"need tensor order p >= 2, got p={self.p}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not np.isfinite(self.A):
            raise ValueError(f"flatness bound A must be finite, got {self.A}")
        if not np.isfinite(self.strengths).all():
            raise ValueError(f"strengths must be finite, got {self.strengths}")
        if self.A < 1:
            raise ValueError("flatness bound A must be >= 1")
        if self.r < 1 or len(self.strengths) != self.r:
            raise ValueError(
                f"need r >= 1 and one strength per spike, got r={self.r} and "
                f"{len(self.strengths)} strengths"
            )
        if any(a < b for a, b in zip(self.strengths, self.strengths[1:])):
            raise ValueError("strengths must be non-increasing")
        if any(s < 0 for s in self.strengths):
            raise ValueError("strengths must be nonnegative")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.mode != "general" and self.ell != 1:
            raise ValueError(f"ell={self.ell} needs mode 'general', got mode '{self.mode}'")
        if self.mode != "apx-flat" and self.A != 1:
            raise ValueError(f"A={self.A} needs mode 'apx-flat', got mode '{self.mode}'")
        if self.mode == "general" and not 1 <= self.ell <= self.p:
            raise ValueError(f"need 1 <= ell <= p, got ell={self.ell}, p={self.p}")
        if self.mode == "general" and self.r != 1:
            raise ValueError(f"general mode plants one spike, got r={self.r}")
        disjoint_supports = self.r * self.k * self.ell
        if disjoint_supports > self.n:
            raise ValueError(
                f"disjoint supports infeasible: {disjoint_supports} indices > n={self.n}"
            )


@dataclass(frozen=True)
class PlantedSignal:
    """One ground-truth spike: strength and its p factor vectors.

    For flat / apx-flat spikes all p factors are the same vector; in the
    general mode `composition` records how many consecutive modes each of
    the ell distinct vectors occupies.
    """

    strength: float
    factors: tuple[DenseUnitVector, ...]
    composition: tuple[int, ...]

    def mode_factors(self, p: int) -> list[DenseUnitVector]:
        """The p per-mode factor vectors in tensor-mode order."""
        out: list[DenseUnitVector] = []
        for vec, m in zip(self.factors, self.composition):
            out.extend([vec] * m)
        assert len(out) == p
        return out


@dataclass(frozen=True)
class SstmInstance:
    """Sampled observation plus hidden ground truth for evaluation."""

    observation: DenseTensor
    truth: tuple[PlantedSignal, ...]
    seed: int
    spec: SignalSpec

    def truth_supports(self) -> list[frozenset[int]]:
        """One support set per distinct planted factor, in planting order."""
        out = []
        for sig in self.truth:
            out.extend(f.support_set() for f in sig.factors)
        return out


@dataclass(frozen=True)
class RademacherPriorSample:
    """Scaled Rademacher vector with entries in {+1/sqrt(k), -1/sqrt(k), 0}."""

    x: np.ndarray
    realized_sparsity: int


def _noise_data(n: int, p: int, seed: int) -> np.ndarray:
    """The writable buffer sample_noise_tensor wraps, capacity-checked before it is drawn."""
    return _standard_normal(seed, "noise", check_capacity(n, p))


def sample_noise_tensor(n: int, p: int, seed: int) -> DenseTensor:
    """I.i.d. N(0,1) tensor from the "noise" sub-streams of `seed` (see
    :func:`_standard_normal` for the block layout)."""
    return DenseTensor._owned(n, p, _noise_data(n, p, seed))


def make_flat_signal(n: int, support, signs) -> DenseUnitVector:
    """k-sparse flat unit vector: entries +-1/sqrt(k) on a 1-based support in any order."""
    support, signs = list(support), list(signs)
    if len(signs) != len(support):
        raise ValueError("signs and support lengths differ")
    pairs = sorted(zip(support, signs))
    u = SparseSignVector(n, tuple(i for i, _ in pairs), tuple(s for _, s in pairs))
    return DenseUnitVector(n, u.to_dense())


def _apx_flat_factor(n: int, support, signs, A: float, rng) -> DenseUnitVector:
    """Signed magnitudes uniform in [1/(A sqrt k), A/sqrt k], drawn from rng
    on the 1-based support, renormalized to unit length."""
    k = len(support)
    mags = rng.uniform(1.0 / (A * np.sqrt(k)), A / np.sqrt(k), size=k)
    v = np.zeros(n)
    v[support - 1] = signs * mags
    v /= np.linalg.norm(v)
    return DenseUnitVector(n, v)


def sample_apx_flat_signal(
    n: int, k: int, A: float, seed: int
) -> tuple[DenseUnitVector, float]:
    """(k, A)-sparse signal with magnitudes uniform in [1/(A sqrt k), A/sqrt k].

    Renormalization to unit length can rescale magnitudes by at most a factor
    of A, so the returned effective flatness bound is A' = A^2.
    """
    if A < 1:
        raise ValueError("A must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    support = np.sort(substream(seed, "supports").choice(n, size=k, replace=False)) + 1
    signs = substream(seed, "signs").choice([-1.0, 1.0], size=k)
    return _apx_flat_factor(n, support, signs, A, substream(seed, "magnitudes")), A * A


def _disjoint_supports(n: int, sizes: list[int], rng: np.random.Generator) -> list[np.ndarray]:
    """Draw sum(sizes) indices without replacement and chunk them."""
    total = sum(sizes)
    if total > n:
        raise ValueError(f"cannot place {total} disjoint indices in [1, {n}]")
    pool = rng.choice(n, size=total, replace=False) + 1
    out, at = [], 0
    for size in sizes:
        out.append(np.sort(pool[at : at + size]))
        at += size
    return out


def sample_sstm(spec: SignalSpec, seed: int) -> SstmInstance:
    """Sample Y = W + sum_q strengths[q] * x_q^{xp} with disjoint truth supports.

    Every spike has ell flat factors in "general" mode (one spike, with a
    composition drawn uniformly among the C(p-1, ell-1) choices) and one
    factor otherwise. All factors take disjoint supports from the "supports"
    stream and signs from the "signs" stream, spike by spike; apx-flat
    magnitudes come from ("magnitudes", q).
    """
    n, p, k, ell = spec.n, spec.p, spec.k, spec.ell
    # uniform composition: choose ell-1 cut points among p-1 gaps; (p,) for ell=1
    cuts = np.sort(substream(seed, "composition").choice(p - 1, size=ell - 1, replace=False))
    bounds = [0, *(cuts + 1).tolist(), p]
    composition = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    data = _noise_data(n, p, seed)
    supports = _disjoint_supports(n, [k] * (spec.r * ell), substream(seed, "supports"))
    sign_rng = substream(seed, "signs")
    signals: list[PlantedSignal] = []
    for q, lam in enumerate(spec.strengths):
        factors = []
        for support in supports[q * ell : (q + 1) * ell]:
            signs = sign_rng.choice([-1, 1], size=k)
            if spec.mode == "apx-flat":
                rng = substream(seed, "magnitudes", q)
                factors.append(_apx_flat_factor(n, support, signs, spec.A, rng))
            else:
                factors.append(make_flat_signal(n, support, signs))
        signal = PlantedSignal(lam, tuple(factors), composition)
        signals.append(signal)
        if lam != 0.0:
            _add_rank1_into(data, n, p, lam, signal.mode_factors(p))
    return SstmInstance(DenseTensor._owned(n, p, data), tuple(signals), seed, spec)


def sample_general_instance(
    n: int, p: int, k: int, ell: int, lam: float, seed: int
) -> SstmInstance:
    """Single general spike lam * x_(1) x ... x x_(p) from ell distinct flat vectors."""
    return sample_sstm(
        SignalSpec(n=n, p=p, k=k, strengths=(lam,), mode="general", ell=ell), seed
    )


def sample_rademacher_prior(n: int, k: int, seed: int) -> RademacherPriorSample:
    """Entries i.i.d. +-1/sqrt(k) w.p. k/(2n) each, 0 w.p. 1 - k/n."""
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    rng = substream(seed, "prior")
    u = rng.random(n)
    x = np.where(u < k / (2 * n), 1.0, np.where(u < k / n, -1.0, 0.0)) / np.sqrt(k)
    return RademacherPriorSample(x, int(np.count_nonzero(x)))


def sample_distinguishing(
    n: int, p: int, k: int, lam: float, hypothesis: str, seed: int
) -> tuple[DenseTensor, RademacherPriorSample | None]:
    """One draw of the H0 (pure noise) or H1 (noise + Rademacher spike) tensor.

    H0 output is byte-identical to sample_noise_tensor(n, p, seed).
    """
    if hypothesis not in ("H0", "H1"):
        raise ValueError("hypothesis must be 'H0' or 'H1'")
    data = _noise_data(n, p, seed)
    prior = sample_rademacher_prior(n, k, seed) if hypothesis == "H1" else None
    if prior is not None and lam != 0.0 and prior.realized_sparsity > 0:
        # x is not unit norm in general; scale a unit vector by ||x||
        norm = float(np.linalg.norm(prior.x))
        _add_rank1_into(data, n, p, lam * norm**p, [DenseUnitVector(n, prior.x / norm)] * p)
    return DenseTensor._owned(n, p, data), prior


def write_meta_json(path: str, instance: SstmInstance) -> None:
    """Sidecar metadata of an instance: asdict(spec) in field order, seed, and the ground truth."""
    truth = [
        {
            "strength": sig.strength,
            "composition": list(sig.composition),
            "supports": [sorted(f.support_set()) for f in sig.factors],
        }
        for sig in instance.truth
    ]
    doc = dict(asdict(instance.spec), seed=instance.seed, truth=truth)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def read_truth_supports(path: str) -> list[frozenset[int]] | None:
    """Truth supports from a :func:`write_meta_json` sidecar, one per planted
    factor in planting order; None when the sidecar holds no truth (one written
    by other tools). A sidecar of any other shape raises ValueError naming the path."""
    with open(path) as f:
        meta = json.load(f)
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: sidecar must be a JSON object, got {type(meta).__name__}")
    if "truth" not in meta:
        return None
    if not isinstance(meta["truth"], list):
        raise ValueError(f'{path}: "truth" must be a list, got {type(meta["truth"]).__name__}')
    for sig in meta["truth"]:
        if not isinstance(sig, dict):
            raise ValueError(f"{path}: truth entry must be an object, got {type(sig).__name__}")
        supports = sig.get("supports")
        if not isinstance(supports, list) or not all(isinstance(sup, list) for sup in supports):
            raise ValueError(f'{path}: truth entry needs "supports", a list of index lists')
    return [frozenset(sup) for sig in meta["truth"] for sup in sig["supports"]]
