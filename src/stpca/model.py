"""Reproducible samplers for the sparse spiked tensor model.

Every sampler is a pure function of (parameters, seed). A single 64-bit
master seed derives labeled sub-streams via :func:`substream`, so tests can
regenerate any component (noise, supports, signs, magnitudes) independently.
`sample_sstm` serves every `SignalSpec` mode (flat, apx-flat, general) through
one loop over spikes and their factors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .tensor import DenseTensor, DenseUnitVector, add_rank1, check_capacity

MODES = ("flat", "apx-flat", "general")


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
    ell: int = 1  # distinct factors per spike, only used in "general" mode

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
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
        if self.mode == "general" and not 1 <= self.ell <= self.p:
            raise ValueError(f"need 1 <= ell <= p, got ell={self.ell}, p={self.p}")
        if self.mode == "general" and self.r != 1:
            raise ValueError(f"general mode plants one spike, got r={self.r}")
        disjoint_supports = self.r * self.k * (self.ell if self.mode == "general" else 1)
        if disjoint_supports > self.n:
            raise ValueError(
                f"disjoint supports infeasible: {disjoint_supports} indices > n={self.n}"
            )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "k": self.k,
            "A": self.A,
            "r": self.r,
            "strengths": list(self.strengths),
            "mode": self.mode,
            "ell": self.ell,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SignalSpec":
        return cls(
            n=d["n"], p=d["p"], k=d["k"], A=d.get("A", 1.0), r=d.get("r", 1),
            strengths=tuple(d.get("strengths", (1.0,))), mode=d.get("mode", "flat"),
            ell=d.get("ell", 1),
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


def sample_noise_tensor(n: int, p: int, seed: int) -> DenseTensor:
    """I.i.d. N(0,1) tensor from the "noise" sub-stream of `seed`."""
    size = check_capacity(n, p)
    rng = substream(seed, "noise")
    return DenseTensor._owned(n, p, rng.standard_normal(size))


def make_flat_signal(n: int, support, signs) -> DenseUnitVector:
    """k-sparse flat unit vector: entries +-1/sqrt(k) on support."""
    support = list(support)
    signs = list(signs)
    if len(set(support)) != len(support):
        raise ValueError("duplicate support indices")
    if len(signs) != len(support):
        raise ValueError("signs and support lengths differ")
    k = len(support)
    v = np.zeros(n)
    mag = 1.0 / np.sqrt(k)
    for i, s in zip(support, signs):
        if not 1 <= i <= n:
            raise ValueError(f"support index {i} out of range [1, {n}]")
        v[i - 1] = s * mag
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
    mags = substream(seed, "magnitudes").uniform(1.0 / (A * np.sqrt(k)), A / np.sqrt(k), size=k)
    signs = substream(seed, "signs").choice([-1.0, 1.0], size=k)
    v = np.zeros(n)
    v[support - 1] = signs * mags
    v /= np.linalg.norm(v)
    return DenseUnitVector(n, v), A * A


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
    n, p, k = spec.n, spec.p, spec.k
    ell = spec.ell if spec.mode == "general" else 1
    # uniform composition: choose ell-1 cut points among p-1 gaps; (p,) for ell=1
    cuts = np.sort(substream(seed, "composition").choice(p - 1, size=ell - 1, replace=False))
    bounds = [0, *(cuts + 1).tolist(), p]
    composition = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    Y = sample_noise_tensor(n, p, seed)
    supports = _disjoint_supports(n, [k] * (spec.r * ell), substream(seed, "supports"))
    sign_rng = substream(seed, "signs")
    signals: list[PlantedSignal] = []
    for q, lam in enumerate(spec.strengths):
        factors = []
        for support in supports[q * ell : (q + 1) * ell]:
            signs = sign_rng.choice([-1, 1], size=k)
            if spec.mode != "apx-flat":
                factors.append(make_flat_signal(n, support, signs))
                continue
            mags = substream(seed, "magnitudes", q).uniform(
                1.0 / (spec.A * np.sqrt(k)), spec.A / np.sqrt(k), size=k
            )
            v = np.zeros(n)
            v[support - 1] = signs * mags
            v /= np.linalg.norm(v)
            factors.append(DenseUnitVector(n, v))
        signal = PlantedSignal(lam, tuple(factors), composition)
        signals.append(signal)
        if lam != 0.0:
            Y = add_rank1(Y, lam, signal.mode_factors(p))
    return SstmInstance(Y, tuple(signals), seed, spec)


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
    Y = sample_noise_tensor(n, p, seed)
    if hypothesis == "H0":
        return Y, None
    prior = sample_rademacher_prior(n, k, seed)
    if lam != 0.0 and prior.realized_sparsity > 0:
        # x is not unit norm in general; scale a unit vector by ||x||
        norm = float(np.linalg.norm(prior.x))
        vec = DenseUnitVector(n, prior.x / norm)
        Y = add_rank1(Y, lam * norm**p, [vec] * p)
    return Y, prior


def write_meta_json(path: str, spec: SignalSpec, seed: int, instance: SstmInstance | None = None) -> None:
    """Sidecar metadata: SignalSpec fields, seed, and (if given) the ground truth."""
    doc = dict(spec.to_json_dict(), seed=seed)
    if instance is not None:
        doc["truth"] = [
            {
                "strength": sig.strength,
                "composition": list(sig.composition),
                "supports": [sorted(f.support_set()) for f in sig.factors],
            }
            for sig in instance.truth
        ]
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
