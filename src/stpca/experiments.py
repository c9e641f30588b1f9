"""Monte-Carlo experiment harness: phase diagrams and concentration checks.

Every trial seed is derived from the master seed, the cell index, and the
trial index, so sweeps are reproducible row-for-row regardless of worker
count or execution order. Each output layout has one statement: the phase
CSV rows are keyed by CSV_HEADER, and the concentration JSON follows the
ConcentrationReport fields.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

from .model import SignalSpec, _noise_data, sample_sstm, substream
from .recovery import (
    argmax_over_family,
    candidate_count,
    family_chunks,
    match_supports,
    recover_multi,
    threshold_lambda,
)
from .tensor import DenseTensor

CSV_HEADER = [
    "n", "p", "k", "r", "t", "lambda", "trial", "seed",
    "exact", "overlap", "argmax_value", "runtime_ms", "error",
]

# JSON key of each PhaseConfig field; a "_grid" field is a JSON list
_CONFIG_KEYS = {
    "n": "n_grid", "p": "p_grid", "k": "k_grid", "r": "r_grid", "t": "t_grid",
    "lambda": "lambda_grid", "trials": "trials", "seed": "master_seed",
    "lambda_mode": "lambda_mode", "noise_scale": "noise_scale",
    "record_runtime": "record_runtime",
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# (what, check) per typed PhaseConfig field; a grid's check applies to each member
_FIELD_TYPES = {
    **{name: ("ints", _is_int) for name in ("n_grid", "p_grid", "k_grid", "r_grid", "t_grid")},
    "lambda_grid": ("ints or floats", _is_number),
    "trials": ("an int", _is_int),
    "master_seed": ("an int", _is_int),
    "noise_scale": ("an int or a float", _is_number),
    "record_runtime": ("a bool", lambda value: isinstance(value, bool)),
}

CONCENTRATION_CANDIDATE_GUARD = 10**5
CONCENTRATION_PAIR_GUARD = 2 * 10**5
# terms the kept family holds, t^p per pinned member: 2^24 int64 + float64 rows = 256 MiB
CONCENTRATION_TERM_GUARD = 2**24


@dataclass(frozen=True)
class PhaseConfig:
    """Grid sweep over model/algorithm parameters.

    lambda_mode "absolute" takes lambdas as-is; "threshold-multiple" scales
    each lambda by the provable threshold of the cell (eps=1/2, kappa=5,
    delta=0.01). noise_scale multiplies the model noise W; at 0 the
    observation is the bare spike, but the split still adds its unit noise Z,
    so Y1 carries noise of variance 1/2. Each field's type is checked (bool is
    no number), so a config built in Python meets the checks a JSON one does.
    """

    n_grid: tuple[int, ...]
    p_grid: tuple[int, ...]
    k_grid: tuple[int, ...]
    r_grid: tuple[int, ...]
    t_grid: tuple[int, ...]
    lambda_grid: tuple[float, ...]
    trials: int
    master_seed: int
    lambda_mode: str = "absolute"
    noise_scale: float = 1.0
    # wall-clock timing is nondeterministic; disable it when byte-identical
    # CSVs across reruns or worker counts are required
    record_runtime: bool = True

    def __post_init__(self):
        for name, (what, check) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if name.endswith("_grid"):
                if not value:
                    raise ValueError(f"{name} must be nonempty")
                if not all(map(check, value)):
                    raise ValueError(f"{name} must hold {what}, got {list(value)!r}")
            elif not check(value):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.lambda_mode not in ("absolute", "threshold-multiple"):
            raise ValueError("lambda_mode must be 'absolute' or 'threshold-multiple'")
        if not 0 <= self.noise_scale < math.inf:
            raise ValueError(f"noise_scale must be finite and nonnegative, got {self.noise_scale}")

    def cells(self) -> list[tuple[int, int, int, int, int, float]]:
        return list(
            itertools.product(
                self.n_grid, self.p_grid, self.k_grid,
                self.r_grid, self.t_grid, self.lambda_grid,
            )
        )

    @classmethod
    def from_json_dict(cls, d: dict) -> "PhaseConfig":
        """Build from JSON keys; "r" defaults to [1]. A document that is not an
        object, a missing required key, an unknown key or a grid that is not a
        list raises ValueError naming it."""
        if not isinstance(d, dict):
            raise ValueError(f"phase config must be a JSON object, got {type(d).__name__}")
        for key in ("n", "p", "k", "t", "lambda", "trials", "seed"):
            if key not in d:
                raise ValueError(f"phase config is missing key '{key}'")
        kwargs = {"r_grid": (1,)}
        for key, value in d.items():
            name = _CONFIG_KEYS.get(key)
            if name is None:
                raise ValueError(f"unknown phase config key '{key}'")
            if name.endswith("_grid") and not isinstance(value, list):
                raise ValueError(f"phase config key '{key}' must be a list, got {value!r}")
            kwargs[name] = tuple(value) if name.endswith("_grid") else value
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path: str) -> "PhaseConfig":
        with open(path) as f:
            return cls.from_json_dict(json.load(f))


def trial_seed(master_seed: int, cell_index: int, trial: int) -> int:
    """Deterministic per-trial seed; independent of execution order."""
    return int(substream(master_seed, "trial", cell_index, trial).integers(2**62))


def _run_cell(config: PhaseConfig, cell_index: int, cell) -> list[dict]:
    """One row per trial, keyed by CSV_HEADER names; unset columns stay empty."""
    n, p, k, r, t, lam_raw = cell
    rows = []
    for trial in range(config.trials):
        seed = trial_seed(config.master_seed, cell_index, trial)
        # lambda stays empty when threshold_lambda refuses the cell
        row = {"n": n, "p": p, "k": k, "r": r, "t": t, "trial": trial, "seed": seed}
        try:
            lam = lam_raw
            if config.lambda_mode == "threshold-multiple":
                lam = lam_raw * threshold_lambda(n, k, p, t, r)[0]
            row["lambda"] = repr(float(lam))
            spec = SignalSpec(n=n, p=p, k=k, r=r, strengths=(float(lam),) * r)
            inst = sample_sstm(spec, seed)
            Y = inst.observation
            if config.noise_scale != 1.0:
                # Y + (scale - 1) * W, built in the buffer W is drawn into
                data = _noise_data(n, p, seed)
                data *= config.noise_scale - 1.0
                data += Y.data
                Y = DenseTensor._owned(n, p, data)
            start = time.perf_counter()
            recovered, values = recover_multi(Y, k, t, r, seed)
            runtime_ms = (time.perf_counter() - start) * 1000.0
            report = match_supports(recovered, inst.truth_supports(), values)
            row["exact"] = int(report.all_exact)
            row["overlap"] = repr(sum(report.overlap) / len(report.overlap))
            row["argmax_value"] = repr(values[0])
            if config.record_runtime:
                row["runtime_ms"] = repr(runtime_ms)
        except ValueError as exc:  # domain failures become rows, the sweep continues
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def run_phase_diagram(config: PhaseConfig, out_path: str, workers: int = 1) -> int:
    """Run the sweep and write one CSV row per (cell, trial). Returns row count.

    CSV_HEADER is the only statement of the columns: each row is a dict keyed
    by its names. Rows are buffered and written in deterministic cell/trial
    order, so the output is byte-identical for any worker count.
    """
    cells = config.cells()
    if workers > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_cell = list(
                pool.map(lambda ic: _run_cell(config, ic[0], ic[1]), enumerate(cells))
            )
    else:
        per_cell = [_run_cell(config, i, c) for i, c in enumerate(cells)]
    rows = [row for cell_rows in per_cell for row in cell_rows]
    with open(out_path, "w", newline="") as f:
        writer = csv.DictWriter(f, CSV_HEADER, restval="")
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)


def concentration_bound(n: int, p: int, t: int, r: int, gamma: float) -> float:
    """High-probability bound on max_u |<W, u_1 x ... x u_p>| over the family."""
    if not 0 < gamma < 1:
        raise ValueError("gamma must be in (0, 1)")
    return math.sqrt(8 * (4 * r * t * math.log(n * p / t) + math.log(1 / gamma)))


@dataclass
class ConcentrationReport:
    n: int
    p: int
    t: int
    r: int
    gamma: float
    trials: int
    bound: float
    per_trial_max: list[float] = field(repr=False)
    failure_fraction: float = 0.0

    def to_json_dict(self) -> dict:
        """The fields in order, with per_trial_max reduced to max_over_trials."""
        doc = asdict(self)
        doc["max_over_trials"] = max(doc.pop("per_trial_max"))
        return doc


def check_concentration(
    n: int,
    p: int,
    t: int,
    r: int,
    gamma: float,
    trials: int,
    seed: int,
) -> ConcentrationReport:
    """Exhaustive per-trial max of |<W, candidates>| against the theory bound.

    r=1 scans U_t; r=2 scans ordered disjoint candidate pairs across all mode
    compositions. Reports the fraction of trials whose max exceeds the bound
    (theory says at most 2*gamma per trial). Before the family is built, its
    member count must be within the r=1 or r=2 member guard. The kept family,
    one pinned member of t^p terms per sign class, must hold at most
    CONCENTRATION_TERM_GUARD terms: they are counted as the rows are built,
    and a family that exceeds the guard even halved once per possible odd part
    is refused before the build.
    """
    if r not in (1, 2):
        raise ValueError("r must be 1 or 2 at desk scale")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    size = candidate_count(n, t, 0, p, r)
    guard = CONCENTRATION_CANDIDATE_GUARD if r == 1 else CONCENTRATION_PAIR_GUARD
    if size > guard:
        raise ValueError(f"candidate family of {size} members exceeds feasibility guard {guard}")

    def check_terms(terms: int) -> None:
        if terms > CONCENTRATION_TERM_GUARD:
            raise ValueError(
                f"candidate family of {size} members keeps at least {terms} terms "
                f"({t**p} terms per kept member), over feasibility guard {CONCENTRATION_TERM_GUARD}"
            )

    # before any chunk is allocated, refuse what the kept family must exceed: a kept
    # member stands for 2^(its odd parts) members of the full family, and a
    # composition of p into r parts has at most r - (p - r) % 2 odd parts
    check_terms(size * t**p >> r - (p - r) % 2)
    bound = concentration_bound(n, p, t, r, gamma)
    # one family, kept and scored against every trial's noise tensor
    family, terms = [], 0
    for chunk in family_chunks(n, p, t, r):
        terms += chunk[1].size
        check_terms(terms)
        family.append(chunk)
    per_trial_max = []
    for trial in range(trials):
        W = _noise_data(n, p, trial_seed(seed, 0, trial))
        # max |<W, u>| over the family is the larger of its maxima against W and -W;
        # at odd p every composition has an odd part, so the family holds -u beside u
        top = argmax_over_family(W, family)[0]
        if p % 2 == 0:
            W *= -1.0
            top = max(top, argmax_over_family(W, family)[0])
        per_trial_max.append(top)
    failures = sum(1 for v in per_trial_max if v > bound)
    return ConcentrationReport(
        n, p, t, r, gamma, trials, bound, per_trial_max, failures / trials
    )


def estimate_phase_boundary(
    n: int,
    p: int,
    k: int,
    t: int,
    seed: int,
    trials: int = 20,
    steps: int = 8,
) -> dict:
    """Bisect the success curve over lambda = c * sqrt(k^p ln n).

    Calibration output only: returns the multiple c at which exact recovery
    crosses a 50% success rate, with the bracketing rates.
    """
    unit = math.sqrt(k**p * math.log(n))

    def success_rate(c: float, label: int) -> float:
        wins = 0
        for trial in range(trials):
            s = trial_seed(seed, label, trial)
            spec = SignalSpec(n=n, p=p, k=k, strengths=(c * unit,))
            inst = sample_sstm(spec, s)
            recovered, _ = recover_multi(inst.observation, k, t, 1, s)
            wins += recovered[0] == inst.truth_supports()[0]
        return wins / trials

    lo, hi = 0.0, 1.0
    label = 1
    hi_rate = success_rate(hi, label)
    while hi_rate < 0.5 and hi < 1024:
        lo, hi = hi, hi * 2
        label += 1
        hi_rate = success_rate(hi, label)
    lo_rate = success_rate(lo, 0) if lo > 0 else 0.0
    for _ in range(steps):
        mid = (lo + hi) / 2
        label += 1
        rate = success_rate(mid, label)
        if rate >= 0.5:
            hi, hi_rate = mid, rate
        else:
            lo, lo_rate = mid, rate
    return {
        "unit": unit,
        "boundary_multiple": hi,
        "boundary_lambda": hi * unit,
        "rate_below": lo_rate,
        "rate_at": hi_rate,
    }
