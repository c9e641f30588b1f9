"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines live).
"""

import math
import time
import warnings
from fractions import Fraction

import numpy as np

from stpca.experiments import (
    PhaseConfig,
    check_concentration,
    estimate_phase_boundary,
    run_phase_diagram,
)
from stpca.infotheory import (
    covering_number_oracle,
    kl_upper_bound,
    minimax_lambda,
    packing_lower_bound_log,
    risk_constant,
)
from stpca.lowdeg import (
    LowDegParams,
    chi_squared_exact,
    chi_squared_oracle,
    degree_term,
    lower_bound_lambda,
    upper_bound_lambda,
)
from stpca.model import SignalSpec, sample_general_instance, sample_noise_tensor, sample_sstm
from stpca.recovery import (
    argmax_over_Ut,
    match_supports,
    preprocess_split,
    recover_general,
    recover_multi,
    recover_single,
    threshold_lambda,
    threshold_lambda_general,
)
from stpca.tensor import DenseTensor

GRID = [
    (n, k, D, lam)
    for n in (2, 3)
    for k in (1, 2)
    for D in (1, 2, 3)
    for lam in (0.5, 1.0, 2.0)
    if k <= n
]


def verdict(name, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_01_counting_worked_example():
    start = time.perf_counter()
    value = degree_term(2, 1, 2, 3)
    closed_form = Fraction(1, 3) * Fraction(1, 2) ** 2 + 5 * Fraction(1, 2) ** 4
    elapsed = time.perf_counter() - start
    verdict(
        "1 counting worked example d=3 term",
        value == Fraction(19, 48) == closed_form and elapsed < 1.0,
        f"value={value}, {elapsed * 1000:.1f} ms",
    )


def test_02_oracle_equivalence_grid():
    start = time.perf_counter()
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n, k, D, lam in GRID:
            params = LowDegParams(n=n, k=k, p=2, D=D, lam=lam)
            ok &= chi_squared_exact(params).total == chi_squared_oracle(params)
        params = LowDegParams(n=2, k=1, p=3, D=2, lam=1.0)
        ok &= chi_squared_exact(params).total == chi_squared_oracle(params)
    elapsed = time.perf_counter() - start
    verdict(
        "2 formula/oracle exact equality on the small grid",
        ok and elapsed < 30.0,
        f"{len(GRID) + 1} instances, {elapsed:.2f} s",
    )


def test_03_threshold_consistency_sweeps():
    start = time.perf_counter()
    quiet_ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n, k, D, _ in GRID:
            lam = lower_bound_lambda(n, k, 2, D, 0.25)
            total = chi_squared_exact(LowDegParams(n=n, k=k, p=2, D=D, lam=lam)).total
            quiet_ok &= total <= 0.5
        loud_ok = True
        for n, k in ((2, 1), (2, 2), (3, 1), (3, 2)):
            report = upper_bound_lambda(n, k, 2, 2, 1.0)
            loud_ok &= report.regime1_valid
            total = chi_squared_exact(
                LowDegParams(n=n, k=k, p=2, D=2, lam=report.regime1_lambda)
            ).total
            loud_ok &= total >= 1.0
    elapsed = time.perf_counter() - start
    verdict(
        "3 quiet-side chi2 <= 2eps and loud-side chi2 >= eps",
        quiet_ok and loud_ok and elapsed < 30.0,
        f"{elapsed:.2f} s",
    )


def test_04_single_spike_recovery():
    n, p, k, t = 60, 3, 6, 1
    lam, valid = threshold_lambda(n, k, p, t, r=1, A=1.0, eps=0.5, kappa=5.0, delta=0.01)
    start = time.perf_counter()
    wins = 0
    for seed in range(100):
        inst = sample_sstm(SignalSpec(n=n, p=p, k=k, strengths=(lam,)), seed)
        rec, _ = recover_single(inst.observation, k, t, seed)
        wins += rec == inst.truth_supports()[0]
    elapsed = time.perf_counter() - start
    boundary = estimate_phase_boundary(n, p, k, t, seed=424242, trials=20, steps=8)
    print(
        "    calibration: empirical boundary lambda ~= "
        f"{boundary['boundary_lambda']:.1f} "
        f"({boundary['boundary_multiple']:.3g} x sqrt(k^p ln n); "
        f"provable threshold {lam:.3g})"
    )
    verdict(
        "4 single-spike exact recovery at the provable threshold",
        valid and wins >= 95 and elapsed < 300.0,
        f"{wins}/100 exact, {elapsed:.1f} s",
    )


def test_05_multi_spike_recovery():
    n, p, k, r, t = 60, 3, 4, 2, 1
    lam, valid = threshold_lambda(n, k, p, t, r=r, A=1.0, eps=0.5, kappa=5.0, delta=0.01)
    start = time.perf_counter()
    wins = 0
    for seed in range(100):
        inst = sample_sstm(SignalSpec(n=n, p=p, k=k, r=r, strengths=(lam, lam)), seed)
        rec, _ = recover_multi(inst.observation, k, t, r, seed)
        report = match_supports(rec, inst.truth_supports())
        wins += report.all_exact
    elapsed = time.perf_counter() - start
    verdict(
        "5 multi-spike exact recovery of both supports",
        valid and wins >= 95 and elapsed < 300.0,
        f"{wins}/100 both exact, {elapsed:.1f} s",
    )


def test_06_general_tensor_recovery():
    n, p, k, ell, t = 30, 3, 4, 2, 1
    lam, valid = threshold_lambda_general(n, k, p, t, ell)
    start = time.perf_counter()
    wins = 0
    for seed in range(100):
        inst = sample_general_instance(n, p, k, ell, lam, seed)
        rec, _ = recover_general(inst.observation, k, t, ell, seed)
        report = match_supports(rec, inst.truth_supports())
        wins += report.all_exact
    elapsed = time.perf_counter() - start
    verdict(
        "6 general-tensor recovery of all factor supports",
        valid and wins >= 90 and elapsed < 300.0,
        f"{wins}/100 all exact, {elapsed:.1f} s",
    )


def test_07_preprocessing_identity_and_independence():
    rng = np.random.default_rng(7)
    identity_ok = True
    for seed in range(20):
        Y = DenseTensor(5, 3, rng.standard_normal(125))
        Y1, Y2 = preprocess_split(Y, seed)
        back = DenseTensor(5, 3, (Y1.data + Y2.block(np.ix_(*[np.arange(5)] * 3)).ravel())
                           / np.sqrt(2))
        identity_ok &= np.max(np.abs(back.data - Y.data)) <= 1e-12
    Y = sample_noise_tensor(10, 5, 3)  # exactly 1e5 entries
    Y1, Y2 = preprocess_split(Y, 3)
    corr = float(np.corrcoef(Y1.data, Y2.block(np.ix_(*[np.arange(10)] * 5)).ravel())[0, 1])
    corr_ok = abs(corr) <= 4 / math.sqrt(1e5)
    verdict(
        "7 split reconstruction identity and half decorrelation",
        identity_ok and corr_ok,
        f"corr={corr:+.5f}, bound={4 / math.sqrt(1e5):.5f}",
    )


def test_08_noise_concentration_monte_carlo():
    start = time.perf_counter()
    report = check_concentration(n=30, p=3, t=2, r=1, gamma=0.05, trials=200, seed=8)
    elapsed = time.perf_counter() - start
    verdict(
        "8 exhaustive noise maximum vs concentration bound",
        report.failure_fraction <= 0.2 and elapsed < 300.0,
        f"failure fraction {report.failure_fraction:.3f}, "
        f"max {max(report.per_trial_max):.2f} vs bound {report.bound:.2f}, "
        f"{elapsed:.1f} s",
    )


def test_09_info_theory_formulas():
    mm_ok = abs(minimax_lambda(100, 10) - math.sqrt(10 / 12 * math.log(9) - 0.5)) <= 1e-12
    kl_ok = kl_upper_bound(2.0) == 8.0 and kl_upper_bound(0.0) == 0.0
    packing = math.exp(packing_lower_bound_log(4, 1, 1.0))
    cover_l2 = covering_number_oracle(4, 1, 1.0, metric="l2")
    packing_ok = abs(packing - math.sqrt(3)) <= 1e-9 and packing <= cover_l2
    risk = risk_constant()
    risk_ok = risk == Fraction(7, 80) and float(risk) == 0.0875 and risk > Fraction(1, 12)
    verdict(
        "9 information-theoretic formulas and covering oracle",
        mm_ok and kl_ok and packing_ok and risk_ok,
        f"packing bound {packing:.3f} <= covering number {cover_l2}, risk {float(risk)}",
    )


def test_10_determinism_under_parallelism(tmp_path):
    rng = np.random.default_rng(10)
    Y = DenseTensor(8, 3, rng.standard_normal(512))
    v1, val1 = argmax_over_Ut(Y, 2, frozenset(), workers=1, chunk_size=17)
    v8, val8 = argmax_over_Ut(Y, 2, frozenset(), workers=8, chunk_size=17)
    argmax_ok = (v1.support, v1.signs) == (v8.support, v8.signs) and val1 == val8
    config = PhaseConfig(
        n_grid=(8, 10), p_grid=(3,), k_grid=(2,), r_grid=(1,), t_grid=(1,),
        lambda_grid=(0.0, 60.0), trials=3, master_seed=10, record_runtime=False,
    )
    path1, path8 = str(tmp_path / "w1.csv"), str(tmp_path / "w8.csv")
    run_phase_diagram(config, path1, workers=1)
    run_phase_diagram(config, path8, workers=8)
    csv_ok = open(path1, "rb").read() == open(path8, "rb").read()
    verdict(
        "10 identical results with 1 and 8 workers",
        argmax_ok and csv_ok,
        "argmax and phase CSV byte-identical",
    )
