import csv
import math

import pytest

from stpca import experiments
from stpca.experiments import (
    CSV_HEADER,
    ConcentrationReport,
    PhaseConfig,
    check_concentration,
    concentration_bound,
    run_phase_diagram,
    trial_seed,
)
from stpca.model import SignalSpec, sample_noise_tensor, sample_sstm
from stpca.recovery import recover_multi, threshold_lambda
from stpca.tensor import CapacityError, DenseTensor


def small_config(**overrides):
    base = dict(
        n_grid=(10,), p_grid=(3,), k_grid=(3,), r_grid=(1,), t_grid=(1,),
        lambda_grid=(0.0,), trials=10, master_seed=123,
    )
    base.update(overrides)
    return PhaseConfig(**base)


def read_rows(path):
    with open(path) as f:
        return list(csv.DictReader(f))


class TestPhaseDiagram:
    def test_null_cell_rarely_exact(self, tmp_path):
        out = str(tmp_path / "null.csv")
        count = run_phase_diagram(small_config(), out)
        rows = read_rows(out)
        assert count == len(rows) == 10
        false_positives = sum(int(r["exact"]) for r in rows)
        assert false_positives <= 2

    def test_noise_free_strong_signal_exact(self, tmp_path):
        # the preprocessing split adds its own unit noise even at noise
        # scale 0, so lambda must sit comfortably above it
        out = str(tmp_path / "strong.csv")
        run_phase_diagram(small_config(lambda_grid=(500.0,), noise_scale=0.0), out)
        assert all(int(r["exact"]) == 1 for r in read_rows(out))

    def test_scaled_noise_cell_matches_reference(self, tmp_path):
        # a cell at noise_scale 0.5 recovers from Y + (0.5 - 1) * W, bit for bit
        out = str(tmp_path / "half.csv")
        config = small_config(lambda_grid=(8.0,), trials=3, noise_scale=0.5)
        run_phase_diagram(config, out)
        for row in read_rows(out):
            seed = int(row["seed"])
            spec = SignalSpec(n=10, p=3, k=3, r=1, strengths=(8.0,))
            Y = sample_sstm(spec, seed).observation
            W = sample_noise_tensor(10, 3, seed)
            ref = DenseTensor(10, 3, Y.data + (0.5 - 1.0) * W.data)
            _, values = recover_multi(ref, 3, 1, 1, seed)
            assert row["argmax_value"] == repr(values[0])

    def test_header_schema(self, tmp_path):
        out = str(tmp_path / "schema.csv")
        run_phase_diagram(small_config(trials=1), out)
        with open(out) as f:
            header = f.readline().strip().split(",")
        assert header == CSV_HEADER == [
            "n", "p", "k", "r", "t", "lambda", "trial", "seed",
            "exact", "overlap", "argmax_value", "runtime_ms", "error",
        ]

    def test_rerun_identical_without_timing_noise(self, tmp_path):
        config = small_config(trials=3)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_phase_diagram(config, a)
        run_phase_diagram(config, b)
        stable_cols = [c for c in CSV_HEADER if c != "runtime_ms"]
        rows_a = [[r[c] for c in stable_cols] for r in read_rows(a)]
        rows_b = [[r[c] for c in stable_cols] for r in read_rows(b)]
        assert rows_a == rows_b

    def test_worker_counts_agree(self, tmp_path):
        config = small_config(trials=2, lambda_grid=(0.0, 50.0), n_grid=(8, 10))
        a, b = str(tmp_path / "w1.csv"), str(tmp_path / "w8.csv")
        run_phase_diagram(config, a, workers=1)
        run_phase_diagram(config, b, workers=8)
        stable_cols = [c for c in CSV_HEADER if c != "runtime_ms"]
        rows_a = [[r[c] for c in stable_cols] for r in read_rows(a)]
        rows_b = [[r[c] for c in stable_cols] for r in read_rows(b)]
        assert rows_a == rows_b

    def test_cell_error_recorded_run_continues(self, tmp_path):
        # t > k is invalid in that cell; the sweep must still finish
        config = small_config(t_grid=(1, 5), trials=2)
        out = str(tmp_path / "err.csv")
        count = run_phase_diagram(config, out)
        rows = read_rows(out)
        assert count == 4
        bad = [r for r in rows if r["t"] == "5"]
        assert len(bad) == 2
        assert all(r["error"] for r in bad)
        good = [r for r in rows if r["t"] == "1"]
        assert all(not r["error"] for r in good)

    @pytest.mark.parametrize("field, value", [
        ("trials", True), ("k_grid", (2.0,)), ("lambda_grid", (False,)),
        ("noise_scale", None), ("noise_scale", math.nan), ("noise_scale", math.inf),
        ("record_runtime", 1),
    ], ids=["bool-trials", "float-k", "bool-lambda", "none-noise-scale", "nan-noise-scale",
            "inf-noise-scale", "int-record-runtime"])
    def test_config_built_in_python_is_checked(self, field, value):
        # a NaN noise_scale once ran, and reported exact recovery with a nan argmax value
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value})

    def test_row_layout(self, tmp_path):
        # t=5 > k=3: threshold_lambda refuses the cell, so lambda stays empty
        # and only the error column is filled; runtime off leaves it empty
        config = small_config(
            t_grid=(1, 5), lambda_grid=(2.0,), trials=1,
            lambda_mode="threshold-multiple", record_runtime=False,
        )
        out = str(tmp_path / "layout.csv")
        run_phase_diagram(config, out)
        with open(out) as f:
            good, bad = f.read().splitlines()[1:]
        lam = 2.0 * threshold_lambda(10, 3, 3, 1)[0]
        assert good.startswith(f"10,3,3,1,1,{lam!r},0,{trial_seed(123, 0, 0)},")
        assert good.endswith(",,")
        assert bad == (
            f"10,3,3,1,5,,0,{trial_seed(123, 1, 0)},,,,,"
            '"ValueError: need 1 <= t <= k, got t=5, k=3"'
        )

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        # only domain errors (ValueError) become error rows; a bug must not
        def broken(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(experiments, "recover_multi", broken)
        out = str(tmp_path / "bug.csv")
        with pytest.raises(TypeError):
            run_phase_diagram(small_config(trials=1), out)

    def test_trial_seed_deterministic(self):
        assert trial_seed(1, 2, 3) == trial_seed(1, 2, 3)
        assert trial_seed(1, 2, 3) != trial_seed(1, 2, 4)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(trials=0)
        with pytest.raises(ValueError):
            small_config(lambda_mode="bogus")


class TestConcentration:
    def test_bound_formula(self):
        expected = math.sqrt(8 * (4 * 1 * 2 * math.log(30 * 3 / 2) + math.log(1 / 0.05)))
        assert concentration_bound(30, 3, 2, 1, 0.05) == pytest.approx(expected, rel=1e-12)

    def test_bound_monotone_in_t_and_r(self):
        for t in (1, 2, 3):
            assert concentration_bound(30, 3, t, 1, 0.05) < concentration_bound(
                30, 3, t + 1, 1, 0.05
            )
        assert concentration_bound(30, 3, 2, 1, 0.05) < concentration_bound(30, 3, 2, 2, 0.05)

    def test_small_run_under_bound(self):
        report = check_concentration(15, 3, 2, 1, 0.05, 20, 7)
        assert isinstance(report, ConcentrationReport)
        assert len(report.per_trial_max) == 20
        assert report.failure_fraction <= 0.2

    def test_pair_family_r2(self):
        report = check_concentration(8, 3, 1, 2, 0.05, 5, 11)
        assert report.failure_fraction <= 0.4
        assert max(report.per_trial_max) < report.bound

    def test_feasibility_guard(self):
        with pytest.raises(ValueError):
            check_concentration(100, 3, 5, 1, 0.05, 1, 0)
        with pytest.raises(ValueError):
            check_concentration(10, 3, 1, 3, 0.05, 1, 0)

    def test_guard_reads_exact_even_p_size(self, monkeypatch):
        # n=6, p=2, t=2: C(6,2) supports x 2 signs (the first pinned) = 30 members
        monkeypatch.setattr(experiments, "CONCENTRATION_CANDIDATE_GUARD", 30)
        assert len(check_concentration(6, 2, 2, 1, 0.05, 1, 0).per_trial_max) == 1
        monkeypatch.setattr(experiments, "CONCENTRATION_CANDIDATE_GUARD", 29)
        with pytest.raises(ValueError, match="30 members"):
            check_concentration(6, 2, 2, 1, 0.05, 1, 0)

    @staticmethod
    def _forbid_build(monkeypatch):
        def family_chunks(*args, **kwargs):
            raise AssertionError("the family must not be built")

        monkeypatch.setattr(experiments, "family_chunks", family_chunks)

    def test_pair_guard_refuses_before_build(self, monkeypatch):
        self._forbid_build(monkeypatch)
        # 1,740 U_t candidates, but 2 x 435 x 378 x 8 = 2,630,880 ordered pairs
        with pytest.raises(ValueError, match="2630880 members"):
            check_concentration(30, 3, 2, 2, 0.05, 1, 0)

    @pytest.mark.parametrize("n, p, t", [(12, 7, 6), (17, 6, 5), (22, 6, 4), (24, 4, 4)])
    def test_term_guard_refuses_before_build(self, monkeypatch, n, p, t):
        # each family is within its member guard, but holds t^p terms per member
        self._forbid_build(monkeypatch)
        with pytest.raises(ValueError, match=f"{t**p} terms"):
            check_concentration(n, p, t, 1, 0.05, 1, 0)

    def test_term_guard_admits_n22_p4_t4(self, monkeypatch):
        # n=22, p=4, t=4: 58,520 members x 256 terms = 14,981,120 <= 2^24
        self._forbid_build(monkeypatch)
        with pytest.raises(AssertionError, match="must not be built"):
            check_concentration(22, 4, 4, 1, 0.05, 1, 0)

    def test_term_guard_counts_kept_rows(self, monkeypatch):
        # n=6, p=3, t=2: 60 members, one kept per sign class: 30 x 8 = 240 terms;
        # the full family's 480 terms were once charged against the guard
        monkeypatch.setattr(experiments, "CONCENTRATION_TERM_GUARD", 300)
        assert len(check_concentration(6, 3, 2, 1, 0.05, 1, 0).per_trial_max) == 1
        monkeypatch.setattr(experiments, "CONCENTRATION_TERM_GUARD", 200)
        with pytest.raises(ValueError, match="at least 240 terms"):
            check_concentration(6, 3, 2, 1, 0.05, 1, 0)

    def test_term_guard_counts_rows_as_built(self, monkeypatch):
        # n=6, p=4, t=2, r=2: 3,240 pairs x 16 terms = 51,840; the 1,080 kept pairs
        # hold 17,280, above the 12,960 that halving twice per pair gives, so the
        # rows built decide
        monkeypatch.setattr(experiments, "CONCENTRATION_TERM_GUARD", 17280)
        assert len(check_concentration(6, 4, 2, 2, 0.05, 1, 0).per_trial_max) == 1
        monkeypatch.setattr(experiments, "CONCENTRATION_TERM_GUARD", 17279)
        with pytest.raises(ValueError, match="at least 17280 terms"):
            check_concentration(6, 4, 2, 2, 0.05, 1, 0)

    def test_capacity_checked_before_noise(self):
        # 2000^3 entries: the family is small, the noise tensor is over the cap
        with pytest.raises(CapacityError):
            check_concentration(2000, 3, 1, 1, 0.05, 1, 0)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1.5])
    def test_gamma_checked_before_build(self, monkeypatch, gamma):
        self._forbid_build(monkeypatch)
        with pytest.raises(ValueError, match="gamma"):
            check_concentration(6, 3, 1, 1, gamma, 1, 0)
