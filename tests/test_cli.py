import json

import numpy as np
import pytest

from stpca import lowdeg
from stpca.cli import main
from stpca.tensor import DenseTensor, write_sstf1


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["lowdeg", "--n", "2", "--bogus", "1"])
        assert exc.value.code == 1

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_runtime_error_is_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "recover", "--in", "/nonexistent.sstf",
            "--k", "2", "--t", "1", "--seed", "0",
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("workers", ["0", "-2", "abc"])
    @pytest.mark.parametrize("argv", [
        ["recover", "--in", "y.sstf", "--k", "2", "--t", "1", "--seed", "0"],
        ["phase", "--config", "cfg.json", "--out", "sweep.csv"],
    ])
    def test_bad_worker_count_is_usage_error(self, capsys, argv, workers):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", workers])
        assert exc.value.code == 1
        assert "--workers" in capsys.readouterr().err


class TestSampleRecover:
    def test_end_to_end_exact(self, tmp_path, capsys):
        path = str(tmp_path / "y.sstf")
        code, _, _ = run_cli(
            capsys, "sample", "--n", "20", "--p", "3", "--k", "4",
            "--lambda", "50", "--seed", "7", "--out", path,
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "recover", "--in", path, "--k", "4", "--t", "1", "--seed", "7",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["recovered"]) == 1 and len(doc["recovered"][0]) == 4
        meta = json.load(open(path + ".meta.json"))
        assert doc["recovered"][0] == sorted(meta["truth"][0]["supports"][0])
        assert doc["exact"] == [True]

    def test_multi_spike_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "multi.sstf")
        code, _, _ = run_cli(
            capsys, "sample", "--n", "20", "--p", "3", "--k", "3", "--r", "2",
            "--lambda", "80", "60", "--seed", "9", "--out", path,
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "recover", "--in", path, "--k", "3", "--t", "1",
            "--r", "2", "--seed", "9",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] == [True, True]

    def test_general_mode_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "gen.sstf")
        code, _, _ = run_cli(
            capsys, "sample", "--n", "15", "--p", "3", "--k", "3",
            "--mode", "general", "--ell", "2", "--lambda", "200",
            "--seed", "4", "--out", path,
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "recover", "--in", path, "--k", "3", "--t", "1",
            "--ell", "2", "--seed", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] == [True, True]


    def test_general_mode_rejects_several_spikes(self, tmp_path, capsys):
        path = tmp_path / "gen.sstf"
        code, _, err = run_cli(
            capsys, "sample", "--n", "15", "--p", "3", "--k", "3", "--r", "2",
            "--mode", "general", "--ell", "2", "--lambda", "200",
            "--seed", "4", "--out", str(path),
        )
        assert code == 2
        assert "r=2" in err
        assert list(tmp_path.iterdir()) == []

    def test_one_lambda_is_shared_by_every_spike(self, tmp_path, capsys):
        path = str(tmp_path / "multi.sstf")
        code, _, _ = run_cli(
            capsys, "sample", "--n", "20", "--p", "3", "--k", "3", "--r", "3",
            "--lambda", "50", "--seed", "9", "--out", path,
        )
        assert code == 0
        meta = json.load(open(path + ".meta.json"))
        assert meta["strengths"] == [50.0, 50.0, 50.0]

    def test_lambda_count_must_match_r(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--n", "20", "--p", "3", "--k", "3", "--r", "3",
            "--lambda", "50", "60", "--seed", "9", "--out", str(tmp_path / "y.sstf"),
        )
        assert code == 2
        assert "r=3 and 2 strengths" in err
        assert list(tmp_path.iterdir()) == []


class TestLowdegCommand:
    def test_worked_example_in_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "lowdeg", "--n", "2", "--k", "1", "--p", "2",
            "--D", "3", "--lambda", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["per_degree"]["3"] == pytest.approx(19 / 48, rel=1e-12)
        assert doc["chi2"] == pytest.approx(sum(doc["per_degree"].values()), rel=1e-12)
        assert "lower_threshold" in doc and "upper_thresholds" in doc

    @pytest.mark.parametrize("D, in_range, err_text", [
        ("3", False, "stpca: warning: D=3 exceeds 2n/p=2\n"),
        ("2", True, ""),
    ])
    def test_out_of_range_D_warns_once(self, capsys, D, in_range, err_text):
        # lower_bound_lambda and chi_squared_exact both flag D > 2n/p
        code, out, err = run_cli(
            capsys, "lowdeg", "--n", "2", "--k", "1", "--p", "2",
            "--D", D, "--lambda", "1",
        )
        assert code == 0
        assert err == err_text
        assert json.loads(out)["d_le_2n_over_p"] is in_range

    @pytest.mark.parametrize("eps, code, message", [
        ("0", 2, "eps must be positive"),
        ("0.6", 2, "eps must be in [0, 1/2]"),
        ("-1", 2, "eps must be in [0, 1/2]"),
        ("0.5", 0, ""),
    ])
    def test_eps_exit_codes(self, capsys, eps, code, message):
        got, _, err = run_cli(
            capsys, "lowdeg", "--n", "6", "--k", "2", "--p", "2",
            "--D", "2", "--lambda", "1", "--eps", eps,
        )
        assert got == code
        assert message in err

    @pytest.mark.parametrize("eps", ["0", "0.6", "-1"])
    def test_bad_eps_refused_before_sum(self, capsys, monkeypatch, eps):
        def chi_squared_exact(*args, **kwargs):
            raise AssertionError("the chi-squared sum must not run")

        monkeypatch.setattr(lowdeg, "chi_squared_exact", chi_squared_exact)
        code, _, err = run_cli(
            capsys, "lowdeg", "--n", "6", "--k", "2", "--p", "2",
            "--D", "2", "--lambda", "1", "--eps", eps,
        )
        assert code == 2, err


class TestItboundCommand:
    def test_minimax_value(self, capsys):
        code, out, _ = run_cli(capsys, "itbound", "--n", "100", "--k", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["minimax_lambda"] == pytest.approx(1.154, abs=1e-3)

    @pytest.mark.parametrize("n, k", [("100", "10"), ("3", "2")])
    def test_key_order(self, capsys, n, k):
        code, out, _ = run_cli(capsys, "itbound", "--n", n, "--k", k)
        assert code == 0
        assert list(json.loads(out)) == [
            "minimax_lambda", "packing_log_lower", "kl_upper", "notes",
        ]

    def test_oracle_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "itbound", "--n", "4", "--k", "1", "--eps", "1.0", "--oracle",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["covering_number"] == {"l2": 8, "rho": 4}

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_is_runtime_error(self, capsys, lam):
        # once printed "kl_upper": NaN or Infinity, which is not JSON, and exited 0
        code, out, err = run_cli(capsys, "itbound", "--n", "100", "--k", "10", "--lambda", lam)
        assert code == 2
        assert out == ""
        assert "lam must be finite" in err


class TestPhaseCommand:
    def test_sweep_to_csv(self, tmp_path, capsys):
        config = {
            "n": [8], "p": [3], "k": [2], "t": [1],
            "lambda": [0.0, 100.0], "trials": 2, "seed": 5,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_path = str(tmp_path / "sweep.csv")
        code, out, _ = run_cli(
            capsys, "phase", "--config", str(cfg_path), "--out", out_path,
        )
        assert code == 0
        assert "4 rows" in out
        lines = open(out_path).read().strip().splitlines()
        assert len(lines) == 5


class TestConcentrationCommand:
    def test_report_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-concentration", "--n", "10", "--p", "3",
            "--t", "1", "--trials", "5", "--seed", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["failure_fraction"] <= 0.4
        assert doc["bound"] > 0
        assert list(doc) == [
            "n", "p", "t", "r", "gamma", "trials", "bound",
            "failure_fraction", "max_over_trials",
        ]

    def test_even_p_family_within_guard(self, capsys):
        # 58,520 members (the first sign pinned at even p); once refused as 117,040
        code, out, err = run_cli(
            capsys, "check-concentration", "--n", "22", "--p", "2",
            "--t", "4", "--trials", "1", "--seed", "0",
        )
        assert code == 0, err
        assert json.loads(out)["trials"] == 1


class TestMalformedInput:
    @pytest.fixture
    def sstf(self, tmp_path):
        path = tmp_path / "y.sstf"
        write_sstf1(DenseTensor.zeros(4, 3), str(path))
        return path

    @pytest.mark.parametrize(
        "damage",
        [lambda raw: raw[:10], lambda raw: raw[:-8], lambda raw: raw + b"\0"],
        ids=["truncated-header", "truncated-payload", "trailing-bytes"],
    )
    def test_runtime_error_exit_2(self, sstf, capsys, damage):
        sstf.write_bytes(damage(sstf.read_bytes()))
        code, out, err = run_cli(
            capsys, "recover", "--in", str(sstf), "--k", "2", "--t", "1", "--seed", "0",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("stpca: error:")


class TestRejectedInput:
    """Malformed flags and files exit 2 with a message, never a traceback."""

    @pytest.fixture
    def workdir(self, tmp_path):
        sidecars = {
            "no-supports": {"truth": [{"strength": 1.0, "composition": [3]}]},
            "scalar-truth": {"truth": 5},
            "scalar-truth-entry": {"truth": [5]},
            "scalar-supports": {"truth": [{"supports": [5]}]},
        }
        for name in ("y", *sidecars):
            write_sstf1(DenseTensor.zeros(6, 3), str(tmp_path / f"{name}.sstf"))
        for name, doc in sidecars.items():
            (tmp_path / f"{name}.sstf.meta.json").write_text(json.dumps(doc))
        config = {"n": [8], "p": [3], "k": [2], "t": [1], "lambda": [1.0], "trials": 1, "seed": 5}
        configs = {
            "missing-key.json": {key: v for key, v in config.items() if key != "t"},
            "scalar-grid.json": dict(config, n=10),
            "unknown-key.json": dict(config, lamda_mode="threshold-multiple"),
            "scalar-config.json": 5,
        }
        for name, doc in configs.items():
            (tmp_path / name).write_text(json.dumps(doc))
        return tmp_path

    RECOVER = ["recover", "--in", "{d}/y.sstf", "--k", "2", "--seed", "0"]
    SAMPLE = ["sample", "--n", "10", "--p", "3", "--k", "2", "--lambda", "5",
              "--seed", "1", "--out", "{d}/out.sstf"]
    CONCENTRATION = ["check-concentration", "--n", "6", "--p", "3", "--t", "1", "--seed", "0"]
    PHASE = ["phase", "--out", "{d}/sweep.csv", "--config"]
    LOWDEG = ["lowdeg", "--n", "50", "--k", "5", "--p", "3", "--D", "30"]

    @pytest.mark.parametrize("argv, named", [
        (RECOVER + ["--t", "1", "--ell", "2", "--r", "3"], "--r 3"),
        (RECOVER + ["--t", "1", "--ell", "2", "--workers", "2"], "--workers 2"),
        (RECOVER + ["--t", "3", "--ell", "2"], "t=3"),
        (CONCENTRATION + ["--trials", "0"], "trials"),
        (CONCENTRATION + ["--trials", "-3"], "trials"),
        (PHASE + ["{d}/missing-key.json"], "'t'"),
        (PHASE + ["{d}/scalar-grid.json"], "'n'"),
        (PHASE + ["{d}/unknown-key.json"], "'lamda_mode'"),
        (["recover", "--in", "{d}/no-supports.sstf", "--k", "2", "--t", "1", "--seed", "0"],
         '"supports"'),
        (SAMPLE + ["--mode", "flat", "--ell", "3"], "ell=3"),
        (SAMPLE + ["--mode", "general", "--A", "2"], "A=2.0"),
        (RECOVER + ["--t", "1", "--r", "0"], "r=0"),
        (RECOVER + ["--t", "1", "--r", "-1"], "r=-1"),
        (PHASE + ["{d}/scalar-config.json"], "JSON object"),
        (["recover", "--in", "{d}/scalar-truth.sstf", "--k", "2", "--t", "1", "--seed", "0"],
         '"truth"'),
        (["recover", "--in", "{d}/scalar-truth-entry.sstf", "--k", "2", "--t", "1", "--seed", "0"],
         "truth entry"),
        (["recover", "--in", "{d}/scalar-supports.sstf", "--k", "2", "--t", "1", "--seed", "0"],
         '"supports"'),
        (SAMPLE + ["--p", "0"], "p=0"),
        (SAMPLE + ["--lambda", "nan"], "strengths must be finite"),
        (SAMPLE + ["--lambda", "inf"], "strengths must be finite"),
        (SAMPLE + ["--mode", "apx-flat", "--A", "inf"], "A must be finite"),
        (LOWDEG + ["--lambda", "inf"], "lam must be finite"),
        (LOWDEG + ["--lambda", "1e200"], "double range"),
        (LOWDEG + ["--lambda", "1e200", "--arithmetic", "log-float"], "double range"),
    ], ids=[
        "general-with-r", "general-with-workers", "general-t-above-k",
        "zero-trials", "negative-trials", "config-missing-key", "config-scalar-grid",
        "config-unknown-key", "truth-without-supports", "flat-with-ell", "general-with-A",
        "zero-r", "negative-r", "config-not-object", "truth-not-list", "truth-entry-not-object",
        "supports-not-index-lists", "zero-p", "nan-lambda", "inf-lambda", "inf-A",
        "lowdeg-inf-lambda", "lowdeg-exact-overflow", "lowdeg-log-float-overflow",
    ])
    def test_exit_2(self, workdir, capsys, argv, named):
        code, out, err = run_cli(capsys, *[a.format(d=workdir) for a in argv])
        assert code == 2
        assert err.startswith("stpca: error:")
        assert named in err
        assert "Traceback" not in err
        assert out == ""
        assert not list(workdir.glob("out.sstf*"))
        assert not (workdir / "sweep.csv").exists()

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_entry_is_exit_2(self, tmp_path, capsys, entry):
        # once printed "argmax_values": [NaN] or [Infinity], which is not JSON, and exited 0
        data = np.zeros(6**3)
        data[0] = float(entry)  # entry (1, 1, 1)
        path = str(tmp_path / "y.sstf")
        write_sstf1(DenseTensor(6, 3, data), path)
        code, out, err = run_cli(capsys, "recover", "--in", path, "--k", "2", "--t", "1",
                                 "--seed", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("stpca: error:") and err.count("\n") == 1
        assert "not finite" in err

    @pytest.mark.parametrize("ell", ["0", "-2"])
    def test_nonpositive_ell_is_usage_error(self, workdir, capsys, ell):
        # once recovered quietly as if ell=1
        argv = [a.format(d=workdir) for a in self.RECOVER + ["--t", "1", "--ell", ell]]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "--ell" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--n", "--p", "--t"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_concentration_size_is_usage_error(self, capsys, flag, value):
        # --t 0 once ended in a ZeroDivisionError traceback, --t -1 and --p 0 exited 2
        with pytest.raises(SystemExit) as exc:
            main(self.CONCENTRATION + [flag, value])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err


class TestPhaseConfigTypes:
    CONFIG = {"n": [8], "p": [3], "k": [2], "t": [1], "lambda": [1.0], "trials": 1, "seed": 5}

    @pytest.mark.parametrize("key, value, named", [
        ("trials", 2.5, "trials"),
        ("trials", "2", "trials"),
        ("trials", True, "trials"),
        ("n", ["a"], "n_grid"),
        ("n", [6.5], "n_grid"),
        ("seed", "x", "master_seed"),
        ("noise_scale", "a", "noise_scale"),
        ("lambda", ["5"], "lambda_grid"),
        ("lambda", ["abc"], "lambda_grid"),
    ], ids=["float-trials", "string-trials", "bool-trials", "string-n", "float-n",
            "string-seed", "string-noise-scale", "numeric-string-lambda", "string-lambda"])
    def test_wrong_type_exit_2(self, tmp_path, capsys, key, value, named):
        # once a TypeError traceback (exit 1), a quiet error row, or a run on a coerced value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, **{key: value})))
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(capsys, "phase", "--config", str(cfg), "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("stpca: error:")
        assert named in err
        assert not out_path.exists()

    def test_int_lambda_still_runs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, **{"lambda": [5]})))
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "phase", "--config", str(cfg), "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().splitlines()[1].split(",")[5] == "5.0"


class TestTruthMismatch:
    def test_count_mismatch_reported(self, tmp_path, capsys):
        path = str(tmp_path / "two.sstf")
        code, _, _ = run_cli(
            capsys, "sample", "--n", "12", "--p", "3", "--k", "3", "--r", "2",
            "--lambda", "80", "--seed", "2", "--out", path,
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "recover", "--in", path, "--k", "3", "--t", "1", "--seed", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["truth_mismatch"] == {"truth": 2, "recovered": 1}
        assert "matching" not in doc
