import json

import pytest

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


class TestItboundCommand:
    def test_minimax_value(self, capsys):
        code, out, _ = run_cli(capsys, "itbound", "--n", "100", "--k", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["minimax_lambda"] == pytest.approx(1.154, abs=1e-3)

    def test_oracle_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "itbound", "--n", "4", "--k", "1", "--eps", "1.0", "--oracle",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["covering_number"] == {"l2": 8, "rho": 4}


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
