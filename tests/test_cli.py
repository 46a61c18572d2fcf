"""Unit tests for the command line interface."""

import json

import pytest

from pss.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main

FAST = ["--preset", "synthetic", "--train-size", "240", "--test-size", "120",
        "--tasks", "3", "--test-count", "120", "--hidden-sizes", "10,6",
        "--epochs", "1", "--batch-size", "32", "--sigma", "1e-6",
        "--delta", "0"]


def run_train(tmp_path, *extra):
    out = tmp_path / "run"
    code = main(["train", *FAST, "--out", str(out), *extra])
    return code, out


class TestTrain:
    def test_writes_reports(self, tmp_path, capsys):
        code, out = run_train(tmp_path)
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "pss"
        assert len(report["accuracy_matrix"]) == 3
        assert (out / "report.csv").exists()
        stdout = capsys.readouterr().out
        assert "final average accuracy" in stdout

    def test_deterministic_across_runs(self, tmp_path):
        _, out_a = run_train(tmp_path / "a")
        _, out_b = run_train(tmp_path / "b")
        assert (out_a / "report.json").read_bytes() == \
            (out_b / "report.json").read_bytes()

    def test_baseline_flag(self, tmp_path):
        code, out = run_train(tmp_path, "--baseline")
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "baseline-finetune"
        assert report["split_counts"] == [0, 0, 0]

    def test_bad_momentum_is_config_error(self, tmp_path, capsys):
        code = main(["train", *FAST, "--out", str(tmp_path / "x"),
                     "--momentum", "1.5"])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_bad_sigma_text_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", *FAST, "--sigma", "abc"])
        assert exc.value.code == 2

    def test_mnist_preset_without_data_is_data_error(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.delenv("PSS_DATA_DIR", raising=False)
        code = main(["train", "--preset", "mnist", "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err


class TestModelVerbs:
    def test_save_eval_inspect(self, tmp_path, capsys):
        model = tmp_path / "m.pssnet"
        code, _ = run_train(tmp_path, "--save-model", str(model))
        assert code == EXIT_OK and model.exists()
        capsys.readouterr()

        code = main(["eval", "--model", str(model), *FAST])
        assert code == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert len(result["binary_accuracy"]) == 3
        assert 0.0 <= result["multiclass_accuracy"] <= 1.0

        code = main(["inspect", "--model", str(model)])
        assert code == EXIT_OK
        info = json.loads(capsys.readouterr().out)
        assert info["outputs"] == 3
        assert info["freeze_scope"] in ("full_truncated", "pss_only")
        assert len(info["hidden_sizes"]) == 2
        assert [sum(c.values()) for c in info["generation_counts"]] == \
            info["hidden_sizes"]

    def test_inspect_garbage_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"GARBAGE!" * 16)
        code = main(["inspect", "--model", str(bad)])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_eval_missing_model_is_data_error(self, tmp_path):
        assert main(["eval", "--model", str(tmp_path / "nope"), *FAST]) \
            == EXIT_DATA


class TestGradcheck:
    def test_passes_at_stated_tolerance(self, capsys):
        code = main(["gradcheck", "--dims", "6,5,3", "--seeds", "2"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "worst over 2 seeds" in out and "FAIL" not in out

    def test_impossible_tolerance_fails_numerically(self, capsys):
        code = main(["gradcheck", "--dims", "6,5,3", "--seeds", "1",
                     "--tolerance", "1e-19"])
        assert code == EXIT_NUMERIC
        assert "FAIL" in capsys.readouterr().out


class TestExportMetrics:
    def test_regenerates_csv(self, tmp_path, capsys):
        code, out = run_train(tmp_path)
        (out / "report.csv").unlink()
        code = main(["export-metrics", "--report", str(out / "report.json")])
        assert code == EXIT_OK
        assert (out / "report.csv").read_text().startswith("kind,")

    def test_missing_report_is_data_error(self, tmp_path):
        assert main(["export-metrics", "--report",
                     str(tmp_path / "nope.json")]) == EXIT_DATA

    def test_invalid_json_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["export-metrics", "--report", str(bad)]) == EXIT_DATA

    def test_non_report_json_is_data_error(self, tmp_path):
        bad = tmp_path / "other.json"
        bad.write_text('{"something": "else"}')
        assert main(["export-metrics", "--report", str(bad)]) == EXIT_DATA
