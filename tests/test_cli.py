"""Unit tests for the command line interface."""

import argparse
import builtins
import ctypes
import dataclasses
import errno
import functools
import glob
import hashlib
import json
import logging
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
from test_acceptance import variation_stream

import pss
from pss import cli, trainer
from pss.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, RunConfig, main
from pss.data import save_idx
from pss.model_io import save_model
from pss.numerics import GradcheckReport
from pss.plasticity import PlasticNetwork
from pss.trainer import TrainerConfig, run_lifelong

STREAM = ["--preset", "synthetic", "--train-size", "240", "--test-size", "120",
          "--tasks", "3", "--test-count", "120"]
FAST = [*STREAM, "--hidden-sizes", "10,6", "--epochs", "1", "--batch-size", "32",
        "--sigma", "1e-6", "--delta", "0"]


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

    def test_baseline_told_to_freeze_is_config_error(self, tmp_path, capsys, monkeypatch):
        """``--scope pss_only`` would freeze what ``--baseline`` trains: exit 2
        before any data is built. The scopes that train everything present
        until a split, which the baseline never makes, stay accepted."""
        monkeypatch.setattr(RunConfig, "build_stream",
                            lambda self: pytest.fail("data built before validation"))
        code = main(["train", *FAST, "--out", str(tmp_path / "x"),
                     "--baseline", "--scope", "pss_only"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "--scope pss_only" in err
        assert not (tmp_path / "x").exists()
        for scope in ("hybrid", "full_truncated"):
            args = cli.build_parser().parse_args(
                ["train", *FAST, "--out", str(tmp_path / "x"), "--baseline",
                 "--scope", scope, "--split-init", "reverted"])
            assert RunConfig.from_args(args).trainer.freeze_scope == scope

    def test_bad_momentum_is_config_error(self, tmp_path, capsys):
        code = main(["train", *FAST, "--out", str(tmp_path / "x"),
                     "--momentum", "1.5"])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--sigma", "nan"], ["--sigma", "0.3,inf"], ["--delta", "inf"],
        ["--magnitude-freeze", "nan"], ["--lr", "nan"], ["--lr", "inf"]], ids=" ".join)
    def test_non_finite_flag_is_config_error(self, flags, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setattr(RunConfig, "build_stream",
                            lambda self: pytest.fail("data built before validation"))
        code = main(["train", *FAST, "--out", str(tmp_path / "x"), *flags])
        assert code == EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("baseline", [[], ["--baseline"]], ids=["pss", "baseline"])
    @pytest.mark.parametrize("flags", [
        ["--sigma", "-1"], ["--sigma", "0.1,0.2,0.3"], ["--delta", "-0.5"]],
        ids=" ".join)
    def test_bad_drift_flag_is_config_error(self, flags, baseline, tmp_path, capsys,
                                            monkeypatch):
        """A negative or wrongly shaped sigma or delta exits 2 before any
        data is built, with or without --baseline."""
        monkeypatch.setattr(RunConfig, "build_stream",
                            lambda self: pytest.fail("data built before validation"))
        code = main(["train", *FAST, "--out", str(tmp_path / "x"), *flags, *baseline])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and flags[0][2:] in err

    def test_leaky_slope_outside_unit_interval_is_config_error(self, tmp_path, capsys,
                                                               monkeypatch):
        """No flag sets the slope; a config that carries a bad one exits 2
        before any data is built."""
        monkeypatch.setattr(cli, "TrainerConfig",
                            functools.partial(TrainerConfig, leaky_slope=2.0))
        monkeypatch.setattr(RunConfig, "build_stream",
                            lambda self: pytest.fail("data built before validation"))
        code = main(["train", *FAST, "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert "outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--tasks", "0"], ["--tasks", "11"], ["--train-size", "0"],
        ["--train-size", "9"], ["--test-size", "0"], ["--test-count", "0"],
        ["--per-task-train", "0"], ["--per-task-train", "-5"],
        ["--per-task-train", "1"], ["--seed", "-1"]], ids=" ".join)
    @pytest.mark.parametrize("verb", ["train", "eval"])
    def test_bad_stream_flag_is_config_error(self, verb, flags, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setattr(RunConfig, "build_stream",
                            lambda self: pytest.fail("data built before validation"))
        # eval checks its flags before it opens the (here missing) model
        base = [*FAST, "--out", str(tmp_path / "x")] if verb == "train" else \
            [*STREAM, "--model", str(tmp_path / "missing")]
        code = main([verb, *base, *flags])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and flags[0] in err

    def test_pool_without_a_task_class_is_config_error(self, tmp_path, capsys):
        """Two pool images cannot hold three classes; the corpus can."""
        code = main(["train", *FAST, "--out", str(tmp_path / "x"), "--test-count", "2"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "pool of 2 test images" in err

    def test_test_set_without_a_task_class_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for split, labels in (("train", np.arange(60) % 3), ("t10k", np.arange(60) % 2)):
            save_idx(tmp_path / f"{split}-images-idx3-ubyte",
                     tmp_path / f"{split}-labels-idx1-ubyte",
                     rng.integers(0, 256, size=(60, 4, 4), dtype=np.uint8), labels)
        code = main(["train", "--preset", "mnist", "--data-dir", str(tmp_path),
                     "--tasks", "3", "--out", str(tmp_path / "x")])
        assert code == EXIT_DATA
        assert "test data lacks classes [2]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--sigma", "abc"], ["--hidden-sizes", "3,x"]])
    def test_bad_sigma_text_is_usage_error(self, flag, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", *FAST, *flag])
        assert exc.value.code == 2

    def test_divergence_is_one_line_on_stderr(self, tmp_path):
        """A run whose weights overflow exits 4 with the numerical error as
        the only line on stderr; numpy's overflow warning is not printed."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(pss.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from pss.cli import main; sys.exit(main())",
             "train", "--preset", "synthetic", "--train-size", "200", "--test-size", "100",
             "--tasks", "2", "--lr", "100", "--out", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        assert done.returncode == EXIT_NUMERIC
        assert done.stderr.splitlines() == [
            "numerical error: non-finite pre-activation at layer 1"]

    def test_mnist_preset_without_data_is_data_error(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.delenv("PSS_DATA_DIR", raising=False)
        code = main(["train", "--preset", "mnist", "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--preset", "synthetic", "--hidden-sizes", "100000000,8"],
    ["train", "--preset", "synthetic", "--train-size", "1000000000000"]], ids=" ".join)
def test_oversized_flag_is_one_config_error_line(argv, tmp_path):
    """A size no allocation can hold exits 2 with one stderr line, not a
    traceback. The child caps its own address space at 4 GiB before it
    starts, so the allocation fails at once and cannot fill memory."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    src = os.path.dirname(os.path.dirname(os.path.abspath(pss.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from pss.cli import main; sys.exit(main())",
         *argv, "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=cap_address_space, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=120)
    assert done.returncode == EXIT_CONFIG
    [line] = done.stderr.splitlines()
    assert line.startswith("configuration error: Unable to allocate")


class TestUnusablePaths:
    """An output path that cannot be used exits 2 before any data is built;
    an input path that is a directory, or under a file, exits 3, as a
    missing one does, and so does a path the system refuses later."""

    @pytest.mark.parametrize("flag, path", [
        ("--out", "file"), ("--out", "file/sub"),
        ("--save-model", "."), ("--save-model", "file/m.pssnet"),
        ("--save-model", "file/sub/m.pssnet")])
    def test_train_output_is_config_error_before_any_data(self, flag, path, tmp_path,
                                                          capsys, monkeypatch):
        monkeypatch.setattr(RunConfig, "build_stream",
                            lambda self: pytest.fail("data built before validation"))
        (tmp_path / "file").write_text("kept")
        code = main(["train", *FAST, "--out", str(tmp_path / "x"), flag, str(tmp_path / path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and flag in err
        assert (tmp_path / "file").read_text() == "kept"

    @pytest.mark.parametrize("model", ["run/m.pssnet", "models/m.pssnet"])
    def test_save_model_makes_its_missing_directory(self, model, tmp_path):
        """``--out D --save-model D/m.pssnet`` with D missing trains and saves,
        as does a model under any other directory that does not exist yet."""
        code, out = run_train(tmp_path, "--save-model", str(tmp_path / model))
        assert code == EXIT_OK
        assert (tmp_path / model).is_file() and (out / "report.json").is_file()

    @pytest.mark.parametrize("flag", ["--out", "--save-model"])
    def test_unwritable_output_directory_is_config_error_before_any_data(
            self, flag, tmp_path, capsys, monkeypatch):
        """A nearest existing directory that ``os.access`` reports unwritable
        is refused (permission bits do not bind root, so the refusal is
        faked)."""
        locked = tmp_path / "locked"
        locked.mkdir()
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: (
            os.path.abspath(path) != str(locked) and access(path, mode)))
        monkeypatch.setattr(RunConfig, "build_stream",
                            lambda self: pytest.fail("data built before validation"))
        target = str(locked / "sub" / "m.pssnet")
        assert main(["train", *FAST, "--out", str(tmp_path / "x"), flag, target]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and flag in err and "writable directory" in err
        assert not (locked / "sub").exists()

    @pytest.mark.parametrize("argv, target, error", [
        (["train", *FAST, "--out", "{}/run"], "run", PermissionError(errno.EACCES, "denied")),
        (["train", *FAST, "--out", "{}/run", "--save-model", "{}/m.pssnet"], "m.pssnet",
         OSError(errno.ENOSPC, "No space left on device")),
        (["eval", *STREAM, "--model", "{}/old.pssnet"], "old.pssnet",
         PermissionError(errno.EACCES, "denied")),
    ], ids=["train --out", "train --save-model", "eval --model"])
    def test_a_path_the_system_refuses_is_one_data_error_line(self, argv, target, error,
                                                              tmp_path, capsys, monkeypatch):
        """A path that passes the checks but that the system then refuses to
        read or write (``open`` or ``os.makedirs`` faked to fail) exits 3
        with one ``data error:`` line, not a traceback."""
        assert main(["train", *FAST, "--out", str(tmp_path / "old"),
                     "--save-model", str(tmp_path / "old.pssnet")]) == EXIT_OK
        refused = str(tmp_path / target)

        def refusing(real):
            def call(path, *args, **kw):
                if str(path).startswith(refused):
                    raise error
                return real(path, *args, **kw)
            return call

        monkeypatch.setattr(builtins, "open", refusing(open))
        monkeypatch.setattr(os, "makedirs", refusing(os.makedirs))
        capsys.readouterr()
        assert main([a.replace("{}", str(tmp_path)) for a in argv]) == EXIT_DATA
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"data error: {error}"

    @pytest.mark.parametrize("path", [".", "file/x"])
    @pytest.mark.parametrize("argv", [["inspect", "--model"],
                                      ["eval", *STREAM, "--model"]], ids=" ".join)
    def test_input_directory_is_data_error(self, argv, path, tmp_path, capsys):
        (tmp_path / "file").write_text("kept")
        assert main([*argv, str(tmp_path / path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err


class TestDefaults:
    """An absent flag takes the default its config dataclass declares."""

    def test_train_without_flags_is_the_library_default(self):
        args = cli.build_parser().parse_args(["train"])
        assert RunConfig.from_args(args) == RunConfig(trainer=TrainerConfig())

    def test_eval_without_stream_flags_is_the_library_default(self):
        args = cli.build_parser().parse_args(["eval", "--model", "m"])
        assert RunConfig.from_args(args) == RunConfig()

    @pytest.mark.parametrize("verb", ["train", "eval"])
    def test_help_shows_each_config_default(self, verb):
        """Every flag that sets a config field ends its help with that
        field's default, written the way the flag takes it."""
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[verb]
        entries = {}  # first option string -> its help entry
        for line in sub.format_help().split("\noptions:\n")[1].splitlines():
            if line.startswith("  -"):
                opt = line.split()[0].rstrip(",")
                entries[opt] = ""
            entries[opt] += line
        entries = {opt: " ".join(text.split()) for opt, text in entries.items()}
        defaults = {f.name: f.default for cls in (RunConfig, TrainerConfig)
                    for f in dataclasses.fields(cls)}
        shown = [a for a in sub._actions if a.dest in defaults]
        assert len(shown) == (21 if verb == "train" else 8)
        for action in shown:
            default = defaults[action.dest]
            text = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
            entry = entries[action.option_strings[0]]
            assert entry.endswith(f"(default: {text})"), entry
        if verb == "train":
            assert entries["--sigma"].endswith("(default: 0.3,0.25)")
            assert entries["--hidden-sizes"].endswith("(default: 312,128)")


class TestModelVerbs:
    def test_save_eval_inspect(self, tmp_path, capsys):
        model = tmp_path / "m.pssnet"
        code, _ = run_train(tmp_path, "--save-model", str(model))
        assert code == EXIT_OK and model.exists()
        capsys.readouterr()

        code = main(["eval", "--model", str(model), *STREAM])
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
        assert main(["eval", "--model", str(tmp_path / "nope"), *STREAM]) \
            == EXIT_DATA

    def test_eval_of_a_model_of_another_input_width_is_data_error(self, tmp_path, capsys):
        model = tmp_path / "narrow.pssnet"
        net = PlasticNetwork.new(5, [4, 3], np.random.default_rng(0))
        net.grow_output()
        save_model(model, net)
        assert main(["eval", "--model", str(model), *STREAM]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "5 input features" in err and "has 784" in err

    def test_eval_rejects_trainer_flags(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--model", str(tmp_path / "m"), *STREAM, "--lr", "0.1"])
        assert exc.value.code == 2


class TestVerbs:
    """The command line holds the four verbs a user path needs, and
    ``gradcheck`` runs at fixed settings."""

    def test_help_lists_exactly_the_four_verbs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        listed = help_text.split("positional arguments:\n")[1].split("\n\n")[0]
        verbs = [line.split()[0] for line in listed.splitlines()[1:]]
        assert verbs == ["train", "eval", "inspect", "gradcheck"]
        assert "{train,eval,inspect,gradcheck}" in help_text

    @pytest.mark.parametrize("argv", [["export-metrics", "--report", "x"],
                                      ["gradcheck", "--seeds", "2"]], ids=" ".join)
    def test_retired_verb_and_flag_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: pss" in capsys.readouterr().err

    def test_gradcheck_passes_at_its_fixed_settings(self, capsys):
        assert main(["gradcheck"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == \
            [f"seed {seed}" for seed in range(5)] + ["worst over 5 seeds"]
        assert all(line.endswith(" ok") for line in lines[:5])
        assert lines[5].endswith("(tolerance 1.0e-05)")

    def test_a_failing_seed_exits_4(self, capsys, monkeypatch):
        failing = GradcheckReport(max_rel_error=0.5, checked=3, frozen_checked=1,
                                  frozen_nonzero=0, tolerance=1e-5)
        monkeypatch.setattr(cli, "gradcheck", lambda *args, **kw: failing)
        assert main(["gradcheck"]) == EXIT_NUMERIC
        out = capsys.readouterr().out
        assert out.count("FAIL") == 5 and "worst over 5 seeds: 5.000e-01" in out


class TestBlasThreads:
    """Each command runs BLAS on one thread, so the report bytes do not
    depend on the thread count the environment asks for."""

    @staticmethod
    def threads():
        """The getter and setter of numpy's bundled OpenBLAS thread count,
        or a skip where numpy has no such build."""
        libs = glob.glob(trainer.OPENBLAS)
        if not libs:
            pytest.skip("numpy has no bundled OpenBLAS")
        lib = ctypes.CDLL(libs[0])
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_

    def test_pin_sets_one_thread_and_restores_the_count(self):
        get, set_ = self.threads()
        before = get()
        set_(2)  # the suite itself runs on one thread (tests/conftest.py)
        try:
            with trainer.one_blas_thread():
                assert get() == 1
            assert get() == 2
        finally:
            set_(before)
        assert before == 1

    def test_missing_thread_control_warns_once_and_goes_on(self, monkeypatch, caplog):
        monkeypatch.setattr(trainer.glob, "glob", lambda pattern: [])
        ran = []
        with caplog.at_level(logging.WARNING, logger="pss.trainer"):
            with trainer.one_blas_thread():
                ran.append(True)
        assert ran == [True]
        assert [r.levelname for r in caplog.records] == ["WARNING"]

    def test_a_library_run_at_two_threads_gives_the_one_thread_report(self):
        """``run_lifelong`` runs BLAS on one thread itself, so a caller from
        Python that leaves OpenBLAS at 2 threads gets the one-thread report:
        acceptance 5's noisy stream at seed 4, whose products round
        differently on two threads, gives the same report sha256."""
        get, set_ = self.threads()
        stream, _ = variation_stream(4)
        cfg = TrainerConfig(hidden_sizes=(64, 32), epochs_per_task=3, sigma=(0.05, 0.05),
                            delta=(0.1, 0.1), seed=4)
        digests, before = [], get()
        try:
            for threads in (1, 2):
                set_(threads)
                report = run_lifelong(stream, cfg)[1]
                assert get() == threads  # restored
                digests.append(hashlib.sha256(report.to_json().encode()).hexdigest())
        finally:
            set_(before)
        assert digests[0] == digests[1]

    def test_default_report_is_the_same_at_one_and_two_threads(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(pss.__file__)))
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-c", "import sys; from pss.cli import main; sys.exit(main())",
                 "train", "--preset", "synthetic", "--out", str(out)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            assert done.returncode == EXIT_OK, done.stderr
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
