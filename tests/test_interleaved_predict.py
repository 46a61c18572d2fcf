"""The interleaved predict timer runs end to end, this tree against itself;
it refuses a base tree whose results differ and flags it cannot honour."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from pss.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMER = os.path.join(REPO, "tools", "interleaved_predict.py")
PACKAGE = os.path.join(REPO, "src", "pss")


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    out = tmp_path_factory.mktemp("timer")
    path = out / "m.pssnet"
    assert main(["train", "--preset", "synthetic", "--train-size", "240",
                 "--test-size", "120", "--tasks", "3", "--test-count", "120",
                 "--hidden-sizes", "10,6", "--epochs", "1", "--out", str(out),
                 "--save-model", str(path)]) == 0
    return path


def run_timer(base, model, *flags):
    return subprocess.run([sys.executable, TIMER, str(base), str(model), *flags],
                          capture_output=True, text=True, timeout=120)


def test_timer_compares_a_tree_with_itself(model, tmp_path):
    out = tmp_path / "timer.json"
    done = run_timer(PACKAGE, model, "--rounds", "2", "--requests", "20", "--json", str(out))
    assert done.returncode == 0, done.stderr
    assert "bytes equal on 20 one-image requests" in done.stdout
    result = json.loads(out.read_text())
    assert result["rounds"] == 2 and result["requests_per_round"] == 20
    assert [len(v) for v in result["p90_ms"].values()] == [2, 2]
    assert [len(v) for v in result["p99_ms"].values()] == [2, 2]


def test_a_base_tree_with_other_logits_exits_1(model, tmp_path):
    base = tmp_path / "pss"
    shutil.copytree(PACKAGE, base, ignore=shutil.ignore_patterns("__pycache__"))
    source = (base / "plasticity.py").read_text()
    call = "return post_activations(self.layers, x, keep_from=len(self.layers) - 1)[-1]"
    assert call in source
    (base / "plasticity.py").write_text(source.replace(call, call + " + 1.0"))
    done = run_timer(base, model, "--rounds", "1", "--requests", "20")
    assert done.returncode == 1, done.stderr
    assert "one-image request 0 differs" in done.stderr
    assert "round 0" not in done.stdout


@pytest.mark.parametrize("flags", [("--rounds", "0"), ("--rounds", "-1"),
                                   ("--requests", "0"), ("--requests", "1001")],
                         ids=" ".join)
def test_flags_it_cannot_honour_exit_2(flags, tmp_path):
    # checked before any model is read, so none is needed
    done = run_timer(PACKAGE, tmp_path / "missing.pssnet", *flags)
    assert done.returncode == 2
    assert flags[0] in done.stderr and "Traceback" not in done.stderr
