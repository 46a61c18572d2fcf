"""The interleaved predict timer runs end to end, this tree against itself."""

import json
import os
import subprocess
import sys

from pss.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMER = os.path.join(REPO, "tools", "interleaved_predict.py")


def test_timer_compares_a_tree_with_itself(tmp_path):
    model = tmp_path / "m.pssnet"
    assert main(["train", "--preset", "synthetic", "--train-size", "240",
                 "--test-size", "120", "--tasks", "3", "--test-count", "120",
                 "--hidden-sizes", "10,6", "--epochs", "1", "--out", str(tmp_path),
                 "--save-model", str(model)]) == 0
    out = tmp_path / "timer.json"
    done = subprocess.run(
        [sys.executable, TIMER, os.path.join(REPO, "src", "pss"), str(model),
         "--rounds", "2", "--requests", "20", "--json", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "bytes equal on 20 one-image requests" in done.stdout
    result = json.loads(out.read_text())
    assert result["rounds"] == 2 and result["requests_per_round"] == 20
    assert [len(v) for v in result["p90_ms"].values()] == [2, 2]
