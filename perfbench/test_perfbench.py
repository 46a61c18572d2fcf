"""Self-test of the benchmark at tiny sizes.

Runs every workload through ``run.py --tiny`` untraced and traced and
checks its output against ``BENCHMARK.json``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 5

sys.path.insert(0, str(HERE))
from tracer import TIMED, span_name  # noqa: E402


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def outputs():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            done = run_bench(workload, trace)
            assert done.returncode == 0, done.stderr
            cache[workload, trace] = json.loads(
                done.stdout.strip().splitlines()[-1])
        return cache[workload, trace]
    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(outputs, workload, trace):
    result = outputs(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] != 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_fit_in_traced_wall_time(outputs, workload):
    metrics = outputs(workload, 1)["metrics"]
    self_total = sum(metrics[f"{span_name(m, q)}.self_s"]["value"]
                     for m, q, _ in TIMED)
    assert 0 < self_total <= metrics["trace.wall_s"]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_no_arithmetic(outputs, workload):
    outputs(workload, 1)
    record = ROOT / ".bench_build" / "perfbench" / "results" / \
        f"{workload}-seed{SEED}-trace1.json"
    shas = json.loads(record.read_text())["report_sha256"]
    assert shas["untraced"] and shas["traced"] == shas["untraced"]


def test_scope_counters(outputs):
    dense = outputs("finetune-dense", 1)["metrics"]
    assert dense["plasticity.trainable_weight_share"]["value"] == 1.0
    assert dense["trainer.pss_only_step_share"]["value"] == 0.0
    hybrid = outputs("lifelong-hybrid", 1)["metrics"]
    assert hybrid["plasticity.splits"]["value"] > 0
    assert 0 < hybrid["trainer.pss_only_step_share"]["value"] < 1
    assert hybrid["plasticity.trainable_weight_share"]["value"] < 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
