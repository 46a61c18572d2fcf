"""Unit tests for accuracy metrics and report serialization."""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from pss.data import TaskDataset
from pss.evaluation import (
    RunReport,
    average_accuracy,
    binary_predictions,
    export,
    forgetting,
    multiclass_accuracy,
    task_accuracy,
)
from pss.numerics import IDENTITY, MaskedLayer
from pss.plasticity import PlasticNetwork


def passthrough_net(d=3, n_outputs=3):
    """Network whose logits are exactly the input features."""
    hidden = MaskedLayer(np.eye(d), np.zeros(d), activation=IDENTITY)
    out = MaskedLayer(np.eye(n_outputs, d), np.zeros(n_outputs),
                      activation=IDENTITY)
    return PlasticNetwork([hidden, out], [[0] * d], task=n_outputs - 1)


class TestBinaryPredictions:
    def test_zero_logit_counts_as_positive(self):
        np.testing.assert_array_equal(
            binary_predictions(np.array([-0.1, 0.0, 0.1])), [0.0, 1.0, 1.0])


class TestTaskAccuracy:
    def test_known_fractions(self):
        net = passthrough_net()
        x = np.array([[1.0, 0, 0], [-1.0, 0, 0], [2.0, 0, 0], [-2.0, 0, 0]])
        data = TaskDataset(x, np.arange(4), np.array([1.0, 0.0, 0.0, 0.0]),
                           task=0, positive_class=0)
        # logits for output 0 are the first feature: predictions 1,0,1,0
        logits = net.predict(data.x)
        assert task_accuracy(logits[:, data.task], data.y) == 0.75
        assert task_accuracy(logits[:, 0], data.y) == 0.75


class TestMulticlassAccuracy:
    def test_argmax_of_logits(self):
        net = passthrough_net()
        pool = np.array([[3.0, 1.0, 0.0],
                         [0.0, 2.0, 1.0],
                         [1.0, 0.0, 5.0],
                         [9.0, 0.0, 0.0]])
        y = np.array([0, 1, 2, 1])
        assert multiclass_accuracy(net.predict(pool), y) == 0.75

    def test_missing_output_counts_as_error(self):
        net = passthrough_net(d=3, n_outputs=2)
        pool = np.array([[0.0, 0.0, 9.0]])   # true class 2 cannot be predicted
        assert multiclass_accuracy(net.predict(pool), np.array([2])) == 0.0

    def test_no_outputs_rejected(self):
        net = PlasticNetwork.new(3, [2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            multiclass_accuracy(net.predict(np.zeros((1, 3))), np.array([0]))


class TestMatrixMetrics:
    def test_average_accuracy_rows(self):
        m = [[0.9], [0.8, 0.6]]
        assert average_accuracy(m, 0) == 0.9
        assert average_accuracy(m) == pytest.approx(0.7)

    def test_forgetting_hand_example(self):
        per_task, mean = forgetting([[0.9], [0.8, 0.7]])
        assert per_task == [pytest.approx(0.1)]
        assert mean == pytest.approx(0.1)

    def test_forgetting_uses_best_not_first(self):
        # task 0 improves after its own boundary, then decays
        per_task, _ = forgetting([[0.6], [0.9, 0.5], [0.7, 0.5, 0.8]])
        assert per_task[0] == pytest.approx(0.2)   # best 0.9, final 0.7

    def test_single_task_has_no_forgetting(self):
        assert forgetting([[0.95]]) == ([], 0.0)

    def test_exact_zero_when_rows_repeat(self):
        m = [[0.75], [0.75, 0.5], [0.75, 0.5, 0.9]]
        per_task, mean = forgetting(m)
        assert per_task == [0.0, 0.0] and mean == 0.0


def sample_report():
    return RunReport(
        mode="pss", seed=3, config={"batch_size": 64},
        accuracy_matrix=[[0.9], [0.85, 0.8]],
        multiclass=[0.5, 0.6],
        hidden_sizes=[[4, 3], [6, 4]],
        parameter_counts=[31, 55],
        split_counts=[0, 2],
        filler_counts=[0, 0],
        epoch_losses=[[0.6, 0.4], [0.5, 0.3]])


class TestRunReport:
    def test_json_round_trip(self):
        rep = sample_report()
        back = RunReport.from_json(rep.to_json())
        assert back.to_dict() == rep.to_dict()

    def test_json_bytes_deterministic(self):
        assert sample_report().to_json() == sample_report().to_json()

    def test_json_has_sorted_keys_and_derived_block(self):
        d = json.loads(sample_report().to_json())
        assert list(d.keys()) == sorted(d.keys())
        assert d["derived"]["mean_forgetting"] == pytest.approx(0.05)
        assert d["derived"]["final_average_accuracy"] == pytest.approx(0.825)

    def test_csv_values_match_report(self):
        rep = sample_report()
        rows = list(csv.DictReader(io.StringIO(rep.to_csv())))
        binacc = {(r["boundary"], r["task"]): float(r["value"])
                  for r in rows if r["kind"] == "binary_accuracy"}
        assert binacc[("1", "0")] == 0.85
        sizes = {(r["boundary"], r["layer"]): float(r["value"])
                 for r in rows if r["kind"] == "hidden_size"}
        assert sizes[("1", "1")] == 4
        losses = {(r["boundary"], r["epoch"]): float(r["value"])
                  for r in rows if r["kind"] == "epoch_loss"}
        assert losses[("0", "1")] == 0.4
        kinds = {r["kind"] for r in rows}
        assert "mean_forgetting" in kinds and "multiclass_accuracy" in kinds

    def test_export_writes_both_files(self, tmp_path):
        json_path, csv_path = export(sample_report(), tmp_path / "out")
        text = Path(json_path).read_text()
        assert RunReport.from_json(text).mode == "pss"
        assert Path(csv_path).read_text().startswith("kind,boundary,task,layer,epoch")
