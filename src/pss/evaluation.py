"""Accuracy bookkeeping and deterministic run reports.

The central record is the lower-triangular accuracy matrix: row ``t``
holds the binary test accuracy of every task ``j <= t`` measured right
after task ``t`` finished training. Average accuracy, forgetting and
the multiclass trace all derive from it. The scorers take logits, so
a boundary forwards the multiclass pool once and reads every task's
binary accuracy and the multiclass accuracy from those logits.

Reports serialize to JSON with sorted keys and no timing information,
so two runs from the same seed produce byte-identical files.
"""

import csv
import io
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np


def binary_predictions(logits):
    """Decide positive iff the logit is >= 0, i.e. sigmoid >= 1/2."""
    return (np.asarray(logits) >= 0.0).astype(np.float64)


def task_accuracy(logits, labels):
    """Accuracy of one output node's ``logits`` on a binary test set."""
    return float(np.mean(binary_predictions(logits) == labels))


def multiclass_accuracy(logits, labels):
    """Argmax over all existing output logits against true class labels.

    No task identity is given at test time: the highest logit wins.
    Classes whose output node does not exist yet can never be predicted
    and simply count as errors, so mid-stream values are pessimistic.
    Logits of no output raise numpy's ``ValueError`` for an empty argmax.
    """
    preds = np.argmax(logits, axis=1)
    return float(np.mean(preds == np.asarray(labels)))


def average_accuracy(matrix, boundary=-1):
    """Mean accuracy over all tasks seen so far, at one boundary."""
    row = matrix[boundary]
    if not row:
        raise ValueError("empty accuracy row")
    return float(np.mean(row))


def forgetting(matrix):
    """Per-task forgetting and its mean, from the final boundary.

    Task ``j``'s forgetting is its best accuracy at any boundary minus
    its final accuracy; the last task has no history and is excluded
    from the mean. With no completed earlier tasks the mean is 0.0.
    """
    last = matrix[-1]
    per_task = []
    for j in range(len(last) - 1):
        best = max(matrix[t][j] for t in range(j, len(matrix)))
        per_task.append(float(best - last[j]))
    mean = float(np.mean(per_task)) if per_task else 0.0
    return per_task, mean


def _list_of(kind, v):
    return isinstance(v, list) and all(type(x) is kind for x in v)


def _accuracies(v):
    return _list_of(float, v) and all(0.0 <= x <= 1.0 for x in v)


# What ``from_dict`` accepts for each field: the types ``to_dict`` writes,
# accuracies in [0, 1], and a lower-triangular accuracy matrix (row ``t``
# covers tasks ``0..t``).
REPORT_FIELDS = {
    "mode": lambda v: isinstance(v, str),
    "seed": lambda v: type(v) is int,
    "config": lambda v: isinstance(v, dict),
    "accuracy_matrix": lambda v: isinstance(v, list) and all(
        _accuracies(row) and len(row) == t + 1 for t, row in enumerate(v)),
    "multiclass": _accuracies,
    "hidden_sizes": lambda v: isinstance(v, list) and all(_list_of(int, s) for s in v),
    "parameter_counts": lambda v: _list_of(int, v),
    "split_counts": lambda v: _list_of(int, v),
    "filler_counts": lambda v: _list_of(int, v),
    "epoch_losses": lambda v: isinstance(v, list) and all(_list_of(float, e) for e in v),
    "schema": lambda v: type(v) is int,
}


def _not_json(name):
    raise ValueError(f"{name} is not a JSON number")


@dataclass
class RunReport:
    """Everything measurable about one lifelong run, minus wall time."""

    mode: str
    seed: int
    config: dict
    accuracy_matrix: list = field(default_factory=list)
    multiclass: list = field(default_factory=list)
    hidden_sizes: list = field(default_factory=list)    # per boundary
    parameter_counts: list = field(default_factory=list)
    split_counts: list = field(default_factory=list)    # per task
    filler_counts: list = field(default_factory=list)
    epoch_losses: list = field(default_factory=list)    # per task, per epoch
    schema: int = 1

    def final_average_accuracy(self):
        return average_accuracy(self.accuracy_matrix)

    def mean_forgetting(self):
        return forgetting(self.accuracy_matrix)[1]

    def to_dict(self):
        per_task, mean = forgetting(self.accuracy_matrix) \
            if self.accuracy_matrix else ([], 0.0)
        return {**asdict(self), "derived": {
            "final_average_accuracy": average_accuracy(self.accuracy_matrix)
            if self.accuracy_matrix else None,
            "per_task_forgetting": per_task,
            "mean_forgetting": mean,
        }}

    @classmethod
    def from_dict(cls, d):
        """Rebuild a report from ``to_dict`` output (``derived`` is
        recomputed); a missing or wrong-typed field raises ``TypeError``."""
        if not isinstance(d, dict):
            raise TypeError("a run report is a JSON object")
        bad = sorted(k for k, ok in REPORT_FIELDS.items() if k not in d or not ok(d[k]))
        if bad:
            raise TypeError(f"missing or malformed report fields {bad}")
        return cls(**{k: d[k] for k in REPORT_FIELDS})

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        """Parse ``to_json`` output; ``NaN`` and ``Infinity`` (not JSON) and
        nesting past the interpreter's recursion limit raise ``ValueError``."""
        try:
            return cls.from_dict(json.loads(text, parse_constant=_not_json))
        except RecursionError:
            raise ValueError("report JSON nests too deeply") from None

    def csv_rows(self):
        """Long-format numeric view: kind, boundary, task, layer, epoch, value."""
        rows = []
        for t, row in enumerate(self.accuracy_matrix):
            for j, acc in enumerate(row):
                rows.append(("binary_accuracy", t, j, "", "", acc))
            rows.append(("average_accuracy", t, "", "", "",
                         average_accuracy(self.accuracy_matrix, t)))
        for t, acc in enumerate(self.multiclass):
            rows.append(("multiclass_accuracy", t, "", "", "", acc))
        for t, sizes in enumerate(self.hidden_sizes):
            for l, size in enumerate(sizes):
                rows.append(("hidden_size", t, "", l, "", size))
        for t, count in enumerate(self.parameter_counts):
            rows.append(("parameter_count", t, "", "", "", count))
        for t, count in enumerate(self.split_counts):
            rows.append(("split_count", t, "", "", "", count))
        for t, count in enumerate(self.filler_counts):
            rows.append(("filler_count", t, "", "", "", count))
        for t, losses in enumerate(self.epoch_losses):
            for e, loss in enumerate(losses):
                rows.append(("epoch_loss", t, "", "", e, loss))
        if self.accuracy_matrix:
            per_task, mean = forgetting(self.accuracy_matrix)
            for j, f in enumerate(per_task):
                rows.append(("forgetting", "", j, "", "", f))
            rows.append(("mean_forgetting", "", "", "", "", mean))
        return rows

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["kind", "boundary", "task", "layer", "epoch", "value"])
        for kind, boundary, task, layer, epoch, value in self.csv_rows():
            writer.writerow([kind, boundary, task, layer, epoch,
                             repr(value) if isinstance(value, float) else value])
        return buf.getvalue()


def export(report, out_dir):
    """Write report.json and report.csv; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "report.json")
    csv_path = os.path.join(out_dir, "report.csv")
    with open(json_path, "w", encoding="utf-8") as f:
        f.write(report.to_json())
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write(report.to_csv())
    return json_path, csv_path
