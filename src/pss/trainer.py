"""Sequential task training with drift-triggered splitting.

A task trains in steps: ``TaskRun(net, task_data, config)`` opens the
network's next task (``grow_output`` appends its output node, snapshots
the hidden weights and advances ``net.task``, the one record of the open
task); its ``batches`` cut an epoch into minibatches and its ``step``
trains one, the loss gradient entering only at that output (the
gradients are written into the spare the velocity keeps and turned
there into the new velocity: no step keeps a gradient array);
``end_epoch`` runs a splitting round at the thresholds
of the epoch just ended; ``close`` returns the report. ``pad_velocity``
makes the trainable rows' velocity at task open and after a round that
grew (appended and reverted neurons restart at 0); ``step`` updates it.
The snapshot is held only while a round can read it: it is released
when the task opens in task 0 and with splitting off, and when the
network enters ``pss_only``.
The freeze scope decides how much of the old network may move:

``hybrid`` (default)
    everything trains until the first split of the task, then only the
    current generation keeps training;
``full_truncated``
    everything structurally present trains for the whole task;
``pss_only``
    only the current generation trains from the first step on. Old
    generations never move, so earlier tasks' logits stay bit-identical.

Under ``pss_only`` (from task start, or from the hybrid switch on) a
step computes only the current generation's rows. On entering the
scope the run caches every frozen row's post-activation over the
task's training set (``PlasticNetwork.frozen_activations``); each step
takes the batch's rows of that cache, and backward, velocity and SGD
cover the trainable rows only. From task 1 on, in ``pss_only`` every
snapshot row is frozen: its drift stays put while the threshold only
grows, so no round can split again. The run therefore releases the
snapshot before it builds the cache and runs no more rounds; under
``hybrid`` the switching round is the task's last. So a task builds the
cache at most once: at open under ``pss_only``, at the switch under
``hybrid``, never under ``full_truncated`` (every ``train_from`` is 0).
Batches, and each block of images a cache is built from, are gathered
from the shared training images.

The baseline runner trains the same architecture with splitting
disabled and everything trainable, which is plain multi-head
fine-tuning and forgets accordingly.
"""

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .evaluation import RunReport, multiclass_accuracy, task_accuracy
from .numerics import (
    Activation,
    backward_truncated,
    pad_velocity,
    selected_bce,
    sgd_step,
)
from .plasticity import FREEZE_SCOPES, SPLIT_INITS, PlasticNetwork, drift_thresholds

log = logging.getLogger(__name__)

SCOPE_CHOICES = ("hybrid",) + FREEZE_SCOPES


def rng_for(seed, *key):
    """Independent generator derived from the master seed and a key path."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


@dataclass
class TrainerConfig:
    """Hyperparameters for one lifelong run. Defaults follow the
    two-hidden-layer 312/128 setup; sigma and delta must provide one
    value per hidden layer (or a scalar for all)."""

    hidden_sizes: tuple = (312, 128)
    learning_rate: float = 0.05
    momentum: float = 0.9
    batch_size: int = 64
    epochs_per_task: int = 5
    sigma: tuple = (0.3, 0.25)
    delta: tuple = (0.0015, 0.25)
    freeze_scope: str = "hybrid"
    split_init: str = "drifted"
    magnitude_freeze_threshold: float = 0.0
    leaky_slope: float = 0.01
    seed: int = 0
    splitting_enabled: bool = True

    def validate(self):
        if not self.hidden_sizes or any(int(h) < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be non-empty positive ints")
        # sigma, delta: finite, non-negative, a scalar or one per hidden layer
        drift_thresholds(self.sigma, self.delta, len(self.hidden_sizes), 0)
        for name in ("learning_rate", "magnitude_freeze_threshold"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1 or self.epochs_per_task < 1:
            raise ValueError("batch_size and epochs_per_task must be >= 1")
        if self.freeze_scope not in SCOPE_CHOICES:
            raise ValueError(f"freeze_scope must be one of {SCOPE_CHOICES}")
        if self.split_init not in SPLIT_INITS:
            raise ValueError(f"split_init must be one of {SPLIT_INITS}")
        if self.magnitude_freeze_threshold < 0:
            raise ValueError("magnitude_freeze_threshold must be >= 0")
        Activation(self.leaky_slope)  # raises ValueError outside [0, 1]
        return self

    def to_dict(self):
        def plain(v):
            if isinstance(v, tuple):
                return list(v)
            return v
        return {k: plain(v) for k, v in self.__dict__.items()}


@dataclass
class TaskReport:
    """Per-task training record."""

    task: int
    epoch_losses: list = field(default_factory=list)
    splits_per_epoch: list = field(default_factory=list)
    split_count: int = 0
    filler_count: int = 0
    hidden_sizes_after: list = field(default_factory=list)
    parameter_count_after: int = 0


class TaskRun:
    """The network's open task ``net.task``: trainable rows' velocity
    (``pad_velocity``), frozen-row cache, shuffle generator, report."""

    def __init__(self, net, task_data, config):
        config.validate()
        self.net, self.data, self.config = net, task_data, config
        self.started, self.epoch, self.loss_sum = time.perf_counter(), 0, 0.0
        task = net.grow_output()
        net.set_structural_freeze(
            "full_truncated" if config.freeze_scope == "hybrid" else config.freeze_scope)
        if config.magnitude_freeze_threshold > 0:
            log.debug("task %d: %d small weights frozen", task,
                      net.freeze_small_weights(config.magnitude_freeze_threshold))
        self.velocity, self.trace = None, None
        self._fit_structure()
        self.shuffle_rng, self.report = rng_for(config.seed, 1, task), TaskReport(task=task)

    def _fit_structure(self, reset=()):
        """At task open and after a round that grew: release the snapshot if
        no round can read it again (in task 0, with splitting off, and in
        ``pss_only``), then make the trainable rows' velocity (``pad_velocity``,
        0 in the ``reset`` rows) and the cache of the rows that cannot train."""
        net = self.net
        if net.task == 0 or not self.config.splitting_enabled or net.freeze_scope == "pss_only":
            net.snapshot = None
        self.velocity = pad_velocity(self.velocity, net.layers, reset)
        self.cache = net.frozen_activations(self.data.source, self.data.rows)

    def batches(self):
        """One epoch's minibatches: the task's row indices in the next
        shuffle order, cut into ``batch_size`` slices."""
        order, size = self.shuffle_rng.permutation(len(self.data)), self.config.batch_size
        return [order[start:start + size] for start in range(0, len(order), size)]

    def step(self, idx):
        """Train on the task's rows ``idx``, keeping the step's ``trace`` until
        the next step or splitting round; returns the batch loss. The
        gradients are written into the velocity's spare (made here if
        missing), where ``sgd_step`` turns them into the new velocity."""
        self.trace = None  # the last step's trace is not held while this one is made
        xb, yb, sel = self.data.source[self.data.rows[idx]], self.data.y[idx], [self.net.task]
        self.trace = self.net.trace(xb, self.cache and [c[idx] for c in self.cache])
        loss = selected_bce(self.trace.output, sel, yb)
        self.loss_sum += loss * len(idx)
        grads = backward_truncated(self.net.layers, self.trace, yb, sel,
                                   [v.spares() for v in self.velocity])
        sgd_step(self.net.layers, grads, self.config.learning_rate,
                 self.config.momentum, self.velocity)
        return loss

    def end_epoch(self):
        """Record the epoch loss and, while the snapshot is held, run the
        splitting round at this epoch's thresholds, first dropping the last
        step's ``trace`` and the velocity's spares (with no round the next
        step writes its gradients into them); returns its ``SplitReport``
        or None.
        After a split (under ``hybrid``, once in ``pss_only``) velocity covers
        the rows that train, 0 for appended neurons and split originals."""
        net, config, report = self.net, self.config, self.report
        report.epoch_losses.append(self.loss_sum / len(self.data))
        self.loss_sum, round_report = 0.0, None
        if net.snapshot is not None:  # none is held through a round, which may grow the layers
            self.trace = None
            for v in self.velocity:
                v.spare = None
            round_report = net.splitting_round(self.epoch, config.sigma, config.delta,
                                               config.split_init)
        report.splits_per_epoch.append(round_report.total_splits if round_report else 0)
        if round_report and round_report.total_splits:
            report.split_count += round_report.total_splits
            report.filler_count += round_report.total_fillers
            if config.freeze_scope == "hybrid":
                net.set_structural_freeze("pss_only")
            self._fit_structure(round_report.splits)  # the round grew and reverted rows
            log.info("task %d epoch %d: %d splits, %d fillers", net.task, self.epoch,
                     round_report.total_splits, round_report.total_fillers)
        self.epoch += 1
        return round_report

    def close(self):
        report, net = self.report, self.net
        report.hidden_sizes_after, report.parameter_count_after = \
            net.hidden_sizes(), net.parameter_count()
        log.info("task %d done in %.2fs: sizes %s, epoch losses %s",
                 net.task, time.perf_counter() - self.started,
                 report.hidden_sizes_after, [round(loss, 4) for loss in report.epoch_losses])
        return report


def train_task(net, task_data, config):
    """Train the network's next task end to end on ``task_data``."""
    run = TaskRun(net, task_data, config)
    for _ in range(config.epochs_per_task):
        for idx in run.batches():
            run.step(idx)
        run.end_epoch()
    return run.close()


def evaluate_boundary(net, stream, upto):
    """Binary accuracy of every task trained so far, plus multiclass.

    Both come from one forward pass over the multiclass pool: each
    task's test set is a set of pool rows (``TaskDataset.rows``), scored
    on those rows' logits at the task's output node.
    """
    logits = net.predict(stream.pool_x)
    row = [task_accuracy(logits[task.test.rows, j], task.test.y)
           for j, task in enumerate(stream.tasks[:upto + 1])]
    return row, multiclass_accuracy(logits, stream.pool_y)


def run_lifelong(stream, config, mode="pss"):
    """Train every task in the stream in order; returns (net, report)."""
    config.validate()
    if not len(stream):
        raise ValueError("empty task stream")
    n_features = stream.tasks[0].train.source.shape[1]
    net = PlasticNetwork.new(n_features, list(config.hidden_sizes),
                             rng_for(config.seed, 0), config.leaky_slope)
    report = RunReport(mode=mode, seed=config.seed, config=config.to_dict())
    for task in stream:
        task_report = train_task(net, task.train, config)
        problems = net.check_masks()
        if problems:
            raise AssertionError(
                f"mask invariants violated after task {net.task}: {problems}")
        row, mc = evaluate_boundary(net, stream, net.task)
        report.accuracy_matrix.append(row)
        report.multiclass.append(mc)
        report.hidden_sizes.append(task_report.hidden_sizes_after)
        report.parameter_counts.append(task_report.parameter_count_after)
        report.split_counts.append(task_report.split_count)
        report.filler_counts.append(task_report.filler_count)
        report.epoch_losses.append(task_report.epoch_losses)
    return net, report


def run_baseline_finetune(stream, config):
    """Same architecture, no splitting, nothing frozen: the forgetful
    baseline every lifelong method is measured against."""
    baseline_cfg = replace(config, splitting_enabled=False,
                           freeze_scope="full_truncated")
    return run_lifelong(stream, baseline_cfg, mode="baseline-finetune")
