"""Sequential task training with drift-triggered splitting.

A task trains in steps: ``TaskRun(net, task_data, config)`` opens the
network's next task (``grow_output`` appends its output node and
advances ``net.task``, the one record of the open task); its ``batches``
cut an epoch into minibatches and its ``step`` trains one, the loss
gradient entering only at that output; ``end_epoch`` runs a splitting
round at the thresholds of the epoch just ended, and gives ``hybrid``'s
probe its verdict; ``close`` returns the report. The run owns the
task's state, one lifetime per array: the snapshot of the hidden
weights is taken only where a round can read it (from task 1 on,
splitting on, under ``full_truncated``, as ``hybrid`` trains after a
failed probe) and released at the ``hybrid`` switch or else by
``close``; ``pad_velocity`` makes the trainable rows' velocity at open
and after a round that grew (appended and reverted neurons restart at
0), each ``step`` writes its gradients into the velocity's spare and
turns them there into the new velocity, and a round drops the spares; a
step's forward trace lives only for that step.

The freeze scope decides how much of the old network may move:

``hybrid`` (default)
    from task 1 on, with splitting on, a task opens in a probe: its
    first ``PROBE_EPOCHS`` (2) epochs train under ``pss_only``, the new
    output row alone on the frozen trunk. If the last probe epoch's
    loss is at most ``PROBE_LOSS`` (0.1), the trunk encodes the task,
    which finishes under ``pss_only`` as a ``--scope pss_only`` run
    would. Otherwise the task starts again from its state at open (the
    head row's weights and bias as they were, zero velocity, a fresh
    shuffle, an empty report, epoch 0) and everything trains until its
    first split, after which only the current generation trains. A
    probe moves no other parameter and draws nothing from ``net.rng``,
    so a run whose probes all fail writes the bytes it would write with
    no probe. In task 0 nothing is old: everything trains.
    Measured at the verdict: on W2 (``pss train --preset synthetic
    --train-size 20000``) every probe passes, at 0.028 or below; on the
    default run every probe fails, at 0.31 or above, and on acceptance
    5's noisy stream, seeds 0 to 9, at 0.58 or above.
``full_truncated``
    everything structurally present trains for the whole task;
``pss_only``
    only the current generation trains from the first step on. Old
    generations never move, so earlier tasks' logits stay bit-identical.

Under ``pss_only`` (from task start, in a probe, or from the hybrid
switch on) a step computes only the current generation's rows. On
entering the scope the run finds ``start``, the first layer with a
trainable row, and caches what a step reads of the frozen rows over the
task's training set (``PlasticNetwork.frozen_activations``): layer
``start - 1`` and the frozen rows above it. Each step runs forward,
backward, velocity and SGD over ``layers[start:]`` and their trainable
rows only, its input the batch's cached rows of layer ``start - 1`` (its
images when ``start`` is 0, as in every dense step): a task that trains
only its output row reads no image in a step. From task 1 on, in
``pss_only`` every snapshot row is frozen: its drift stays put while
the threshold only grows, so no round could split. That is why no
snapshot is held there, and why under ``hybrid`` the switching round is
the task's last (the switch releases the snapshot before the cache is
built). A task therefore builds the cache at open under ``pss_only``
and in a probe, at the switch under ``hybrid``, and never under
``full_truncated`` (every ``train_from`` is 0).
Batches of a step from layer 0, and each block of images a cache is
built from, are gathered from the shared training images.

After each task ``evaluate_boundary`` scores every task so far on the
multiclass pool. Where a later task can train its output row alone
(under ``pss_only``, and under ``hybrid`` where a probe runs),
``run_lifelong`` carries from one boundary to the next the pool's
post-activations of the last hidden layer and its logits. A task whose
every step starts at the output layer (no probe restart, no round)
moves no other row, so its boundary computes only its own output's
column from the carried layer. The first step from a lower layer (at
open, at a probe's restart, after a round) empties the carry, and that
task's boundary forwards the pool once, keeping what it will carry.

``run_lifelong`` runs as a ``pss`` command does, BLAS on one thread
(``one_blas_thread``) and numpy's overflow and invalid-value warnings
off, so a caller from Python gets its bytes, and ``NonFiniteError`` if
the run diverges.

The baseline runner trains the same architecture with splitting
disabled and everything trainable, which is plain multi-head
fine-tuning and forgets accordingly.
"""

import contextlib
import ctypes
import glob
import logging
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .evaluation import RunReport, multiclass_accuracy, task_accuracy
from .numerics import (
    Activation,
    backward_truncated,
    pad_velocity,
    post_activations,
    selected_bce,
    sgd_step,
)
from .plasticity import FREEZE_SCOPES, SPLIT_INITS, PlasticNetwork, drift_thresholds

log = logging.getLogger(__name__)

SCOPE_CHOICES = ("hybrid",) + FREEZE_SCOPES
# ``hybrid``'s probe: its epochs on the frozen trunk (0: no probe), and the
# epoch loss at or below which the trunk encodes the task, which then
# finishes there
PROBE_EPOCHS = 2
PROBE_LOSS = 0.1


# numpy's bundled OpenBLAS, whose thread count ``one_blas_thread`` sets
OPENBLAS = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "libscipy_openblas64_*.so")


@contextlib.contextmanager
def one_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread, then restore its count:
    a product rounds differently on two threads, and the report bytes
    should not depend on the machine's thread count. ``run_lifelong``
    runs under it, and so does every ``pss`` command."""
    try:
        lib = ctypes.CDLL(glob.glob(OPENBLAS)[0])
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        log.warning("numpy's OpenBLAS thread control not found; BLAS threads left as set")
        yield
        return
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


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

    epoch_losses: list = field(default_factory=list)
    splits_per_epoch: list = field(default_factory=list)
    filler_count: int = 0


class TaskRun:
    """The network's open task ``net.task``: trainable rows' velocity
    (``pad_velocity``), ``start``, the first layer a step trains, the
    frozen-row cache, shuffle generator, report,
    while ``hybrid``'s probe runs, ``head``: the output row's weights and
    bias at open, and ``carry``, the run's pool activations of the last
    boundary (``evaluate_boundary``), emptied once a step can move a row
    below the output layer."""

    def __init__(self, net, task_data, config, carry=None):
        config.validate()
        self.net, self.data, self.config, self.carry = net, task_data, config, carry
        self.started = time.perf_counter()
        task = net.grow_output()
        scope, probe = config.freeze_scope, False
        if scope == "hybrid":  # a probe on the frozen trunk first, where a round could split
            probe = config.splitting_enabled and task > 0 and PROBE_EPOCHS > 0
            scope = "pss_only" if probe else "full_truncated"
        net.set_structural_freeze(scope)
        if config.magnitude_freeze_threshold > 0:
            log.debug("task %d: %d small weights frozen", task,
                      net.freeze_small_weights(config.magnitude_freeze_threshold))
        out = net.output_layer
        self.head = (out.weights[task].copy(), out.bias[task]) if probe else None
        self._open()

    def _open(self):
        """Start the task's epochs from its state at open: the snapshot
        where a round can read it, zero velocity, a fresh shuffle, an
        empty report."""
        net, config, task = self.net, self.config, self.net.task
        if task > 0 and config.splitting_enabled and net.freeze_scope == "full_truncated":
            net.take_snapshot()  # a round can split: old neurons train
        self.velocity = None
        self._fit_structure()
        self.shuffle_rng, self.report = rng_for(config.seed, 1, task), TaskReport()
        self.epoch, self.loss_sum = 0, 0.0

    def _fit_structure(self, reset=()):
        """At task open and after a round that grew: make the trainable
        rows' velocity (``pad_velocity``, 0 in the ``reset`` rows), find
        ``start``, the first layer that trains, and cache what a step
        reads of the rows that cannot train. A step from below the output
        layer moves rows the carry was computed with: it is emptied first."""
        self.velocity = pad_velocity(self.velocity, self.net.layers, reset)
        self.start = self.net.first_trained()
        if self.carry and self.start < len(self.net.layers) - 1:
            self.carry.clear()
        self.cache = self.net.frozen_activations(self.data.source, self.data.rows)

    def batches(self):
        """One epoch's minibatches: the task's row indices in the next
        shuffle order, cut into ``batch_size`` slices."""
        order, size = self.shuffle_rng.permutation(len(self.data)), self.config.batch_size
        return [order[start:start + size] for start in range(0, len(order), size)]

    def step(self, idx):
        """Train on the task's rows ``idx`` over the layers from ``start``
        on; returns the batch loss. The gradients are written into the
        velocity's spare (made here if missing), where ``sgd_step`` turns
        them into the new velocity."""
        k, data, head = self.start, self.data, self.net.task
        x = data.source[data.rows[idx]] if k == 0 else self.cache[k - 1][idx]
        trace = self.net.trace(x, self.cache and [c[idx] for c in self.cache[k:]], k)
        layers, velocity, yb = self.net.layers[k:], self.velocity[k:], data.y[idx]
        loss = selected_bce(trace.output, head, yb)
        self.loss_sum += loss * len(idx)
        grads = backward_truncated(layers, trace, yb, head, [v.spares() for v in velocity])
        sgd_step(layers, grads, self.config.learning_rate, self.config.momentum, velocity)
        return loss

    def end_epoch(self):
        """Record the epoch loss and, while the snapshot is held, run the
        splitting round at this epoch's thresholds, first dropping the
        velocity's spares (with no round the next step writes its gradients
        into them); returns its ``SplitReport`` or None.
        After a split (under ``hybrid``, once in ``pss_only``) velocity covers
        the rows that train, 0 for appended neurons and split originals.
        The probe's last epoch (``PROBE_EPOCHS``, or every epoch of a
        shorter task) ends it: above ``PROBE_LOSS`` the head row goes back
        to ``head`` and the task opens again under ``full_truncated``."""
        net, config, report = self.net, self.config, self.report
        report.epoch_losses.append(self.loss_sum / len(self.data))
        self.loss_sum, round_report = 0.0, None
        if net.snapshot is not None:  # none is held through a round, which may grow the layers
            for v in self.velocity:
                v.spare = None
            round_report = net.splitting_round(self.epoch, config.sigma, config.delta,
                                               config.split_init)
        report.splits_per_epoch.append(round_report.total_splits if round_report else 0)
        if round_report and round_report.total_splits:
            report.filler_count += round_report.total_fillers
            if config.freeze_scope == "hybrid":
                net.set_structural_freeze("pss_only")
                net.snapshot = None  # every snapshot row is frozen: none can split again
            self._fit_structure(round_report.splits)  # the round grew and reverted rows
            log.info("task %d epoch %d: %d splits, %d fillers", net.task, self.epoch,
                     round_report.total_splits, round_report.total_fillers)
        self.epoch += 1
        if self.head is not None and self.epoch == min(PROBE_EPOCHS, config.epochs_per_task):
            head, self.head = self.head, None
            if report.epoch_losses[-1] > PROBE_LOSS:  # the trunk cannot encode the task
                log.info("task %d: probe loss %.4f, restarting under hybrid", net.task,
                         report.epoch_losses[-1])
                net.output_layer.weights[net.task], net.output_layer.bias[net.task] = head
                net.set_structural_freeze("full_truncated")
                self._open()
        return round_report

    def close(self):
        """Release the task's snapshot (nothing reads it after the last
        epoch) and return the report."""
        report, net = self.report, self.net
        net.snapshot = None
        log.info("task %d done in %.2fs: sizes %s, epoch losses %s",
                 net.task, time.perf_counter() - self.started,
                 net.hidden_sizes(), [round(loss, 4) for loss in report.epoch_losses])
        return report


def train_task(net, task_data, config, carry=None):
    """Train the network's next task end to end on ``task_data``; the
    ``carry`` of ``evaluate_boundary``, when given, is emptied unless every
    step trains the output row alone (``TaskRun``)."""
    run = TaskRun(net, task_data, config, carry)
    while run.epoch < config.epochs_per_task:
        for idx in run.batches():
            run.step(idx)
        run.end_epoch()
    return run.close()


def evaluate_boundary(net, stream, upto, carry=None):
    """Binary accuracy of every task trained so far, plus multiclass.

    Both come from the logits of the multiclass pool: each task's test
    set is a set of pool rows (``TaskDataset.rows``), scored on those
    rows' logits at the task's output node.

    ``carry``, the list ``run_lifelong`` keeps between boundaries (see
    the module docstring), holds the pool's post-activations of the last
    hidden layer and its logits as this call leaves them. A non-empty one
    means the task trained its output row alone, so only that row's
    column is computed, from the carried layer; else the pool is
    forwarded once. Both ways use the same row blocks and one matmul per
    output run, so the logits are the same bytes.
    """
    if carry:  # only the open task's output row moved since the last boundary
        hidden = carry[0]
        logits = post_activations(net.layers[-1:], hidden, cached=carry[1:])[0]
    else:
        keep = len(net.layers) - (1 if carry is None else 2)
        hidden, logits = post_activations(net.layers, stream.pool_x, keep_from=keep)[-2:]
    if carry is not None:
        carry[:] = hidden, logits
    row = [task_accuracy(logits[task.test.rows, j], task.test.y)
           for j, task in enumerate(stream.tasks[:upto + 1])]
    return row, multiclass_accuracy(logits, stream.pool_y)


def run_lifelong(stream, config, mode="pss"):
    """Train every task in the stream in order, as a ``pss`` command does
    (see the module docstring); returns (net, report)."""
    config.validate()
    if not len(stream):
        raise ValueError("empty task stream")
    n_features = stream.tasks[0].train.source.shape[1]
    net = PlasticNetwork.new(n_features, list(config.hidden_sizes),
                             rng_for(config.seed, 0), config.leaky_slope)
    report = RunReport(mode=mode, seed=config.seed, config=config.to_dict())
    # the boundary's carry, kept only where a later task can train its
    # output row alone: under ``pss_only``, and where ``hybrid``'s probe runs
    heads_alone = config.freeze_scope == "pss_only" or (
        config.freeze_scope == "hybrid" and config.splitting_enabled and PROBE_EPOCHS > 0)
    carry = [] if heads_alone else None
    with one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        for task in stream:
            task_report = train_task(net, task.train, config, carry)
            problems = net.check_masks()
            if problems:
                raise AssertionError(
                    f"mask invariants violated after task {net.task}: {problems}")
            row, mc = evaluate_boundary(net, stream, net.task, carry)
            report.accuracy_matrix.append(row)
            report.multiclass.append(mc)
            report.hidden_sizes.append(net.hidden_sizes())
            report.parameter_counts.append(net.parameter_count())
            report.split_counts.append(sum(task_report.splits_per_epoch))
            report.filler_counts.append(task_report.filler_count)
            report.epoch_losses.append(task_report.epoch_losses)
    return net, report


def run_baseline_finetune(stream, config):
    """Same architecture, no splitting, nothing frozen: the forgetful
    baseline every lifelong method is measured against."""
    baseline_cfg = replace(config, splitting_enabled=False,
                           freeze_scope="full_truncated")
    return run_lifelong(stream, baseline_cfg, mode="baseline-finetune")
