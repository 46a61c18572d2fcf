"""Drift detection, neuron splitting and generation-isolated growth.

The network trains one binary task at a time. Every hidden neuron and
every output node carries a generation tag: the index of the task that
created it. At the start of a task whose rounds can split, the incoming
weights of all hidden neurons are snapshotted (``take_snapshot``).
While the task trains, each old neuron's semantic drift is the squared
L2 distance between its current incoming weights (plus bias) and the
snapshot. A neuron whose drift exceeds the current threshold is split:
a copy carrying the drifted weights is appended as a new neuron of the
current generation, and the original is reverted to its snapshot so
whatever it encoded for earlier tasks is restored.
A splitting round appends each layer's copies, or its support filler,
in one edit (``_append_hidden``), layer by layer from the first.

Generations are isolated by one connectivity rule for every layer,
output nodes included (output node ``j`` belongs to generation ``j``):

    edge u -> v is structurally absent iff generation(u) > generation(v),

so information flows from old structure into new structure but never
back, and earlier tasks' output logits stay unchanged to the last bit
as long as the old generations themselves are frozen.

The hidden tags are the only stored structure; an output node's tag is
its index. Because tags never decrease along a layer, each generation
run of a layer's rows sees exactly a prefix of its input columns: one
``(r0, r1, c1)`` run per generation, and the rows that train are the
trailing ones from ``train_from`` on.
``PlasticNetwork.set_structural_freeze`` derives both from (tags, task,
freeze scope); it runs after every change of structure, task or scope.
A magnitude freeze (``freeze_small_weights``) is stored once, as each
layer's ``frozen`` set, and growth leaves it as it is.

Thresholds grow as a task ages: the threshold for layer ``l`` after
``e`` completed epochs is ``sigma[l] + e * delta[l]``
(``drift_thresholds``), so early drift splits readily while late drift
has to be large.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    DEFAULT_LEAKY_SLOPE,
    IDENTITY,
    Activation,
    DimensionError,
    MaskedLayer,
    MaskError,
    forward,
    he_normal,
    post_activations,
)


@dataclass(frozen=True)
class NeuronTag:
    """Identity of one hidden neuron: layer, position, creating task."""

    layer: int
    index: int
    generation: int


@dataclass
class Snapshot:
    """Hidden-layer weights and biases as they stood at task start."""

    weights: list
    biases: list


def drift_thresholds(sigma, delta, n_layers, epoch):
    """Per-layer split threshold ``epoch`` completed epochs into a task:
    ``sigma[l] + epoch * delta[l]``, computed from the epoch rather than
    by repeated addition. ``sigma`` and ``delta`` are each a scalar or
    one finite, non-negative value per hidden layer."""
    spread = []
    for value, name in ((sigma, "sigma"), (delta, "delta")):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            arr = np.full(n_layers, float(arr))
        if arr.shape != (n_layers,):
            raise DimensionError(
                f"{name} must be a scalar or one value per hidden layer "
                f"({n_layers}), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")
        if np.any(arr < 0):
            raise ValueError(f"{name} must be non-negative")
        spread.append(arr)
    sigma, delta = spread
    return [float(sigma[l] + epoch * delta[l]) for l in range(n_layers)]


@dataclass
class SplitReport:
    """What one splitting round did."""

    task: int
    epoch: int
    thresholds: list
    splits: list = field(default_factory=list)    # NeuronTag of each original
    new_neurons: list = field(default_factory=list)  # NeuronTag of each copy
    fillers: list = field(default_factory=list)   # NeuronTag of support fillers
    drifts: list = field(default_factory=list)    # drift value per split, same order

    @property
    def total_splits(self):
        return len(self.splits)

    @property
    def total_fillers(self):
        return len(self.fillers)


def generation_runs(gens):
    """Maximal runs of equal generation as (start, stop) pairs.

    Generations are appended in non-decreasing order, so runs for old
    generations keep their boundaries forever; only the newest run can
    extend. That stability is what lets the forward pass reproduce old
    pre-activations bit for bit after the network grows.
    """
    cuts = [i for i in range(1, len(gens)) if gens[i] != gens[i - 1]]
    bounds = [0, *cuts, len(gens)] if len(gens) else []
    return list(zip(bounds, bounds[1:]))


FREEZE_SCOPES = ("full_truncated", "pss_only")
SPLIT_INITS = ("drifted", "reverted")  # where a split's copy starts


class PlasticNetwork:
    """Feedforward binary-multi-head network that grows by splitting.

    ``layers`` holds the hidden layers followed by one output layer.
    The output layer starts empty and gains one node per task via
    ``grow_output``; node ``j`` belongs to task ``j``. The hidden
    generation tags and the task are the structural state; the output
    tags and the layers' runs and ``train_from`` are derived from them
    (``set_structural_freeze``). The training loop drives the
    network from outside.
    """

    def __init__(self, layers, hidden_gens, task=-1, rng=None,
                 freeze_scope="full_truncated"):
        if len(layers) < 2 or len(hidden_gens) != len(layers) - 1 \
                or layers[-1].fan_out != int(task) + 1:
            raise DimensionError("need hidden layers, one tag list each, and an "
                                 "output layer of one node per task so far")
        self.layers = layers
        self.hidden_gens = [list(int(g) for g in gs) for gs in hidden_gens]
        self.task = int(task)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.snapshot = None
        self._split_done = [set() for _ in self.hidden_layers]
        self.set_structural_freeze(freeze_scope)

    # -- construction ----------------------------------------------------

    @classmethod
    def new(cls, n_features, hidden_sizes, rng, slope=DEFAULT_LEAKY_SLOPE):
        """Fresh network: He-initialised hidden trunk, empty output layer.

        The trunk belongs to generation 0, the task that trains first.
        """
        if not hidden_sizes or any(int(h) < 1 for h in hidden_sizes):
            raise DimensionError("hidden_sizes must be non-empty, all >= 1")
        layers = []
        fan_in = int(n_features)
        for h in hidden_sizes:
            h = int(h)
            layers.append(MaskedLayer(he_normal(h, fan_in, rng), np.zeros(h),
                                      activation=Activation(slope)))
            fan_in = h
        layers.append(MaskedLayer(np.zeros((0, fan_in)), np.zeros(0),
                                  activation=IDENTITY))
        gens = [[0] * int(h) for h in hidden_sizes]
        return cls(layers, gens, task=-1, rng=rng)

    # -- views -------------------------------------------------------------

    @property
    def hidden_layers(self):
        return self.layers[:-1]

    @property
    def output_layer(self):
        return self.layers[-1]

    @property
    def output_gens(self):
        """Generation tag of each output node: its task."""
        return list(range(self.task + 1))

    @property
    def n_hidden_layers(self):
        return len(self.layers) - 1

    @property
    def n_outputs(self):
        return self.output_layer.fan_out

    @property
    def n_features(self):
        return self.layers[0].fan_in

    def hidden_sizes(self):
        return [l.fan_out for l in self.hidden_layers]

    def parameter_count(self):
        """Structurally present weights plus biases."""
        return sum(sum((r1 - r0) * c1 for r0, r1, c1 in l.runs) + l.fan_out
                   for l in self.layers)

    def predict(self, x):
        """Logits for every output node, shape (n, n_outputs), computed one
        block of images at a time (``row_blocks``), so the pass holds the
        logits and one block of two layers (see ``post_activations``)."""
        return post_activations(self.layers, x, keep_from=len(self.layers) - 1)[-1]

    def trace(self, x, cached=None, start=0):
        """Forward trace through ``layers[start:]`` of ``x``: the images
        when ``start`` is 0, else layer ``start - 1``'s post-activations.
        ``cached`` holds the rows of ``frozen_activations`` that belong to
        ``x``, one array per layer from ``start`` on."""
        return forward(self.layers[start:], x, cached)

    def first_trained(self):
        """Index of the first layer with a trainable row (``train_from <
        fan_out``), where a training step starts; ``len(layers)`` when no
        row trains. Every row of the layers below it is frozen."""
        return next((i for i, layer in enumerate(self.layers)
                     if layer.train_from < layer.fan_out), len(self.layers))

    def frozen_activations(self, source, rows):
        """What a training step reads of the frozen rows over the images
        ``source[rows]``, or None when every layer trains from row 0: with
        ``k = first_trained()``, the post-activations of layer ``k - 1``
        (every row of it, the step's input) and of each later layer's rows
        before its ``train_from``. The layers below ``k - 1`` hold None:
        they are computed block by block on the way up and not kept.

        Under ``pss_only`` those rows are frozen and, by the edge rule,
        depend only on frozen rows below, so these values hold until a
        split reverts a frozen row. The cache takes ``len(rows) * 8``
        bytes per kept column: at most 4.4 MB in ``pss train --preset
        synthetic --train-size 20000`` (the last task, 4000 images, layer
        1's 128 units and 9 frozen output rows), where keeping every
        frozen row would take 14.4 MB.

        Only those rows are computed: each layer's frozen runs, which end
        at its ``train_from``, read the frozen rows of the layer below in
        the same matmuls as ``forward``. The images are gathered and
        forwarded one block at a time (``row_blocks``), each kept layer's
        block written straight into the cache, so a cached row is
        bit-identical to the matching column of ``forward`` over its
        block, and the build holds the cache plus one block of images and
        of each layer below ``k - 1``.
        """
        if not any(layer.train_from for layer in self.layers):
            return None
        return post_activations(self.layers, source, rows,
                                [l.train_from for l in self.layers],
                                keep_from=max(self.first_trained() - 1, 0))

    # -- task boundaries ---------------------------------------------------

    def grow_output(self):
        """Open task ``task + 1``: append its output node and advance
        ``task``, the one record of the open task; returns the new index.

        The node receives He-initialised weights from every hidden
        neuron of the last layer (all of them are of its generation or
        older) and a zero bias. A magnitude freeze and the snapshot of
        the previous task are dropped.
        """
        self.task += 1
        out = self.output_layer
        out.weights = np.vstack([out.weights, he_normal(1, out.fan_in, self.rng)])
        out.bias = np.concatenate([out.bias, [0.0]])
        for layer in self.layers:
            layer.frozen = None
        self.set_structural_freeze(self.freeze_scope)
        self.snapshot = None
        return self.task

    def take_snapshot(self):
        """Record the hidden weights and biases as ``snapshot``, the open
        task's drift reference, and clear the record of its splits."""
        self.snapshot = Snapshot([l.weights.copy() for l in self.hidden_layers],
                                 [l.bias.copy() for l in self.hidden_layers])
        self._split_done = [set() for _ in self.hidden_layers]

    # -- drift and splitting -------------------------------------------------

    def semantic_drift(self, layer_index):
        """Squared L2 drift of each neuron's incoming weights and bias.

        Neurons appended after the snapshot have no reference row and
        report exactly 0.0. Columns appended after the snapshot are
        structural zeros for old neurons, so they contribute nothing.
        """
        if self.snapshot is None:
            raise ValueError("no snapshot; take_snapshot records one at task open")
        layer = self.hidden_layers[layer_index]
        snap_w = self.snapshot.weights[layer_index]
        snap_b = self.snapshot.biases[layer_index]
        m0, k0 = snap_w.shape
        drift = np.zeros(layer.fan_out)
        diff = layer.weights[:m0, :k0] - snap_w
        drift[:m0] = np.sum(np.square(diff, out=diff), axis=1)
        drift[:m0] += (layer.bias[:m0] - snap_b) ** 2
        return drift

    def _append_hidden(self, layer_index, rows, biases):
        """Append current-generation neurons, one incoming row over the full
        fan-in and one bias each, to a hidden layer in one edit: one
        ``vstack``, one ``hstack`` of the next layer, one
        ``set_structural_freeze``. Returns the first new neuron's index.

        In the next layer, current-generation units (hidden neurons, or
        this task's output node) get a random weight from each new neuron,
        older units a structural zero. The columns are drawn neuron by
        neuron in row order, neuron ``j`` at std ``sqrt(2 / (fan_in + j +
        1))`` over the next layer's fan-in before the edit.
        """
        layer = self.hidden_layers[layer_index]
        n, first = len(rows), layer.fan_out
        if np.shape(rows) != (n, layer.fan_in) or np.shape(biases) != (n,):
            raise DimensionError("incoming rows and biases do not match the layer")
        layer.weights = np.vstack([layer.weights, rows])
        layer.bias = np.concatenate([layer.bias, biases])
        self.hidden_gens[layer_index] += [self.task] * n
        down = self.layers[layer_index + 1]
        live = np.asarray((self.hidden_gens + [self.output_gens])[layer_index + 1]) >= self.task
        std = np.sqrt(2.0 / (down.fan_in + np.arange(1, n + 1)))
        cols = np.zeros((down.fan_out, n))
        cols[live] = self.rng.normal(0.0, std[:, None], size=(n, int(live.sum()))).T
        down.weights = np.hstack([down.weights, cols])
        self.set_structural_freeze(self.freeze_scope)
        return first

    def split_neurons(self, layer_index, indices, split_init="drifted"):
        """Split neurons of one layer: revert each original to its snapshot
        row and bias (zeros in the columns appended since), and append the
        copies in one ``_append_hidden``, in the order of ``indices``. Each
        copy is taken from the row it starts as: the drifted row, before
        the revert (``split_init="drifted"``), or the reverted original
        (``"reverted"``). Each index must be in the snapshot, not split yet
        this task and not repeated; on any refusal nothing changes. Returns
        the originals' tags and the copies' tags.
        """
        if split_init not in SPLIT_INITS:
            raise ValueError(f"unknown split_init {split_init!r}")
        if self.snapshot is None:
            raise ValueError("no snapshot; take_snapshot records one at task open")
        snap_w = self.snapshot.weights[layer_index]
        snap_b = self.snapshot.biases[layer_index]
        done, indices = self._split_done[layer_index], list(indices)
        for i in indices:
            if not 0 <= i < snap_w.shape[0]:
                raise ValueError(f"neuron {i} of layer {layer_index} is not in the snapshot")
            if i in done:
                raise ValueError(f"neuron {i} of layer {layer_index} already split this task")
        if len(set(indices)) != len(indices):
            raise ValueError(f"a neuron of layer {layer_index} is repeated in {indices}")
        layer, k0 = self.hidden_layers[layer_index], snap_w.shape[1]
        drifted = (layer.weights[indices], layer.bias[indices]) if split_init == "drifted" else None
        layer.weights[indices, :k0] = snap_w[indices]
        layer.weights[indices, k0:] = 0.0
        layer.bias[indices] = snap_b[indices]
        rows, biases = drifted or (layer.weights[indices], layer.bias[indices])
        first = self._append_hidden(layer_index, rows, biases)
        done.update(indices)
        gens = self.hidden_gens[layer_index]
        return ([NeuronTag(layer_index, i, gens[i]) for i in indices],
                [NeuronTag(layer_index, first + j, self.task) for j in range(len(indices))])

    def ensure_support_path(self):
        """Give every hidden layer a current-generation neuron.

        Same-generation edges are always structurally present, and this
        task's output node is of generation ``g``, so once every hidden
        layer holds a generation-``g`` neuron there is a path from the
        input through generation-``g`` structure to that output node.
        Layers that already have one are left alone; the rest get a
        He-initialised filler, appended by ``_append_hidden``.
        """
        added = []
        for l, layer in enumerate(self.hidden_layers):
            if self.task not in self.hidden_gens[l]:
                idx = self._append_hidden(l, he_normal(1, layer.fan_in, self.rng), [0.0])
                added.append(NeuronTag(l, idx, self.task))
        return added

    def splitting_round(self, epoch, sigma, delta, split_init="drifted"):
        """Measure drift everywhere, split what exceeds the threshold.

        The thresholds are ``drift_thresholds`` at ``epoch``, the epoch
        the report records; the comparison is strict, so drift exactly
        at the threshold does not split. Each layer, from the first,
        splits in one ``split_neurons`` edit, so its copies are fixed
        before the next layer is edited. If anything split, each layer
        still without a current-generation neuron gets a support filler
        (``ensure_support_path``); a layer that split has one, so each
        layer grows in at most one edit per round.
        """
        thresholds = drift_thresholds(sigma, delta, self.n_hidden_layers, epoch)
        report = SplitReport(task=self.task, epoch=epoch, thresholds=thresholds)
        drifts = [self.semantic_drift(l) for l in range(self.n_hidden_layers)]
        for l, (drift, threshold) in enumerate(zip(drifts, thresholds)):
            # rows appended after the snapshot drift 0.0, never above a threshold
            chosen = [i for i in np.flatnonzero(drift > threshold).tolist()
                      if i not in self._split_done[l]]
            if chosen:
                originals, copies = self.split_neurons(l, chosen, split_init)
                report.splits += originals
                report.new_neurons += copies
                report.drifts += [float(drift[i]) for i in chosen]
        if report.total_splits:
            report.fillers = self.ensure_support_path()
        return report

    # -- freezing ------------------------------------------------------------

    def set_structural_freeze(self, scope):
        """Enter ``scope``; derive each layer's runs and ``train_from``.

        The only writer of them; it runs after every change of
        structure, task or scope. Each layer gets one
        ``(r0, r1, c1)`` run per generation run of its rows, where ``c1``
        counts the source units of the rows' generation or older (a
        prefix, since tags never decrease; every feature for layer 0).

        ``full_truncated``: every structurally present weight trains;
        old tasks are shielded only by gradient truncation at the
        output layer.

        ``pss_only``: only the incoming weights and biases of
        generation-``g`` hidden neurons and of this task's output node
        train, which (with the masked topology) keeps earlier tasks'
        logits bit-identical through further training.

        Each layer's ``train_from`` is its first trainable row: the start
        of the current generation's run under ``pss_only`` (``fan_out``
        when there is none), 0 under ``full_truncated``. A layer's
        ``frozen`` set is left as it is.
        """
        if scope not in FREEZE_SCOPES:
            raise ValueError(f"unknown freeze scope {scope!r}")
        self.freeze_scope = scope
        tags = self.hidden_gens + [self.output_gens]
        for i, (layer, gens) in enumerate(zip(self.layers, tags)):
            layer.runs = [(r0, r1, bisect_right(tags[i - 1], gens[r0])
                           if i else layer.fan_in) for r0, r1 in generation_runs(gens)]
            layer.train_from = bisect_left(gens, self.task) if scope == "pss_only" else 0

    def freeze_small_weights(self, threshold):
        """Freeze weights with ``|w| < threshold`` for the rest of the task.

        Applies to present weights only, never biases or structural
        zeros. Each layer's ``frozen`` set is captured now, over the
        weights as they stand, and survives scope rebuilds and growth;
        positions created after the capture are unaffected, and
        ``grow_output`` clears it. A threshold of 0 freezes nothing,
        because the comparison is strict. Returns how many weights froze.
        """
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        for layer in self.layers:
            layer.frozen = np.abs(layer.weights) < threshold
            for r0, r1, c1 in layer.runs:
                layer.frozen[r0:r1, c1:] = False
        return sum(int(layer.frozen.sum()) for layer in self.layers)

    # -- invariants ------------------------------------------------------------

    def check_masks(self):
        """Audit every structural invariant; return violation strings:
        hidden tags lie in ``0..task`` (0 before the first task), each
        layer has one non-decreasing tag per unit and one input per unit
        of the layer below, and valid parameters, runs and frozen sets
        (``MaskedLayer.validate``)."""
        problems = []
        newest = max(self.task, 0)
        if not all(0 <= g <= newest for gens in self.hidden_gens for g in gens):
            problems.append(f"hidden tags not all in 0..{newest}")
        names = [f"layer {i}" for i in range(self.n_hidden_layers)] + ["output layer"]
        tags = self.hidden_gens + [self.output_gens]
        for i, (name, layer, gens) in enumerate(zip(names, self.layers, tags)):
            if len(gens) != layer.fan_out:
                problems.append(f"{name}: {len(gens)} tags for {layer.fan_out} units")
            if any(a > b for a, b in zip(gens, gens[1:])):
                problems.append(f"{name}: generations not non-decreasing")
            if i and layer.fan_in != self.layers[i - 1].fan_out:
                problems.append(f"{name}: fan-in {layer.fan_in} for "
                                f"{self.layers[i - 1].fan_out} units below")
            try:
                layer.validate()
            except (MaskError, DimensionError, FloatingPointError) as e:
                problems.append(f"{name}: {e}")
        return problems
