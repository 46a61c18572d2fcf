"""Drift detection, neuron splitting and generation-isolated growth.

The network trains one binary task at a time. Every hidden neuron and
every output node carries a generation tag: the index of the task that
created it. At task start the incoming weights of all hidden neurons
are snapshotted. While the task trains, each old neuron's semantic
drift is the squared L2 distance between its current incoming weights
(plus bias) and the snapshot. A neuron whose drift exceeds the current
threshold is split: a copy carrying the drifted weights is appended as
a new neuron of the current generation, and the original is reverted
to its snapshot so whatever it encoded for earlier tasks is restored.

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

    @classmethod
    def of(cls, network):
        return cls(weights=[l.weights.copy() for l in network.hidden_layers],
                   biases=[l.bias.copy() for l in network.hidden_layers])


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
        return post_activations(self.layers, x, last_only=True)[-1]

    def trace(self, x, cached=None):
        """Forward trace of ``x``; ``cached`` holds the rows of
        ``frozen_activations`` that belong to ``x``."""
        return forward(self.layers, x, cached)

    def frozen_activations(self, source, rows):
        """Post-activations over the images ``source[rows]`` of every layer's
        rows before its ``train_from``, or None when every layer trains
        from row 0.

        Under ``pss_only`` those rows are frozen and, by the edge rule,
        depend only on frozen rows below, so these values hold until a
        split reverts a frozen row. The cache takes
        ``len(rows) * sum(train_from) * 8`` bytes: at most 22.7 MB in
        ``pss train --preset synthetic --train-size 20000`` (the last
        task, 4000 images, 437 + 262 + 9 frozen rows).

        Only those rows are computed: each layer's frozen runs, which end
        at its ``train_from``, read the frozen rows of the layer below in
        the same matmuls as ``forward``. The images are gathered and
        forwarded one block at a time (``row_blocks``), each layer's block
        written straight into the cache, so a cached row is bit-identical
        to the matching column of ``forward`` over its block, and the
        build holds the cache plus one block of images.
        """
        if not any(layer.train_from for layer in self.layers):
            return None
        return post_activations(self.layers, source, rows,
                                [l.train_from for l in self.layers])

    # -- task boundaries ---------------------------------------------------

    def grow_output(self, task):
        """Open a new task: append its output node, advance the task index.

        The node receives He-initialised weights from every hidden
        neuron of the last layer (all of them are of its generation or
        older) and a zero bias. A magnitude freeze of the previous task
        is dropped.
        """
        if task != self.task + 1:
            raise ValueError(f"tasks must be opened in order; next is {self.task + 1}")
        self.task = task
        out = self.output_layer
        out.weights = np.vstack([out.weights, he_normal(1, out.fan_in, self.rng)])
        out.bias = np.concatenate([out.bias, [0.0]])
        self._split_done = [set() for _ in self.hidden_layers]
        for layer in self.layers:
            layer.frozen = None
        self.set_structural_freeze(self.freeze_scope)
        self.take_snapshot()
        return self.n_outputs - 1

    def take_snapshot(self):
        """Record hidden weights as the reference for this task's drift."""
        self.snapshot = Snapshot.of(self)
        return self.snapshot

    # -- drift and splitting -------------------------------------------------

    def semantic_drift(self, layer_index):
        """Squared L2 drift of each neuron's incoming weights and bias.

        Neurons appended after the snapshot have no reference row and
        report exactly 0.0. Columns appended after the snapshot are
        structural zeros for old neurons, so they contribute nothing.
        """
        if self.snapshot is None:
            raise ValueError("no snapshot; grow_output opens a task and takes one")
        layer = self.hidden_layers[layer_index]
        snap_w = self.snapshot.weights[layer_index]
        snap_b = self.snapshot.biases[layer_index]
        m0, k0 = snap_w.shape
        drift = np.zeros(layer.fan_out)
        diff = layer.weights[:m0, :k0] - snap_w
        drift[:m0] = np.sum(diff * diff, axis=1)
        drift[:m0] += (layer.bias[:m0] - snap_b) ** 2
        return drift

    def _append_hidden(self, layer_index, incoming, bias_value):
        """Append one neuron of the current generation to a hidden layer.

        ``incoming`` covers the layer's full current fan-in. In the next
        layer, current-generation units (hidden neurons, or this task's
        output node) get a random incoming weight from the new neuron,
        drawn in row order; every older unit, hidden or output, gets a
        structural zero.
        """
        layer = self.hidden_layers[layer_index]
        incoming = np.asarray(incoming, dtype=np.float64)
        if incoming.shape != (layer.fan_in,):
            raise DimensionError("incoming row does not match layer fan-in")
        layer.weights = np.vstack([layer.weights, incoming[None, :]])
        layer.bias = np.concatenate([layer.bias, [float(bias_value)]])
        self.hidden_gens[layer_index].append(self.task)

        down = self.layers[layer_index + 1]
        down_gens = (self.hidden_gens + [self.output_gens])[layer_index + 1]
        live = np.asarray(down_gens) >= self.task
        col = np.zeros((down.fan_out, 1))
        std = np.sqrt(2.0 / max(down.fan_in + 1, 1))
        col[live, 0] = self.rng.normal(0.0, std, size=int(live.sum()))
        down.weights = np.hstack([down.weights, col])
        self.set_structural_freeze(self.freeze_scope)
        return layer.fan_out - 1

    def split_neuron(self, layer_index, neuron_index, split_init="drifted"):
        """Split one drifted neuron: revert the original, append a copy.

        The copy belongs to the current generation and starts from the
        drifted incoming weights (``split_init="drifted"``) or from the
        snapshot row (``"reverted"``). The original gets its snapshot
        weights and bias back. Each neuron may split at most once per
        task, and only neurons that existed at the snapshot may split.
        """
        if split_init not in SPLIT_INITS:
            raise ValueError(f"unknown split_init {split_init!r}")
        if self.snapshot is None:
            raise ValueError("no snapshot; grow_output opens a task and takes one")
        snap_w = self.snapshot.weights[layer_index]
        snap_b = self.snapshot.biases[layer_index]
        if not 0 <= neuron_index < snap_w.shape[0]:
            raise ValueError(
                f"neuron {neuron_index} of layer {layer_index} is not in the snapshot")
        if neuron_index in self._split_done[layer_index]:
            raise ValueError(
                f"neuron {neuron_index} of layer {layer_index} already split this task")

        layer = self.hidden_layers[layer_index]
        k0 = snap_w.shape[1]
        if split_init == "drifted":
            incoming = layer.weights[neuron_index].copy()
            bias_value = float(layer.bias[neuron_index])
        else:
            incoming = np.zeros(layer.fan_in)
            incoming[:k0] = snap_w[neuron_index]
            bias_value = float(snap_b[neuron_index])

        # revert the original before the append resizes anything
        layer.weights[neuron_index, :k0] = snap_w[neuron_index]
        layer.weights[neuron_index, k0:] = 0.0
        layer.bias[neuron_index] = snap_b[neuron_index]

        new_index = self._append_hidden(layer_index, incoming, bias_value)
        self._split_done[layer_index].add(neuron_index)
        return (NeuronTag(layer_index, neuron_index,
                          self.hidden_gens[layer_index][neuron_index]),
                NeuronTag(layer_index, new_index, self.task))

    def ensure_support_path(self):
        """Give every hidden layer a current-generation neuron.

        Same-generation edges are always structurally present, and this
        task's output node is of generation ``g``, so once every hidden
        layer holds a generation-``g`` neuron there is a path from the
        input through generation-``g`` structure to that output node.
        Layers that already have one are left alone; the rest get a
        He-initialised filler.
        """
        added = []
        for l, layer in enumerate(self.hidden_layers):
            if self.task not in self.hidden_gens[l]:
                filler = he_normal(1, layer.fan_in, self.rng)[0]
                idx = self._append_hidden(l, filler, 0.0)
                added.append(NeuronTag(l, idx, self.task))
        return added

    def splitting_round(self, epoch, sigma, delta, split_init="drifted"):
        """Measure drift everywhere, split what exceeds the threshold.

        The thresholds are ``drift_thresholds`` at ``epoch``, the epoch
        the report records; the comparison is strict, so drift exactly
        at the threshold does not split. If anything split, every hidden
        layer is topped up with a support filler; each appended neuron
        has already derived the layers' structure again.
        """
        thresholds = drift_thresholds(sigma, delta, self.n_hidden_layers, epoch)
        report = SplitReport(task=self.task, epoch=epoch, thresholds=thresholds)
        drifts = [self.semantic_drift(l) for l in range(self.n_hidden_layers)]
        for l in range(self.n_hidden_layers):
            for i in range(self.snapshot.weights[l].shape[0]):
                if i not in self._split_done[l] and drifts[l][i] > thresholds[l]:
                    old_tag, new_tag = self.split_neuron(l, i, split_init)
                    report.splits.append(old_tag)
                    report.new_neurons.append(new_tag)
                    report.drifts.append(float(drifts[l][i]))
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
