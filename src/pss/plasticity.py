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

Generations are isolated by the connectivity rule

    edge u -> v between hidden neurons is structurally absent
    iff generation(u) > generation(v),

so information flows from old structure into new structure but never
back. Hidden-to-output edges are exempt from the rule; instead, a new
neuron's weights toward pre-existing output nodes start at exactly 0.0
and receive no gradient (the loss enters only at the current task's
output), which keeps earlier tasks' output logits unchanged to the last
bit as long as the old generations themselves are frozen.

The tags are the only stored structure. Every layer's connectivity and
trainability masks, and the block partition of the forward pass, are
derived from (tags, task, freeze scope, magnitude-freeze set) by
``PlasticNetwork.set_structural_freeze``, which runs after every change
of structure, task or scope.

Thresholds escalate as a task ages: the effective threshold for layer
``l`` after ``e`` completed epochs is ``sigma[l] + e * delta[l]``, so
early drift splits readily while late drift has to be large.
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    DEFAULT_LEAKY_SLOPE,
    IDENTITY,
    DimensionError,
    MaskedLayer,
    MaskError,
    forward,
    he_normal,
    leaky_relu,
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

    task: int
    weights: list
    biases: list

    @classmethod
    def of(cls, network):
        return cls(task=network.task,
                   weights=[l.weights.copy() for l in network.hidden_layers],
                   biases=[l.bias.copy() for l in network.hidden_layers])


class DriftSchedule:
    """Per-layer split threshold that grows with epochs into the task.

    ``current(l)`` is always computed as ``sigma[l] + epochs_elapsed *
    delta[l]`` from the stored integers, never by repeated addition, so
    the threshold for a given epoch is the same no matter how the
    schedule got there.
    """

    def __init__(self, sigma, delta, n_layers):
        self.sigma = self._spread(sigma, n_layers, "sigma")
        self.delta = self._spread(delta, n_layers, "delta")
        self.epochs_elapsed = 0

    @staticmethod
    def _spread(value, n_layers, name):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            arr = np.full(n_layers, float(arr))
        if arr.shape != (n_layers,):
            raise DimensionError(
                f"{name} must be a scalar or one value per hidden layer "
                f"({n_layers}), got shape {arr.shape}")
        if np.any(arr < 0):
            raise ValueError(f"{name} must be non-negative")
        return arr

    def current(self, layer):
        return float(self.sigma[layer] + self.epochs_elapsed * self.delta[layer])

    def escalate(self):
        self.epochs_elapsed += 1

    def reset(self):
        self.epochs_elapsed = 0


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
    extend. That stability is what lets the blocked forward pass
    reproduce old pre-activations bit for bit after the network grows.
    """
    cuts = [i for i in range(1, len(gens)) if gens[i] != gens[i - 1]]
    bounds = [0, *cuts, len(gens)] if len(gens) else []
    return list(zip(bounds, bounds[1:]))


FREEZE_SCOPES = ("full_truncated", "pss_only")


class PlasticNetwork:
    """Feedforward binary-multi-head network that grows by splitting.

    ``layers`` holds the hidden layers followed by one output layer.
    The output layer starts empty and gains one node per task via
    ``grow_output``. The generation tags are the structural state;
    the layers' masks and the forward pass's block partition are
    derived from them (``set_structural_freeze``). The training loop
    drives the network from outside.
    """

    def __init__(self, layers, hidden_gens, output_gens, task=-1, rng=None,
                 freeze_scope="full_truncated"):
        if len(layers) < 2:
            raise DimensionError("need at least one hidden layer plus the output layer")
        self.layers = layers
        self.hidden_gens = [list(int(g) for g in gs) for gs in hidden_gens]
        self.output_gens = [int(g) for g in output_gens]
        self.task = int(task)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.snapshot = None
        self.schedule = None
        self._split_done = [set() for _ in self.hidden_layers]
        self._small_frozen = None
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
                                      activation=leaky_relu(slope)))
            fan_in = h
        layers.append(MaskedLayer(np.zeros((0, fan_in)), np.zeros(0),
                                  activation=IDENTITY))
        gens = [[0] * int(h) for h in hidden_sizes]
        return cls(layers, gens, [], task=-1, rng=rng)

    # -- views -------------------------------------------------------------

    @property
    def hidden_layers(self):
        return self.layers[:-1]

    @property
    def output_layer(self):
        return self.layers[-1]

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
        return sum(int(l.conn_mask.sum()) + l.fan_out for l in self.layers)

    def current_output_index(self):
        """Index of the output node belonging to the current task."""
        gens = self.output_gens
        return gens.index(self.task) if self.task in gens else None

    def blocks(self):
        """Per-layer (row_blocks, col_blocks) for the stable forward pass.

        Hidden layers are partitioned by generation runs on both axes;
        the output layer uses one row block per output node so each
        logit's summation order is independent of its neighbours. Derived
        with the masks and cached until the next structural change.
        """
        return self._blocks

    def predict(self, x):
        """Logits for every output node, shape (n, n_outputs)."""
        return forward(self.layers, x, self.blocks()).output

    def trace(self, x):
        return forward(self.layers, x, self.blocks())

    # -- task boundaries ---------------------------------------------------

    def grow_output(self, task):
        """Open a new task: append its output node, advance the task index.

        The node receives He-initialised weights from every hidden
        neuron of the last layer (hidden-to-output edges are never
        structurally masked) and a zero bias. A magnitude freeze of the
        previous task is dropped.
        """
        if task != self.task + 1:
            raise ValueError(f"tasks must be opened in order; next is {self.task + 1}")
        self.task = task
        out = self.output_layer
        out.weights = np.vstack([out.weights, he_normal(1, out.fan_in, self.rng)])
        out.bias = np.concatenate([out.bias, [0.0]])
        self.output_gens.append(task)
        self._split_done = [set() for _ in self.hidden_layers]
        self._small_frozen = None
        self.set_structural_freeze(self.freeze_scope)
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
            raise ValueError("no snapshot; call take_snapshot at task start")
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
        drawn in row order; every older unit gets exactly 0.0, a masked
        edge for hidden neurons and an untrained one for old outputs.
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
        if split_init not in ("drifted", "reverted"):
            raise ValueError(f"unknown split_init {split_init!r}")
        if self.snapshot is None:
            raise ValueError("no snapshot; call take_snapshot at task start")
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

        Same-generation edges are always structurally present, and
        hidden-to-output edges are never masked, so once every hidden
        layer holds a generation-``g`` neuron there is a path from the
        input through generation-``g`` structure to this task's output
        node. Layers that already have one are left alone; the rest get
        a He-initialised filler.
        """
        added = []
        for l, layer in enumerate(self.hidden_layers):
            if self.task not in self.hidden_gens[l]:
                filler = he_normal(1, layer.fan_in, self.rng)[0]
                idx = self._append_hidden(l, filler, 0.0)
                added.append(NeuronTag(l, idx, self.task))
        return added

    def splitting_round(self, epoch, split_init="drifted"):
        """Measure drift everywhere, split what exceeds the threshold.

        Thresholds come from the schedule state at call time; the
        comparison is strict, so drift exactly at the threshold does not
        split. If anything split, every hidden layer is topped up with
        a support filler and the freeze masks are rebuilt for the
        current scope.
        """
        if self.schedule is None:
            raise ValueError("no drift schedule; call attach_schedule first")
        thresholds = [self.schedule.current(l) for l in range(self.n_hidden_layers)]
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
            self.set_structural_freeze(self.freeze_scope)
        return report

    # -- schedule ------------------------------------------------------------

    def attach_schedule(self, sigma, delta):
        self.schedule = DriftSchedule(sigma, delta, self.n_hidden_layers)
        return self.schedule

    # -- freezing ------------------------------------------------------------

    def set_structural_freeze(self, scope):
        """Enter ``scope`` and derive all masks and blocks from the tags.

        The only writer of layer masks and of the block partition; it
        runs after every change of structure, task or scope.

        ``full_truncated``: every structurally present weight trains;
        old tasks are shielded only by gradient truncation at the
        output layer.

        ``pss_only``: only the incoming weights and biases of
        generation-``g`` hidden neurons and of this task's output node
        train, which (with the masked topology) keeps earlier tasks'
        logits bit-identical through further training.

        A magnitude freeze recorded by ``freeze_small_weights`` stays on.
        """
        if scope not in FREEZE_SCOPES:
            raise ValueError(f"unknown freeze scope {scope!r}")
        self.freeze_scope = scope
        for i, layer in enumerate(self.layers):
            layer.conn_mask, layer.train_mask, layer.bias_train_mask = self._rule(i)
        rows = [generation_runs(g) for g in self.hidden_gens] + \
            [[(j, j + 1) for j in range(len(self.output_gens))]]
        self._blocks = list(zip(rows, [[(0, self.n_features)]] + rows[:-1]))

    def _rule(self, i):
        """``(conn_mask, train_mask, bias_train_mask)`` of layer ``i``.

        An edge exists iff its source is no newer than its target; the
        inputs count as oldest and output nodes see every hidden neuron.
        Under ``pss_only`` only rows of the current generation train.
        Magnitude-frozen positions never train.
        """
        rows = np.asarray((self.hidden_gens + [self.output_gens])[i], dtype=np.float64)
        cols = np.asarray(self.hidden_gens[i - 1], dtype=np.float64) if i \
            else np.full(self.n_features, -np.inf)
        sees = np.full(rows.shape, np.inf) if i == self.n_hidden_layers else rows
        conn = (cols[None, :] <= sees[:, None]).astype(np.float64)
        live = ((rows == self.task) | (self.freeze_scope != "pss_only")).astype(float)
        train = conn * live[:, None]
        if self._small_frozen is not None:
            small = self._small_frozen[i]
            train[:small.shape[0], :small.shape[1]][small] = 0.0
        return conn, train, live

    def freeze_small_weights(self, threshold):
        """Freeze weights with ``|w| < threshold`` for the rest of the task.

        Applies to weight matrices only, never biases. The frozen set is
        captured now and survives scope rebuilds; positions created
        after the capture are unaffected. A threshold of 0 freezes
        nothing, because the comparison is strict.
        """
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self._small_frozen = [
            (np.abs(layer.weights) < threshold) & (layer.conn_mask == 1.0)
            for layer in self.layers]
        self.set_structural_freeze(self.freeze_scope)
        return sum(int(m.sum()) for m in self._small_frozen)

    # -- invariants ------------------------------------------------------------

    def check_masks(self):
        """Audit every structural invariant; return violation strings:
        output tags are ``0..task``, each layer has one non-decreasing tag
        per unit, valid parameters, and exactly the masks ``_rule`` gives."""
        problems = []
        if self.output_gens != list(range(self.task + 1)):
            problems.append(f"output tags {self.output_gens} are not 0..{self.task}")
        names = [f"layer {i}" for i in range(self.n_hidden_layers)] + ["output layer"]
        tags = self.hidden_gens + [self.output_gens]
        for name, layer, gens in zip(names, self.layers, tags):
            if len(gens) != layer.fan_out:
                problems.append(f"{name}: {len(gens)} tags for {layer.fan_out} units")
            if any(a > b for a, b in zip(gens, gens[1:])):
                problems.append(f"{name}: generations not non-decreasing")
            try:
                layer.validate()
            except (MaskError, DimensionError, FloatingPointError) as e:
                problems.append(f"{name}: {e}")
        if problems:
            return problems
        for i, (name, layer) in enumerate(zip(names, self.layers)):
            got = (layer.conn_mask, layer.train_mask, layer.bias_train_mask)
            for kind, have, want in zip(("connectivity", "trainability", "bias"),
                                        got, self._rule(i)):
                if not np.array_equal(have, want):
                    problems.append(f"{name}: {kind} mask breaks the generation rule")
        return problems
