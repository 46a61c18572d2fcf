"""Dense float64 layers with structural, hand-derived backpropagation.

A layer is a weight matrix plus bias, its structure and its first
trainable row. The structure is a list of row runs ``(r0, r1, c1)``:
rows ``r0:r1`` see the input columns ``:c1``, and every weight past that
prefix is a structural zero (an edge that does not exist and stays
exactly 0.0). Trainability is structure: the present weights and the
biases of the rows from ``train_from`` on train. An optional bool set
``frozen`` freezes weights inside them (a magnitude freeze, or the
gradient checker's random masks), over the corner of the weights that
existed when it was taken: growth only appends rows and columns.
``conn_mask`` and ``train_mask`` are dense views, built on demand and
never read by training.
Backpropagation is derived by hand for the fixed affine + activation
layer form and truncated so the loss gradient enters only at one output
node, the head of the task that trains.

Pre-activations are computed one run at a time, each run against the
prefix of input columns it can see (see ``MaskedLayer.affine``). Once a
run is closed its operand shapes never change over the life of a
network, which keeps the floating-point summation order stable when
rows or columns are appended. This is what makes outputs of untouched
subnetworks reproducible to the bit after the network has grown.

One pass, ``post_activations``, serves the training step (``forward``),
``predict`` and the frozen-row cache. It makes one matmul per run, and
one bias add, one finiteness check and one activation per layer. It
keeps no pre-activation: with a slope in [0, 1], backward reads the
derivative off the post-activation.

Each layer keeps the operands of its runs, its *run plan*: per run the
rows ``r0:r1``, the prefix ``c1``, the weight view
``weights[r0:r1, :c1].T`` and the index of the run's columns in the
result. The plan is built by the first ``affine`` after ``weights`` or
``runs`` is rebound and dropped by the rebinding itself, so it never
reads a replaced array or keeps one alive. The weights are rebound by
an SGD step of a layer that trains from row 0, which swaps in the
spare its velocity keeps (the replaced array becomes that velocity's
spare, owned by the velocity alone), by a grown row or column and by a
new structure. In-place writes (a step from a ``train_from`` above 0, a
split's revert) show through its views, and a copied or unpickled
layer builds its own. So a call pays for its BLAS calls, one output
slice per run and a slice of the input only for a run that sees part of
it, not for rebuilding every run's operands: on one image through 10
runs in each of 3 layers that is 30 matmuls and little else.

Every row before ``train_from`` is frozen, and by the edge rule sees
only input columns before the ``train_from`` of the layer below. A
training step starts at the first layer with a trainable row: the
caller passes ``forward``, ``backward_truncated`` and ``sgd_step`` the
layers from there on, with the post-activations of the layer below as
the input (the images when the step starts at layer 0), and each of
them computes only the rows from ``train_from`` on. ``forward`` takes
the frozen rows' post-activations from a cache when one is given;
gradients and velocity (``LayerGrads``) both cover the trainable rows
only (only ``pad_velocity`` makes a velocity), the only rows
``sgd_step`` reads and writes. A training step allocates
no parameter-sized array and keeps no gradient array:
``backward_truncated`` writes the gradients into the spare each layer's
velocity keeps, and
``sgd_step`` turns them there into the new velocity and writes the new
parameters into the rest of that spare.
With ``train_from`` 0 (the default, and every layer outside the
``pss_only`` scope) each of them does exactly the dense arithmetic.
"""

from dataclasses import dataclass, field

import numpy as np

DEFAULT_LEAKY_SLOPE = 0.01
ACTIVATION_ROWS = 64  # rows per step of ``Activation.apply_in_place``, its one temporary


class DimensionError(ValueError):
    """Operand shapes do not line up."""


class NonFiniteError(FloatingPointError):
    """A NaN or infinity appeared where all values must be finite."""


class MaskError(ValueError):
    """A structural invariant is broken (runs, structural zeros, frozen set)."""


def sigmoid(z):
    """Numerically stable logistic function: with ``e = exp(-|z|)``, which
    cannot overflow, ``1 / (1 + e)`` where ``z >= 0`` and ``e / (1 + e)``
    elsewhere."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(z):
    # log(1 + exp(z)) without overflow for large |z|
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


@dataclass(frozen=True)
class Activation:
    """Leaky ReLU ``max(z, slope * z)``, applied to a layer's
    pre-activations; a slope of 1 is the identity."""

    slope: float = DEFAULT_LEAKY_SLOPE

    def __post_init__(self):
        # also rejects NaN; apply_in_place and derivative rely on the range
        if not 0.0 <= self.slope <= 1.0:
            raise ValueError(f"activation slope {self.slope!r} is outside [0, 1]")

    def apply_in_place(self, z):
        """Activate ``z`` in place, bit for bit ``np.where(z > 0, z, slope * z)``:
        with 0 <= slope <= 1, ``slope * z`` is the larger of the two exactly
        where ``z <= 0`` (and equal to ``z`` where they tie). A slope of 1
        leaves every finite ``z`` as it is, so it is skipped."""
        if self.slope == 1.0:
            return z
        if len(z) <= ACTIVATION_ROWS:
            return np.maximum(z, z * self.slope, out=z)
        for r in range(0, len(z), ACTIVATION_ROWS):
            rows = z[r:r + ACTIVATION_ROWS]
            np.maximum(rows, rows * self.slope, out=rows)
        return z

    def derivative(self, a):
        """The derivative at the pre-activations whose activations are ``a``:
        with slope >= 0, ``a > 0`` exactly where the pre-activation is."""
        return np.maximum(a > 0, self.slope)  # np.where(a > 0, 1.0, slope), branch-free


IDENTITY = Activation(1.0)


def he_normal(fan_out, fan_in, rng):
    """Zero-mean normal init with std sqrt(2 / fan_in)."""
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=(fan_out, fan_in))


def run_mask(runs, shape):
    """Dense 0/1 array of ``shape``, 1.0 where one of ``runs`` has an edge."""
    mask = np.zeros(shape)
    for r0, r1, c1 in runs:
        mask[r0:r1, :c1] = 1.0
    return mask


def _as_float_matrix(a, name):
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    return a


class MaskedLayer:
    """One dense layer: weights, bias, row runs and first trainable row.

    Invariants, enforced by ``validate`` and preserved by every
    operation in this module:

    * ``runs`` tile the rows in order, each seeing a prefix ``:c1`` of
      the input columns (one run over the whole layer by default);
    * ``weights`` are exactly 0.0 past each run's prefix (a structurally
      absent edge holds no weight and never trains);
    * ``frozen`` is None or a 2-D bool array no larger than the weights:
      a True freezes the weight at that position of their top-left
      corner.
    """

    def __init__(self, weights, bias, runs=None, frozen=None, activation=IDENTITY):
        self.weights = _as_float_matrix(weights, "weights")
        fan_out, fan_in = self.weights.shape
        self.bias = np.ascontiguousarray(bias, dtype=np.float64)
        if self.bias.shape != (fan_out,):
            raise DimensionError(
                f"bias shape {self.bias.shape} does not match fan_out {fan_out}")
        self.runs = [(0, fan_out, fan_in)] if runs is None else list(runs)
        self.frozen = frozen
        self.activation = activation
        self.train_from = 0
        self.validate()

    def __setattr__(self, name, value):
        # rebinding the weights or the runs drops the run plan (see the
        # module docstring); ``affine`` builds the next one when it is needed
        if name in ("weights", "runs"):
            self.__dict__["_plan"] = None
        object.__setattr__(self, name, value)

    def __getstate__(self):
        # a deep copy of the plan would copy its views instead of viewing
        # the copied weights, so a copy (or a pickle) builds its own plan
        return {**self.__dict__, "_plan": None}

    @property
    def fan_out(self):
        return self.weights.shape[0]

    @property
    def fan_in(self):
        return self.weights.shape[1]

    @property
    def conn_mask(self):
        """Dense 0/1 view of ``runs``: 1.0 where an edge exists."""
        return run_mask(self.runs, self.weights.shape)

    @property
    def train_mask(self):
        """Dense 0/1 view of the weights that train (runs, ``train_from``, ``frozen``)."""
        mask = self.conn_mask
        mask[:self.train_from] = 0.0
        _zero_frozen(mask, self.frozen, 0)
        return mask

    def validate(self):
        frozen = self.frozen
        if frozen is not None:
            if not isinstance(frozen, np.ndarray) or frozen.dtype != bool or frozen.ndim != 2:
                raise MaskError("frozen set must be a 2-D bool array")
            if frozen.shape[0] > self.fan_out or frozen.shape[1] > self.fan_in:
                raise DimensionError(
                    f"frozen set {frozen.shape} exceeds weights {self.weights.shape}")
        ends = [0] + [r1 for _, r1, _ in self.runs]
        if [r0 for r0, _, _ in self.runs] != ends[:-1] or ends[-1] != self.fan_out \
                or any(r1 < r0 or not 0 <= c1 <= self.fan_in for r0, r1, c1 in self.runs):
            raise MaskError(f"runs {self.runs!r:.80} do not tile {self.fan_out} rows "
                            f"within fan_in {self.fan_in}")
        for r0, r1, c1 in self.runs:
            if np.any(self.weights[r0:r1, c1:]):
                raise MaskError("nonzero weight at a structurally masked position")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise NonFiniteError("layer parameters contain NaN/Inf")

    def affine(self, x, start=0, stop=None, out=None):
        """Compute ``x @ weights.T + bias`` for rows ``start:stop`` (to the
        last row when ``stop`` is None): one matmul per run, then one
        bias add over all the rows.

        Each run's rows are multiplied by the input columns they see
        only, so its results are unaffected by rows or columns appended
        after it, and ``x`` may stop after the columns that the computed
        runs see. Each run's product is written in place in its block of
        the result, which is ``out`` when given (shaped
        ``(len(x), stop - start)``). The bias is added to the finished
        products, so every entry is still its run's product plus its
        bias, rounded once.

        The operands come from the layer's run plan, one
        ``(r0, r1, c1, weights[r0:r1, :c1].T, columns of the result)`` per
        non-empty run. A run costs its matmul and one output slice, and
        reads ``x`` unsliced when it sees every column of it. ``start`` and
        ``stop`` must fall on run boundaries, as a layer's ``train_from``
        and the stops of ``post_activations`` do: a window that cuts a run
        raises ``DimensionError``.
        """
        fan_out, fan_in = self.weights.shape
        stop = fan_out if stop is None else stop
        if x.ndim != 2 or x.shape[1] > fan_in:
            raise DimensionError(
                f"input shape {x.shape} incompatible with fan_in {fan_in}")
        width = x.shape[1]
        z = np.empty((len(x), stop - start)) if out is None else out
        plan = self._plan
        if plan is None:
            plan = self._plan = [(r0, r1, c1, self.weights[r0:r1, :c1].T, np.s_[:, r0:r1])
                                 for r0, r1, c1 in self.runs if r0 < r1]
        for r0, r1, c1, w_t, cols in plan:
            if start <= r0 and r1 <= stop:
                if c1 > width:
                    raise DimensionError(
                        f"rows {r0}:{r1} see {c1} input columns, input has {width}")
                # ``out`` by position and ``...`` in the slice: with numpy 2.4 the
                # keyword form costs each call ~0.5 us more, and ``:`` ~0.1 us
                np.matmul(x if c1 == width else x[..., :c1], w_t,
                          z[cols] if start == 0 else z[:, r0 - start:r1 - start])
            elif r0 < stop and start < r1:
                raise DimensionError(f"rows {start}:{stop} cut the run of rows {r0}:{r1}")
        z += self.bias if start == 0 and stop == fan_out else self.bias[start:stop]
        return z


@dataclass
class ForwardTrace:
    """Per-layer post-activations for one mini-batch: ``post[i]`` holds
    every row of layer ``i``, cached or computed."""

    inputs: np.ndarray
    post: list

    @property
    def output(self):
        return self.post[-1] if self.post else self.inputs

    def layer_input(self, i):
        return self.inputs if i == 0 else self.post[i - 1]


def forward(layers, batch, cached=None):
    """Run ``batch`` through ``layers`` and record the trace: the training
    step's ``post_activations``.

    ``cached``, when given, holds one array per layer: the
    post-activations of the layer's first ``cached[i].shape[1]`` rows
    for this batch. Those rows are copied into the trace and only the
    rows after them are computed. A batch of fewer than
    ``2 * BLOCK_ROWS`` rows is one block; a larger one is forwarded
    block by block (``row_blocks``).
    """
    inputs = _as_float_matrix(batch, "batch")
    return ForwardTrace(inputs=inputs, post=post_activations(layers, inputs, cached=cached))


# Images per block of ``post_activations``; the last block takes the rest.
# Measured with OpenBLAS 0.3.31 (AVX-512, one thread): a product of fewer
# than about 600 rows, or one whose rows start off a multiple of 12, can
# round a row differently from a single pass over the whole batch. Blocks
# of 768 rows, the last one up to 1535, match a single pass bit for bit.
BLOCK_ROWS = 768


def row_blocks(n):
    """Slices covering rows ``0:n`` in order: ``BLOCK_ROWS`` rows each, the
    last one taking the remainder (one slice, possibly empty, for
    ``n < 2 * BLOCK_ROWS``)."""
    last = max(n - BLOCK_ROWS, 0) // BLOCK_ROWS * BLOCK_ROWS
    return [slice(a, a + BLOCK_ROWS) for a in range(0, last, BLOCK_ROWS)] + [slice(last, n)]


def post_activations(layers, source, rows=None, stops=None, cached=None, keep_from=0):
    """Post-activations of rows ``:stops[i]`` (all rows when ``stops`` or
    its entry is None) of every layer ``i`` from ``keep_from`` on (None
    for the layers below it, whose rows are computed on the way up but
    not kept) over the images ``source[rows]`` (all of ``source``, in
    order, when ``rows`` is None). A layer's first ``cached[i].shape[1]``
    columns, when ``cached`` is given, are copied from it and only the
    columns after them are computed.

    The images are gathered and forwarded one ``row_blocks`` block at a
    time, and each kept layer's block is computed and activated in place
    in its rows of the result. So the pass holds its results and one
    block of images and of two layers, never all the images or all of a
    layer.
    """
    n = len(source) if rows is None else len(rows)
    stops = stops or [None] * len(layers)
    out = [None if i < keep_from
           else np.empty((n, layer.fan_out if stop is None else stop))
           for i, (layer, stop) in enumerate(zip(layers, stops))]
    # per layer, read once per call: index, layer, first computed unit,
    # stop, result and activation
    passes = [(i, layer, 0 if cached is None else cached[i].shape[1], stop, o,
               layer.activation.apply_in_place)
              for i, (layer, stop, o) in enumerate(zip(layers, stops, out))]
    for block in row_blocks(n):
        x = _as_float_matrix(source[block] if rows is None else source[rows[block]], "batch")
        if layers and x.shape[1] != layers[0].fan_in:
            raise DimensionError(
                f"batch has {x.shape[1]} features, first layer expects {layers[0].fan_in}")
        if not np.isfinite(x).all():
            raise NonFiniteError("batch contains NaN/Inf")
        for i, layer, start, stop, o, activate in passes:
            if start:
                o[block, :start] = cached[i][block]
            z = layer.affine(x, start, stop, out=None if o is None else o[block, start:])
            if not np.isfinite(z).all():
                raise NonFiniteError(f"non-finite pre-activation at layer {i}")
            activate(z)
            x = z if o is None else o[block]
    return out


@dataclass
class LayerGrads:
    """Gradients or velocity, shaped like ``weights[train_from:]``, ``bias[train_from:]``.

    A velocity, made by ``pad_velocity`` only, keeps ``spare``, four arrays
    of its shapes (None until ``spares`` makes them, and once an owner
    that no longer needs them drops them): a step's gradients are written
    into the first two, where ``sgd_step`` turns them into the next
    velocity, and the next parameters into the other two."""

    weights: np.ndarray
    bias: np.ndarray
    spare: tuple = field(default=None, repr=False, compare=False)

    def spares(self):
        """``spare``, made first if it is None (the one place it is made)."""
        if self.spare is None:
            self.spare = tuple(np.empty(a.shape) for a in (self.weights, self.bias) * 2)
        return self.spare


def _selection(head, targets, n, out_dim):
    """The ``(n, 1)`` 0/1 targets of output ``head``, checked with it; they
    may be given as ``(n,)``."""
    if not 0 <= head < out_dim:
        raise IndexError(f"output index {head} out of range [0, {out_dim})")
    y = np.asarray(targets, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape != (n, 1):
        raise DimensionError(f"targets shape {y.shape} does not match batch {n} x one head")
    if not n:
        raise DimensionError("empty batch")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("targets must be exactly 0 or 1")
    return y


def backward_truncated(layers, trace, targets, head, out=None):
    """Gradients of the truncated mean BCE loss for every layer.

    The loss is the mean binary cross-entropy of ``sigmoid`` over the
    final post-activations at output ``head`` only; gradient enters the
    network at exactly that output node. Returned gradients are
    exactly zero past each run's prefix (at every structural zero), and
    at every weight in a layer's ``frozen`` set.

    Gradients cover each layer's rows from ``train_from`` on only. The
    rows before it are frozen and, by the edge rule, see no input
    column from the lower layer's ``train_from`` on, so the error is
    propagated through ``weights[o:, o_below:]`` alone and the
    trainable rows get exactly the dense gradient.

    ``targets`` is ``(n,)`` or ``(n, 1)``, 0 or 1 per image. ``out``, when
    given, holds per layer arrays shaped like its gradients, weights
    then bias (a velocity's ``spare``): the gradients are written into
    them, and the returned gradients are those arrays.
    """
    if len(trace.post) != len(layers):
        raise DimensionError("trace layer count does not match layers")
    final = trace.output
    y = _selection(head, targets, *final.shape)

    # dL/da at the head, its column an (n, 1) block; everything else stays exactly zero.
    d_post = np.zeros_like(final)
    d_post[:, [head]] = (sigmoid(final[:, [head]]) - y) / y.size

    grads = [None] * len(layers)
    top = layers[-1]
    delta = d_post[:, top.train_from:] * top.activation.derivative(final[:, top.train_from:])
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        o = layer.train_from
        x = trace.layer_input(i)
        d_w = np.matmul(delta.T, x, out=None if out is None else out[i][0])
        d_b = delta.sum(axis=0, out=None if out is None else out[i][1])
        for r0, r1, c1 in layer.runs:
            if r1 > o:
                d_w[max(r0, o) - o:r1 - o, c1:] = 0.0
        _zero_frozen(d_w, layer.frozen, o)
        grads[i] = LayerGrads(d_w, d_b)
        if i > 0:
            below = layers[i - 1]
            delta = delta @ layer.weights[o:, below.train_from:]
            delta *= below.activation.derivative(trace.post[i - 1][:, below.train_from:])
    return grads


def _zero_frozen(a, frozen, o):
    # zero ``a``, weight rows ``o:o + len(a)`` of a layer, where its ``frozen`` set does
    if frozen is not None:
        rows = frozen[o:o + len(a)]
        a[:len(rows), :rows.shape[1]] *= ~rows  # a multiply: masked stores are slower


def pad_velocity(velocity, layers, reset=()):
    """Make a velocity (the only maker): that of each layer's rows from
    ``train_from`` on, from ``velocity`` over every row (None: the zero one).
    An entry is kept where its row still trains; appended rows and columns
    and the ``reset`` tags' rows are 0."""
    out = [LayerGrads(np.zeros_like(l.weights[l.train_from:]),
                      np.zeros_like(l.bias[l.train_from:])) for l in layers]
    for i, (v, new) in enumerate(zip(velocity or (), out)):
        o = layers[i].train_from
        kept_w, kept_b = v.weights[o:], v.bias[o:]
        new.weights[:len(kept_b), :kept_w.shape[1]], new.bias[:len(kept_b)] = kept_w, kept_b
        rows = [tag.index - o for tag in reset if tag.layer == i and tag.index >= o]
        new.weights[rows] = new.bias[rows] = 0.0
    return out


# Entries per block of ``sgd_step``: 256 KiB of float64 in each of the at
# most five arrays a block touches (velocity, gradient, parameters and the
# two it writes), which stay within a 2 MB L2 cache.
SGD_BLOCK = 32768


def sgd_step(layers, grads, learning_rate, momentum, velocity):
    """One SGD-with-momentum update of the trainable rows and, in place, of
    ``velocity`` (``pad_velocity`` makes it); all or nothing, returns None.

    Only each layer's rows from ``train_from`` on are read or written,
    and ``grads`` and ``velocity`` have exactly their shape; ``grads``
    are zero past every run's prefix (as ``backward_truncated`` returns
    them), so structural zeros stay 0.0. A weight in a layer's ``frozen``
    set does not move and its velocity is forced to exactly 0.

    Every shape is checked first. Then, one block of ``SGD_BLOCK``
    entries' rows at a time, each layer's new velocity ``g + m * v`` and
    new parameters ``w + (-lr * v')`` are computed, each rounded as in a
    whole-array pass, into the spares its velocity keeps
    (``LayerGrads.spares``), and each block is checked for finiteness.
    ``m * v`` is staged in the parameter spare, so ``g`` may be the
    velocity spare itself (a training step's gradient is) or a separate
    array; ``g + m * v`` rounds exactly as ``m * v + g``. Only after
    every layer has passed is anything stored: the new velocity is
    swapped in, and a whole layer's new weights and bias are swapped in
    too; from a ``train_from`` above 0 the new rows are copied into
    place. The replaced arrays become the next step's spares, so a step
    allocates no parameter-sized array, and a ``DimensionError`` or
    ``NonFiniteError`` leaves layers and velocity as they were (only the
    spares, and a gradient written there, are scratch).
    """
    if len(grads) != len(layers) or len(velocity) != len(layers):
        raise DimensionError("grads/velocity length does not match layers")
    for layer, g, v in zip(layers, grads, velocity):
        o = layer.train_from
        rows = (layer.weights[o:].shape, layer.bias[o:].shape)
        if not (g.weights.shape, g.bias.shape) == (v.weights.shape, v.bias.shape) == rows:
            raise DimensionError(f"gradient or velocity not shaped like the rows {o}: of a layer")
    for layer, g, v in zip(layers, grads, velocity):
        v_w, v_b, w, b = v.spares()
        o, step = layer.train_from, max(SGD_BLOCK // max(layer.fan_in, 1), 1)
        for r in range(0, len(w), step):
            block = slice(r, r + step)
            w_block = np.multiply(v.weights[block], momentum, out=w[block])
            v_block = np.add(g.weights[block], w_block, out=v_w[block])
            _zero_frozen(v_block, layer.frozen, o + r)
            # w + (-lr * v) rounds exactly as w - lr * v, with no temporary
            np.multiply(v_block, -learning_rate, out=w_block)
            w_block += layer.weights[o + r:o + r + step]
            if not np.isfinite(w_block).all():
                raise NonFiniteError("non-finite parameter after SGD update")
        np.multiply(v.bias, momentum, out=b)
        np.add(g.bias, b, out=v_b)
        np.multiply(v_b, -learning_rate, out=b)
        b += layer.bias[o:]
        if not np.isfinite(b).all():
            raise NonFiniteError("non-finite parameter after SGD update")
    for layer, v in zip(layers, velocity):
        v_w, v_b, w, b = v.spare
        if layer.train_from:  # frozen rows stay put
            layer.weights[layer.train_from:], layer.bias[layer.train_from:] = w, b
        else:  # a whole layer is swapped, its old arrays kept as spares
            w, b, layer.weights, layer.bias = layer.weights, layer.bias, w, b
        v.spare, v.weights, v.bias = (v.weights, v.bias, w, b), v_w, v_b


def selected_bce(trace_output, head, targets):
    """The truncated loss that ``backward_truncated`` differentiates: the
    mean of ``softplus(z) - z * y``, finite for any finite logit, over the
    column ``z`` of output ``head`` in ``trace_output``."""
    y = _selection(head, targets, *trace_output.shape)
    z = trace_output[:, [head]]
    return float(np.mean(_softplus(z) - z * y))


@dataclass
class GradcheckReport:
    """Outcome of comparing analytic gradients to central finite differences."""

    max_rel_error: float
    checked: int
    frozen_checked: int
    frozen_nonzero: int
    tolerance: float

    @property
    def passed(self):
        return self.max_rel_error < self.tolerance and self.frozen_nonzero == 0


def _random_masked_net(dims, rng, zero_prob, freeze_prob):
    layers = []
    for i in range(1, len(dims)):
        fan_in, fan_out = dims[i - 1], dims[i]
        # random zeros, frozen so that they never train, and random frozen weights
        zero = rng.random((fan_out, fan_in)) < zero_prob
        frozen = zero | (rng.random((fan_out, fan_in)) < freeze_prob)
        w = he_normal(fan_out, fan_in, rng) * ~zero
        b = rng.normal(0.0, 0.1, size=fan_out)
        act = IDENTITY if i == len(dims) - 1 else Activation()
        layers.append(MaskedLayer(w, b, frozen=frozen, activation=act))
    return layers


def gradcheck(layer_dims, seed=0, zero_prob=0.0, freeze_prob=0.0, tolerance=1e-5):
    """Check ``backward_truncated`` against central finite differences.

    Builds one random masked network for ``layer_dims`` (first entry is
    the input width, last the output width) and random binary targets for
    three images, then, with each output in turn as the head, perturbs
    every parameter by ``+-1e-5`` (``checked`` and ``frozen_checked``
    count once per head). Trainable positions are compared by relative
    error; frozen or structurally absent positions must report an exactly
    zero analytic gradient. The relative-error denominator is floored at
    1e-4, which turns the check into a tight absolute test for near-zero
    gradients instead of an ill-conditioned ratio.
    """
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError("layer_dims needs >= 2 entries, all >= 1")
    batch, step = 3, 1e-5
    rng = np.random.default_rng(seed)
    layers = _random_masked_net(dims, rng, zero_prob, freeze_prob)
    x = rng.standard_normal((batch, dims[0]))
    targets = rng.integers(0, 2, size=(batch, dims[-1])).astype(np.float64)

    max_rel = 0.0
    checked = frozen_checked = frozen_nonzero = 0
    for head, y in enumerate(targets.T):
        grads = backward_truncated(layers, forward(layers, x), y, head)
        for layer, g in zip(layers, grads):
            for arr, garr, frozen in (
                    (layer.weights, g.weights, layer.frozen),
                    (layer.bias, g.bias, np.zeros(layer.fan_out, dtype=bool))):
                flat = arr.reshape(-1)
                gflat = garr.reshape(-1)
                fflat = frozen.reshape(-1)
                for j in range(flat.size):
                    if fflat[j]:
                        frozen_checked += 1
                        if gflat[j] != 0.0:
                            frozen_nonzero += 1
                        continue
                    orig = flat[j]
                    flat[j] = orig + step
                    up = selected_bce(forward(layers, x).output, head, y)
                    flat[j] = orig - step
                    down = selected_bce(forward(layers, x).output, head, y)
                    flat[j] = orig
                    fd = (up - down) / (2.0 * step)
                    rel = abs(gflat[j] - fd) / max(abs(gflat[j]), abs(fd), 1e-4)
                    max_rel = max(max_rel, rel)
                    checked += 1
    return GradcheckReport(max_rel_error=max_rel, checked=checked,
                           frozen_checked=frozen_checked,
                           frozen_nonzero=frozen_nonzero, tolerance=tolerance)
