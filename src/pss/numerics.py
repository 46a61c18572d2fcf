"""Dense float64 layers with masked, hand-derived backpropagation.

A layer is a weight matrix plus bias with two binary masks: the
connectivity mask marks structural zeros (edges that do not exist and
must stay exactly 0.0), the trainability mask marks frozen weights
(edges that exist but receive no updates). Backpropagation is derived
by hand for the fixed affine + activation layer form and can be
truncated so the loss gradient enters only at a chosen subset of
output nodes. Masks may hold any 0/1 pattern (the gradient checker
draws random ones); a growing network derives them from generation
tags (see ``plasticity``).

Pre-activations are accumulated block by block (see
``MaskedLayer.affine``). Within one block the operand shapes never
change over the life of a network, which keeps the floating-point
summation order stable when other blocks are appended. This is what
makes outputs of untouched subnetworks reproducible to the bit after
the network has grown.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_LEAKY_SLOPE = 0.01


class DimensionError(ValueError):
    """Operand shapes do not line up."""


class NonFiniteError(FloatingPointError):
    """A NaN or infinity appeared where all values must be finite."""


class MaskError(ValueError):
    """A mask invariant is broken (structural zeros, mask ordering)."""


def sigmoid(z):
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softplus(z):
    # log(1 + exp(z)) without overflow for large |z|
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


ACTIVATION_KINDS = ("identity", "leaky_relu")


@dataclass(frozen=True)
class Activation:
    """Elementwise activation, applied to a layer's pre-activations."""

    kind: str  # one of ACTIVATION_KINDS
    slope: float = DEFAULT_LEAKY_SLOPE

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")

    def apply(self, z):
        if self.kind == "identity":
            return z
        return np.where(z > 0, z, self.slope * z)

    def derivative(self, z):
        if self.kind == "identity":
            return np.ones_like(z)
        return np.where(z > 0, 1.0, self.slope)


IDENTITY = Activation("identity", slope=1.0)


def leaky_relu(slope=DEFAULT_LEAKY_SLOPE):
    return Activation("leaky_relu", slope)


def he_normal(fan_out, fan_in, rng):
    """Zero-mean normal init with std sqrt(2 / fan_in)."""
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=(fan_out, fan_in))


def _as_float_matrix(a, name):
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    return a


class MaskedLayer:
    """One dense layer: weights, bias, connectivity and trainability masks.

    Invariants, enforced by ``validate`` and preserved by every
    operation in this module:

    * ``weights[i, j] == 0.0`` exactly wherever ``conn_mask[i, j] == 0``;
    * ``train_mask <= conn_mask`` elementwise (a structurally absent
      edge is never trainable).

    Masks are float64 arrays holding exactly 0.0 or 1.0 so they can be
    multiplied straight into gradients.
    """

    def __init__(self, weights, bias, conn_mask=None, train_mask=None,
                 bias_train_mask=None, activation=IDENTITY):
        self.weights = _as_float_matrix(weights, "weights")
        fan_out, fan_in = self.weights.shape
        self.bias = np.ascontiguousarray(bias, dtype=np.float64)
        if self.bias.shape != (fan_out,):
            raise DimensionError(
                f"bias shape {self.bias.shape} does not match fan_out {fan_out}")
        if conn_mask is None:
            conn_mask = np.ones((fan_out, fan_in))
        self.conn_mask = _as_float_matrix(conn_mask, "conn_mask")
        if train_mask is None:
            train_mask = self.conn_mask.copy()
        self.train_mask = _as_float_matrix(train_mask, "train_mask")
        if bias_train_mask is None:
            bias_train_mask = np.ones(fan_out)
        self.bias_train_mask = np.ascontiguousarray(bias_train_mask, dtype=np.float64)
        self.activation = activation
        self.validate()

    @property
    def fan_out(self):
        return self.weights.shape[0]

    @property
    def fan_in(self):
        return self.weights.shape[1]

    def validate(self):
        for name, shape in (("conn_mask", self.weights.shape),
                            ("train_mask", self.weights.shape),
                            ("bias_train_mask", self.bias.shape)):
            m = getattr(self, name)
            if m.shape != shape:
                raise DimensionError(f"{name} shape {m.shape} != {shape}")
            if not np.all((m == 0.0) | (m == 1.0)):
                raise MaskError(f"{name} entries must be exactly 0 or 1")
        if np.any((self.conn_mask == 0.0) & (self.weights != 0.0)):
            raise MaskError("nonzero weight at a structurally masked position")
        if np.any(self.train_mask > self.conn_mask):
            raise MaskError("trainable weight at a structurally masked position")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise NonFiniteError("layer parameters contain NaN/Inf")

    def affine(self, x, row_blocks=None, col_blocks=None):
        """Compute ``x @ weights.T + bias`` with block-stable accumulation.

        ``row_blocks`` partitions this layer's units, ``col_blocks``
        partitions the input columns, both as lists of ``(start, stop)``
        pairs. Each (row block, col block) product is a separate matmul
        and blocks are accumulated in list order, so results for a block
        are unaffected by blocks appended after it.
        """
        if x.ndim != 2 or x.shape[1] != self.fan_in:
            raise DimensionError(
                f"input shape {x.shape} incompatible with fan_in {self.fan_in}")
        if row_blocks is None:
            row_blocks = [(0, self.fan_out)]
        if col_blocks is None:
            col_blocks = [(0, self.fan_in)]
        z = np.empty((x.shape[0], self.fan_out))
        for r0, r1 in row_blocks:
            acc = np.empty((x.shape[0], r1 - r0))
            acc[:] = self.bias[r0:r1]
            for c0, c1 in col_blocks:
                acc += x[:, c0:c1] @ self.weights[r0:r1, c0:c1].T
            z[:, r0:r1] = acc
        return z


@dataclass
class ForwardTrace:
    """Per-layer pre/post activations for one mini-batch."""

    inputs: np.ndarray
    pre: list
    post: list

    @property
    def output(self):
        return self.post[-1] if self.post else self.inputs

    def layer_input(self, i):
        return self.inputs if i == 0 else self.post[i - 1]


def forward(layers, batch, blocks=None):
    """Run ``batch`` through ``layers`` and record the full trace.

    ``blocks`` is an optional per-layer list of ``(row_blocks,
    col_blocks)`` pairs forwarded to ``MaskedLayer.affine``.
    """
    x = _as_float_matrix(batch, "batch")
    if layers and x.shape[1] != layers[0].fan_in:
        raise DimensionError(
            f"batch has {x.shape[1]} features, first layer expects {layers[0].fan_in}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("batch contains NaN/Inf")
    pre, post = [], []
    for i, layer in enumerate(layers):
        rb, cb = blocks[i] if blocks is not None else (None, None)
        z = layer.affine(x, rb, cb)
        if not np.all(np.isfinite(z)):
            raise NonFiniteError(f"non-finite pre-activation at layer {i}")
        a = layer.activation.apply(z)
        pre.append(z)
        post.append(a)
        x = a
    return ForwardTrace(inputs=np.ascontiguousarray(batch, dtype=np.float64),
                        pre=pre, post=post)


def bce_loss(logits, labels):
    """Mean binary cross-entropy of ``sigmoid(logits)`` against 0/1 labels.

    Uses the log-sum form ``softplus(z) - z * y`` so the result is finite
    for any finite logit.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if z.shape != y.shape:
        raise DimensionError(f"logits shape {z.shape} != labels shape {y.shape}")
    if z.size == 0:
        raise DimensionError("empty logits")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be exactly 0 or 1")
    return float(np.mean(_softplus(z) - z * y))


@dataclass
class LayerGrads:
    """Gradient (or velocity) arrays matching one layer's parameters."""

    weights: np.ndarray
    bias: np.ndarray


def _check_selection(selected_outputs, out_dim):
    sel = [int(s) for s in selected_outputs]
    if not sel:
        raise ValueError("selected_outputs must be non-empty")
    if len(set(sel)) != len(sel):
        raise ValueError("selected_outputs contains duplicates")
    for s in sel:
        if not 0 <= s < out_dim:
            raise IndexError(f"output index {s} out of range [0, {out_dim})")
    return sel


def backward_truncated(layers, trace, targets, selected_outputs):
    """Gradients of the truncated mean BCE loss for every layer.

    The loss is the mean binary cross-entropy of ``sigmoid`` over the
    final post-activations at ``selected_outputs`` only; gradient enters
    the network at exactly those output nodes. Returned gradients are
    zeroed wherever a layer's trainability mask is 0 (which covers all
    structural zeros as well).

    ``targets`` is ``(n, k)`` with columns aligned to the selection
    order, or ``(n,)`` when a single output is selected.
    """
    if len(trace.pre) != len(layers):
        raise DimensionError("trace layer count does not match layers")
    out = trace.output
    n, out_dim = out.shape
    sel = _check_selection(selected_outputs, out_dim)
    y = np.asarray(targets, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape != (n, len(sel)):
        raise DimensionError(
            f"targets shape {y.shape} does not match batch {n} x selection {len(sel)}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("targets must be exactly 0 or 1")

    # dL/da at the selected outputs; everything else stays exactly zero.
    d_post = np.zeros_like(out)
    d_post[:, sel] = (sigmoid(out[:, sel]) - y) / (n * len(sel))

    grads = [None] * len(layers)
    delta = d_post * layers[-1].activation.derivative(trace.pre[-1])
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        a_in = trace.layer_input(i)
        d_w = delta.T @ a_in
        d_b = delta.sum(axis=0)
        d_w *= layer.train_mask
        d_b *= layer.bias_train_mask
        grads[i] = LayerGrads(d_w, d_b)
        if i > 0:
            delta = (delta @ layer.weights) * layers[i - 1].activation.derivative(trace.pre[i - 1])
    return grads


def init_velocity(layers):
    return [LayerGrads(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in layers]


def pad_velocity(velocity, layers):
    """Grow velocity arrays to match layers that gained units; new slots are 0."""
    out = []
    for v, layer in zip(velocity, layers):
        if v.weights.shape == layer.weights.shape:
            out.append(v)
            continue
        w = np.zeros_like(layer.weights)
        m, k = v.weights.shape
        w[:m, :k] = v.weights
        b = np.zeros_like(layer.bias)
        b[:m] = v.bias
        out.append(LayerGrads(w, b))
    return out


def sgd_step(layers, grads, learning_rate, momentum, velocity=None):
    """One SGD-with-momentum update obeying both masks.

    Weights move only where the trainability mask is 1; velocity at
    frozen positions is forced to exactly 0 so a freshly frozen weight
    carries no residual momentum. Structural zeros are untouched because
    the trainability mask never exceeds the connectivity mask.
    """
    if velocity is None:
        velocity = init_velocity(layers)
    if len(grads) != len(layers) or len(velocity) != len(layers):
        raise DimensionError("grads/velocity length does not match layers")
    for layer, g, v in zip(layers, grads, velocity):
        if g.weights.shape != layer.weights.shape:
            raise DimensionError("gradient shape does not match layer")
        np.multiply(v.weights, momentum, out=v.weights)
        v.weights += g.weights
        v.weights *= layer.train_mask
        layer.weights -= learning_rate * v.weights
        np.multiply(v.bias, momentum, out=v.bias)
        v.bias += g.bias
        v.bias *= layer.bias_train_mask
        layer.bias -= learning_rate * v.bias
        if not (np.all(np.isfinite(layer.weights)) and np.all(np.isfinite(layer.bias))):
            raise NonFiniteError("non-finite parameter after SGD update")
    return velocity


def selected_bce(trace_output, selected_outputs, targets):
    """The truncated loss that ``backward_truncated`` differentiates."""
    sel = _check_selection(selected_outputs, trace_output.shape[1])
    y = np.asarray(targets, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    return bce_loss(trace_output[:, sel], y)


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
        conn = (rng.random((fan_out, fan_in)) >= zero_prob).astype(np.float64)
        train = conn * (rng.random((fan_out, fan_in)) >= freeze_prob)
        w = he_normal(fan_out, fan_in, rng) * conn
        b = rng.normal(0.0, 0.1, size=fan_out)
        b_train = (rng.random(fan_out) >= freeze_prob).astype(np.float64)
        act = IDENTITY if i == len(dims) - 1 else leaky_relu()
        layers.append(MaskedLayer(w, b, conn, train, b_train, act))
    return layers


def gradcheck(layer_dims, seed=0, batch=3, zero_prob=0.0, freeze_prob=0.0,
              step=1e-5, tolerance=1e-5):
    """Check ``backward_truncated`` against central finite differences.

    Builds one random masked network for ``layer_dims`` (first entry is
    the input width, last the output width), a random output selection
    and random binary targets, then perturbs every parameter by
    ``+-step``. Trainable positions are compared by relative error;
    frozen or structurally absent positions must report an exactly zero
    analytic gradient. The relative-error denominator is floored at 1e-4,
    which turns the check into a tight absolute test for near-zero
    gradients instead of an ill-conditioned ratio.
    """
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError("layer_dims needs >= 2 entries, all >= 1")
    rng = np.random.default_rng(seed)
    layers = _random_masked_net(dims, rng, zero_prob, freeze_prob)
    x = rng.standard_normal((batch, dims[0]))
    n_sel = int(rng.integers(1, dims[-1] + 1))
    sel = sorted(rng.choice(dims[-1], size=n_sel, replace=False).tolist())
    y = rng.integers(0, 2, size=(batch, n_sel)).astype(np.float64)

    grads = backward_truncated(layers, forward(layers, x), y, sel)

    def loss_now():
        return selected_bce(forward(layers, x).output, sel, y)

    max_rel = 0.0
    checked = frozen_checked = frozen_nonzero = 0
    for layer, g in zip(layers, grads):
        for arr, garr, mask in (
                (layer.weights, g.weights, layer.train_mask),
                (layer.bias, g.bias, layer.bias_train_mask)):
            flat = arr.reshape(-1)
            gflat = garr.reshape(-1)
            mflat = mask.reshape(-1)
            for j in range(flat.size):
                if mflat[j] == 0.0:
                    frozen_checked += 1
                    if gflat[j] != 0.0:
                        frozen_nonzero += 1
                    continue
                orig = flat[j]
                flat[j] = orig + step
                up = loss_now()
                flat[j] = orig - step
                down = loss_now()
                flat[j] = orig
                fd = (up - down) / (2.0 * step)
                rel = abs(gflat[j] - fd) / max(abs(gflat[j]), abs(fd), 1e-4)
                max_rel = max(max_rel, rel)
                checked += 1
    return GradcheckReport(max_rel_error=max_rel, checked=checked,
                           frozen_checked=frozen_checked,
                           frozen_nonzero=frozen_nonzero, tolerance=tolerance)
