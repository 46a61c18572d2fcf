"""Every trainer step against an independent dense reference.

The reference reads only the weights, the frozen set, the tags, the task
and the freeze scope, never the runs or ``train_from`` the engine
derives, and applies the paper's rule directly: layer ``i > 0`` has the
mask ``M[v, u] = gen(u) <= gen(v)`` (layer 0 sees every feature);
forward is the ``np.where`` leaky ReLU of ``x @ (W * M).T + b``, the
pre-activations kept; backward is dense, with the truncated BCE loss
and the derivative taken from the pre-activations; every row trains
under ``full_truncated``, the rows with ``gen == task`` under
``pss_only``, and the frozen set freezes weights inside them. The
reference keeps its own whole-layer velocity: zero at task start,
carried from step to step, and after a round that splits zero for the
appended neurons and in the rows of each split original.

``check_step`` is the suite's one step check, and the state machine of
``test_stateful`` and the cache tests of ``test_pss_only_step`` step
through it too. It takes one step of a ``TaskRun`` and compares every
layer's post-activations with the reference to ``RTOL`` of their
largest entry, and the parameters to ``RTOL`` of the layer's largest
parameter. Gradients and velocity are compared to ``RTOL`` of
``gradient_scales``: each of their entries is a sum that can cancel, so
its rounding error is bounded by the sum of the absolute terms behind
it, not by the entry. The step keeps no gradient: it writes the
gradients into its velocity's spare and turns them there into the new
velocity, so the check copies them as ``sgd_step`` receives them (a spy)
and asserts that they were written into that spare. The run keeps
gradients and velocity for the rows from ``train_from`` on only, so
those rows are compared. While some
``train_from`` is above 0, the check also asserts that each layer's
cache holds exactly its rows before ``train_from``, that those rows and
the earlier heads do not change by a bit, and that the reference
velocity is exactly 0 there: dropping those rows loses nothing. The
tests here drive each task's run step by step.
"""

import numpy as np
import pytest

from pss import trainer
from pss.data import TaskDataset
from pss.numerics import BLOCK_ROWS
from pss.plasticity import PlasticNetwork
from pss.trainer import TaskRun, TrainerConfig, rng_for

RTOL = 1e-12
N_FEATURES = 6


def assert_within(got, want, scale):
    """Equal shapes, and ``max|got - want| <= RTOL * scale``."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= RTOL * scale


def assert_close(got, want):
    """Equal shapes, and ``max|got - want| <= RTOL * max|want|``."""
    assert_within(got, want, np.max(np.abs(want), initial=0.0))


def masks(net):
    tags = [np.asarray(g) for g in net.hidden_gens + [net.output_gens]]
    return [np.ones(net.layers[0].weights.shape)] + [
        (below[None, :] <= gens[:, None]).astype(float)
        for below, gens in zip(tags, tags[1:])]


def slope(net, layer):  # the output layer is the identity
    return 1.0 if layer is net.output_layer else layer.activation.slope


def oracle_forward(net, x):
    """Pre- and post-activations of every layer."""
    pre, post = [], []
    for layer, m in zip(net.layers, masks(net)):
        z = x @ (layer.weights * m).T + layer.bias
        x = np.where(z > 0, z, slope(net, layer) * z)
        pre.append(z)
        post.append(x)
    return pre, post


def oracle_step(net, x, y, velocity, learning_rate, momentum):
    """Every layer's post-activations, the gradients, and the parameters and
    velocity after one SGD step; ``velocity`` is the reference's own, one
    ``(weights, bias)`` per layer."""
    pre, post = oracle_forward(net, x)
    out = net.output_gens.index(net.task)
    d_post = np.zeros_like(post[-1])
    d_post[:, out] = (1.0 / (1.0 + np.exp(-post[-1][:, out])) - y) / len(x)
    tags = net.hidden_gens + [net.output_gens]
    grads, params = [None] * len(net.layers), [None] * len(net.layers)
    for i, layer, m in reversed(list(zip(range(len(tags)), net.layers, masks(net)))):
        delta = d_post * np.where(pre[i] > 0, 1.0, slope(net, layer))
        rows = np.ones(layer.fan_out) if net.freeze_scope == "full_truncated" \
            else (np.asarray(tags[i]) == net.task).astype(float)
        keep_w, keep_b = m * rows[:, None], rows
        if layer.frozen is not None:
            k = layer.frozen.shape
            keep_w[:k[0], :k[1]] *= ~layer.frozen
        grads[i] = ((delta.T @ (x if i == 0 else post[i - 1])) * keep_w,
                    delta.sum(axis=0) * keep_b)
        v_w = (momentum * velocity[i][0] + grads[i][0]) * keep_w
        v_b = (momentum * velocity[i][1] + grads[i][1]) * keep_b
        params[i] = (layer.weights - learning_rate * v_w, layer.bias - learning_rate * v_b,
                     v_w, v_b)
        d_post = delta @ (layer.weights * m)
    return post, grads, params


def gradient_scales(net, x, y):
    """Per layer, the largest sum of absolute terms behind one entry of
    its weight or bias gradient in the reference's backward pass. A
    gradient is a sum that can cancel, so rounding leaves an error
    relative to this scale, not to the gradient itself."""
    pre, post = oracle_forward(net, x)
    d = np.zeros_like(post[-1])
    d[:, net.task] = np.abs(1.0 / (1.0 + np.exp(-post[-1][:, net.task])) - y) / len(x)
    scales = []
    for i, layer, m in reversed(list(zip(range(len(pre)), net.layers, masks(net)))):
        d = d * np.where(pre[i] > 0, 1.0, slope(net, layer))
        inputs = x if i == 0 else post[i - 1]
        scales.append(max(np.max(d.T @ np.abs(inputs), initial=0.0),
                          np.max(d.sum(axis=0), initial=0.0)))
        d = d @ np.abs(layer.weights * m)
    return scales[::-1]


def step_receiving(run, idx):
    """Take ``run``'s step on its rows ``idx``; returns copies of the
    gradients as ``sgd_step`` received them, which the step then turns
    into the new velocity, and asserts that they were the arrays of the
    velocity's spare."""
    received, sgd_step = [], trainer.sgd_step

    def spy(layers, grads, learning_rate, momentum, velocity):
        assert all(g.weights is v.spare[0] and g.bias is v.spare[1]
                   for g, v in zip(grads, velocity))
        received.append([(g.weights.copy(), g.bias.copy()) for g in grads])
        return sgd_step(layers, grads, learning_rate, momentum, velocity)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer, "sgd_step", spy)
        run.step(idx)
    [grads] = received
    return grads


def check_step(run, idx, velocity, scales):
    """Take ``run``'s step on its rows ``idx`` and check it against
    ``oracle_step`` from the reference's ``velocity``, whose entries are
    within ``RTOL * scales[i]`` of the run's in layer ``i``. Returns the
    reference's parameters, velocity and scales after the step."""
    net, data, config = run.net, run.data, run.config
    x, y = data.source[data.rows[idx]], data.y[idx]
    post, want_grads, want = oracle_step(net, x, y, velocity, config.learning_rate,
                                         config.momentum)
    grad_scales = gradient_scales(net, x, y)
    scales = [config.momentum * s + g for s, g in zip(scales, grad_scales)]
    offsets = [l.train_from for l in net.layers]
    restricted = any(offsets)
    if restricted:
        assert [c.shape[1] for c in run.cache] == offsets
        frozen = [(l.weights[:o].tobytes(), l.bias[:o].tobytes())
                  for l, o in zip(net.layers, offsets)]
        heads = net.predict(x)[:, :offsets[-1]].tobytes()
    grads = step_receiving(run, idx)
    for got, expected in zip(run.trace.post, post):
        assert_close(got, expected)
    for layer, (got_w, got_b), v, o, (g_w, g_b), (w, b, v_w, v_b), g_scale, v_scale in zip(
            net.layers, grads, run.velocity, offsets, want_grads, want,
            grad_scales, scales):
        assert not g_w[:o].any() and not g_b[:o].any()
        assert_within(got_w, g_w[o:], g_scale)
        assert_within(got_b, g_b[o:], g_scale)
        assert not v_w[:o].any() and not v_b[:o].any()  # the rows the run dropped hold 0
        assert_within(v.weights, v_w[o:], v_scale)
        assert_within(v.bias, v_b[o:], v_scale)
        scale = max(np.max(np.abs(w), initial=0.0), np.max(np.abs(b), initial=0.0))
        assert_within(layer.weights, w, scale)
        assert_within(layer.bias, b, scale)
    if restricted:
        assert frozen == [(l.weights[:o].tobytes(), l.bias[:o].tobytes())
                          for l, o in zip(net.layers, offsets)]
        assert net.predict(x)[:, :offsets[-1]].tobytes() == heads
    return ([(w, b) for w, b, _, _ in want], [(v_w, v_b) for _, _, v_w, v_b in want],
            scales)


def velocity_after_split(net, velocity, split):
    """The reference's velocity after a round that split: zero in the rows
    and columns of the appended neurons and in the rows of each split
    original, which went back to its snapshot."""
    grown = []
    for layer, (v_w, v_b) in zip(net.layers, velocity):
        w, b = np.zeros_like(layer.weights), np.zeros_like(layer.bias)
        w[:v_w.shape[0], :v_w.shape[1]], b[:len(v_b)] = v_w, v_b
        grown.append((w, b))
    for tag in split.splits:
        w, b = grown[tag.layer]
        w[tag.index], b[tag.index] = 0.0, 0.0
    return grown


def frozen_in_open(layer):
    """Whether the layer's frozen set holds a present weight in a row that trains."""
    o = layer.train_from
    return layer.frozen is not None and any(
        layer.frozen[max(r0, o):r1, :c1].any() for r0, r1, c1 in layer.runs if r1 > o)


def replay_task(net, data, config):
    """Train the network's next task by driving its run, every step through
    ``check_step``, the reference's velocity zero at task start. Returns
    per step its batch size, each layer's ``train_from`` and open rows,
    whether a frozen set was held and froze a weight in open rows, and
    whether the step wrote its gradients into the velocity's spare that
    the last step left (``check_step`` asserts that every step writes
    them into the velocity's spare)."""
    run, steps = TaskRun(net, data, config), []
    velocity = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in net.layers]
    scales = [0.0] * len(net.layers)
    for _ in range(config.epochs_per_task):
        for idx in run.batches():
            steps.append({"batch": len(idx),
                          "train_from": [l.train_from for l in net.layers],
                          "open": [l.fan_out - l.train_from for l in net.layers],
                          "frozen": any(l.frozen is not None for l in net.layers),
                          "frozen_in_open": any(map(frozen_in_open, net.layers))})
            held = [v.spare and v.spare[0] for v in run.velocity]
            _, velocity, scales = check_step(run, idx, velocity, scales)
            # the new velocity is the spare the gradient was written into
            steps[-1]["kept"] = all(a is v.weights for a, v in zip(held, run.velocity))
        split = run.end_epoch()
        if split is not None and split.total_splits:
            velocity = velocity_after_split(net, velocity, split)
    run.close()
    return steps


def tasks(n_tasks=3, n=33):
    """Tasks of 33 images, every fourth one all zeros: at a zero bias its
    pre-activations are exactly 0, where only ``z > 0`` gives the slope.
    With batch size 8 each epoch ends on one image."""
    rng = np.random.default_rng(11)
    sources = [rng.standard_normal((n, N_FEATURES)) for _ in range(n_tasks)]
    for source in sources:
        source[::4] = 0.0
    return [TaskDataset(source, np.arange(n), rng.integers(0, 2, size=n).astype(float))
            for source in sources]


@pytest.mark.parametrize("scope, freeze", [
    ("hybrid", 0.0), ("hybrid", 0.3), ("pss_only", 0.0), ("full_truncated", 0.3),
    ("baseline", 0.0)])
def test_every_step_and_predict_match_the_dense_reference(scope, freeze):
    """``baseline`` is the fine-tuning baseline's step path: splitting off,
    everything trainable, no snapshot. No round runs, so each step after a
    task's first writes its gradients into the velocity's spare the last
    step left, also across epoch ends."""
    baseline = scope == "baseline"
    config = TrainerConfig(hidden_sizes=(12, 8), sigma=1e-6, delta=0.0, batch_size=8,
                           epochs_per_task=3, seed=5,
                           freeze_scope="full_truncated" if baseline else scope,
                           magnitude_freeze_threshold=freeze, splitting_enabled=not baseline)
    net = PlasticNetwork.new(N_FEATURES, [12, 8], rng_for(5, 0))
    probe = np.random.default_rng(4).standard_normal((2 * BLOCK_ROWS + 1, N_FEATURES))
    steps = []
    for data in tasks():
        steps += replay_task(net, data, config)
        assert net.check_masks() == []
        assert_close(net.predict(probe), oracle_forward(net, probe)[1][-1])
    assert len(steps) == 3 * 3 * 5
    restricted = [s for s in steps if any(s["train_from"])]
    if scope == "full_truncated":
        assert not restricted and all(s["frozen"] for s in steps)
    elif baseline:
        assert not restricted and not any(s["frozen"] for s in steps)
        assert [s["kept"] for s in steps] == [t % 15 > 0 for t in range(len(steps))]
    else:
        assert restricted and all(min(s["train_from"][:-1]) > 0 for s in restricted)
        assert any(s["batch"] == 1 for s in restricted)
    if scope == "pss_only":  # tasks 1 and 2, where only the output row trains
        assert len(restricted) == 2 * 3 * 5
        assert all(s["open"] == [0, 0, 1] for s in restricted)
    if scope == "hybrid":  # after the switch the new generation trains in every layer
        assert all(min(s["open"]) > 0 for s in restricted)
        assert any(s["frozen_in_open"] for s in restricted) == (freeze > 0)
    # under pss_only nothing old drifts; the baseline never splits
    assert (net.hidden_sizes() == [12, 8]) == (scope in ("pss_only", "baseline"))
