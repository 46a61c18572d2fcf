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
appended neurons and in the rows of each split original. The run keeps
velocity for the rows from ``train_from`` on only, so those rows are
compared, and after every ``pss_only`` step the reference's rows before
``train_from`` must be exactly 0: dropping them loses nothing. The tests
drive each task's run step by step.
"""

import numpy as np
import pytest

from pss.data import TaskDataset
from pss.numerics import BLOCK_ROWS
from pss.plasticity import PlasticNetwork
from pss.trainer import TrainerConfig, open_task, rng_for

RTOL = 1e-12
N_FEATURES = 6


def assert_close(got, want):
    assert got.shape == want.shape
    scale = np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= RTOL * scale


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
    """Logits, gradients and the parameters and velocity after one SGD step;
    ``velocity`` is the reference's own, one ``(weights, bias)`` per layer."""
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
    return post[-1], grads, params


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


def replay_task(net, data, config, index):
    """Train task ``index`` by driving its run, every step replayed through
    the reference, whose velocity starts at zero and is carried from step
    to step. Returns each step's first trainable rows (off the gradients'
    shapes) and if a frozen set was held."""
    run, steps = open_task(net, data, config, index), []
    velocity = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in net.layers]
    for _ in range(config.epochs_per_task):
        for idx in run.batches():
            logits, want_grads, want = oracle_step(
                net, data.source[data.rows[idx]], data.y[idx], velocity,
                config.learning_rate, config.momentum)
            run.step(idx)
            assert_close(run.trace.output, logits)
            offsets = [l.fan_out - len(g.bias) for l, g in zip(net.layers, run.grads)]
            for g, (w, b), o in zip(run.grads, want_grads, offsets):
                assert not w[:o].any() and not b[:o].any()
                assert_close(g.weights, w[o:])
                assert_close(g.bias, b[o:])
            for layer, v, (w, b, v_w, v_b), o in zip(net.layers, run.velocity, want, offsets):
                for got, expected in ((layer.weights, w), (layer.bias, b),
                                      (v.weights, v_w[o:]), (v.bias, v_b[o:])):
                    assert_close(got, expected)
                if net.freeze_scope == "pss_only":  # the rows the run dropped hold 0
                    assert not v_w[:o].any() and not v_b[:o].any()
            velocity = [(v_w, v_b) for _, _, v_w, v_b in want]
            steps.append((offsets, any(l.frozen is not None for l in net.layers)))
        split = run.end_epoch()
        if split is not None and split.total_splits:
            velocity = velocity_after_split(net, velocity, split)
    run.close()
    return steps


def tasks(n_tasks=3, n=33):
    """Tasks of 33 images, every fourth one all zeros: at a zero bias its
    pre-activations are exactly 0, where only ``z > 0`` gives the slope."""
    rng = np.random.default_rng(11)
    sources = [rng.standard_normal((n, N_FEATURES)) for _ in range(n_tasks)]
    for source in sources:
        source[::4] = 0.0
    return [TaskDataset(source, np.arange(n), rng.integers(0, 2, size=n).astype(float), t, t)
            for t, source in enumerate(sources)]


@pytest.mark.parametrize("scope, freeze", [
    ("hybrid", 0.0), ("pss_only", 0.0), ("full_truncated", 0.3)])
def test_every_step_and_predict_match_the_dense_reference(scope, freeze):
    config = TrainerConfig(hidden_sizes=(12, 8), sigma=1e-6, delta=0.0, batch_size=8,
                           epochs_per_task=3, seed=5, freeze_scope=scope,
                           magnitude_freeze_threshold=freeze)
    net = PlasticNetwork.new(N_FEATURES, [12, 8], rng_for(5, 0))
    probe = np.random.default_rng(4).standard_normal((2 * BLOCK_ROWS + 1, N_FEATURES))
    replayed = []
    for t, data in enumerate(tasks()):
        replayed += replay_task(net, data, config, t)
        assert_close(net.predict(probe), oracle_forward(net, probe)[1][-1])
    assert len(replayed) == 3 * 3 * 5
    restricted = [offsets for offsets, _ in replayed if any(offsets)]
    if scope == "full_truncated":
        assert not restricted and all(frozen for _, frozen in replayed)
    else:
        assert restricted and all(min(o[:-1]) > 0 for o in restricted[-5:])
    assert (net.hidden_sizes() == [12, 8]) == (scope == "pss_only")  # nothing old drifts
