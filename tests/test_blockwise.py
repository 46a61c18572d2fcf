"""The block-wise pass behind ``predict`` and the frozen-row cache.

``numerics.post_activations`` forwards many images one ``row_blocks``
block at a time, so its arithmetic is ``forward`` over each block of
rows in turn. Both its callers must match that byte for byte, keep
earlier tasks' logits bit-identical under ``pss_only``, and hold one
block, never the whole batch, next to their results.
"""

import copy
from bisect import bisect_right

import numpy as np
import pytest
from test_data import traced_peak

from pss.data import TaskDataset
from pss.model_io import load_model, save_model
from pss.numerics import (BLOCK_ROWS, MaskedLayer, backward_truncated, forward,
                          pad_velocity, post_activations, row_blocks, sgd_step)
from pss.plasticity import PlasticNetwork
from pss.trainer import TaskRun, TrainerConfig, rng_for, train_task

N_FEATURES = 16
CONFIG = dict(hidden_sizes=(24, 12), sigma=1e-6, delta=0.0, batch_size=64,
              epochs_per_task=2, seed=3)


def forward_by_block(layers, x):
    """``forward``'s post-activations of every layer over ``x``, computed
    one ``row_blocks`` block at a time: the arithmetic of the block-wise pass."""
    posts = [forward(layers, x[block]).post for block in row_blocks(len(x))]
    return [np.concatenate(layer_posts) for layer_posts in zip(*posts)]


@pytest.mark.parametrize("n, sizes", [
    (0, [0]), (1, [1]), (2 * BLOCK_ROWS - 1, [2 * BLOCK_ROWS - 1]),
    (2 * BLOCK_ROWS, [BLOCK_ROWS, BLOCK_ROWS]),
    (5 * BLOCK_ROWS + 3, [BLOCK_ROWS] * 4 + [BLOCK_ROWS + 3])])
def test_blocks_tile_the_rows_the_last_taking_the_rest(n, sizes):
    blocks = row_blocks(n)
    assert [b.stop - b.start for b in blocks] == sizes
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))


def tasks(n_tasks, n=2 * BLOCK_ROWS + 1, seed=8):
    """Binary tasks of ``n`` rows each, drawn from one shared source."""
    rng = np.random.default_rng(seed)
    source = rng.standard_normal((n_tasks * n, N_FEATURES))
    return [TaskDataset(source, rng.permutation(len(source))[:n],
                        rng.integers(0, 2, size=n).astype(float))
            for _ in range(n_tasks)]


@pytest.fixture(scope="module")
def grown():
    """A network grown over three hybrid tasks, left under ``pss_only``
    with frozen rows in every layer, and the source of its tasks."""
    data = tasks(3)
    net = PlasticNetwork.new(N_FEATURES, [24, 12], rng_for(3, 0))
    for task in data:
        train_task(net, task, TrainerConfig(**CONFIG))
    assert net.freeze_scope == "pss_only"
    assert all(layer.train_from for layer in net.layers)
    assert net.hidden_sizes() != [24, 12]
    return net, data[0].source


@pytest.mark.parametrize("n", [1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
def test_predict_and_cache_are_forward_by_block_bitwise(grown, n):
    net, source = grown
    rows = np.random.default_rng(n).permutation(len(source))[:n]
    x = source[rows]
    want = forward_by_block(net.layers, x)
    assert net.predict(x).tobytes() == want[-1].tobytes()
    cache = net.frozen_activations(source, rows)
    for c, a, layer in zip(cache, want, net.layers):
        assert c.shape == (n, layer.train_from)
        assert c.tobytes() == np.ascontiguousarray(a[:, :layer.train_from]).tobytes()
    # within rounding of a single pass over the whole batch
    whole = forward(net.layers, x).post
    np.testing.assert_allclose(net.predict(x), whole[-1], rtol=1e-12, atol=0)
    for c, a in zip(cache, whole):
        np.testing.assert_allclose(c, a[:, :c.shape[1]], rtol=1e-12, atol=0)


def predict_run_by_run(layers, x):
    """Logits by the per-layer loop that adds each run's bias right after
    its matmul, then activates: the one-image arithmetic ``predict`` keeps."""
    for layer in layers:
        z = np.empty((len(x), layer.fan_out))
        for r0, r1, c1 in layer.runs:
            block = z[:, r0:r1]
            np.matmul(x[:, :c1], layer.weights[r0:r1, :c1].T, out=block)
            block += layer.bias[r0:r1]
        x = np.where(z > 0, z, layer.activation.slope * z)
    return x


@pytest.mark.parametrize("case", ["hybrid", "full_truncated", "reloaded",
                                  "deep-copied and stepped", "grown and split"])
def test_one_image_predict_is_the_run_by_run_loop_bitwise(grown, case, tmp_path):
    """Under ``pss_only`` (hybrid, grown) and under ``full_truncated``, a
    split network's one-image logits match the run-by-run loop; so do they
    once each layer's run plan has been built and its operands then change:
    a network reloaded from its model file, a deep copy whose copied
    weights a ``pss_only`` step writes in place, and a network that opens
    a task (new output row) and splits a neuron (new rows and columns)."""
    net, source = grown
    net.predict(source[:1])  # every layer has built its run plan
    if case == "full_truncated":
        net = PlasticNetwork.new(N_FEATURES, [24, 12], rng_for(3, 0))
        for task in tasks(3):
            train_task(net, task, TrainerConfig(**CONFIG, freeze_scope=case))
        assert net.freeze_scope == case and net.hidden_sizes() != [24, 12]
    elif case == "reloaded":
        save_model(tmp_path / "m.pssnet", net)
        net = load_model(tmp_path / "m.pssnet")
    elif case == "deep-copied and stepped":
        net = copy.deepcopy(net)
        assert all(layer.train_from for layer in net.layers)  # written in place
        before = [layer.weights.copy() for layer in net.layers]
        grads = backward_truncated(net.layers, net.trace(source[:8]), np.ones(8), net.task)
        sgd_step(net.layers, grads, 0.5, 0.0, pad_velocity(None, net.layers))
        assert all((l.weights != w).any() for l, w in zip(net.layers, before))
    elif case == "grown and split":
        net = copy.deepcopy(net)
        net.predict(source[:1])
        net.grow_output()
        net.take_snapshot()
        net.hidden_layers[0].weights[0] += 1.0
        net.split_neurons(0, [0])
    assert all(len(layer.runs) > 1 for layer in net.layers)
    for i in range(0, len(source), 97):
        x = source[i:i + 1]
        assert net.predict(x).tobytes() == predict_run_by_run(net.layers, x).tobytes()


# per task, the trainer flags of each network of the generation-prefix test
PREFIX_RUNS = {
    "pss_only": [{}, {}, {"freeze_scope": "pss_only"}, {"freeze_scope": "pss_only"}],
    "full_truncated": [{"freeze_scope": "full_truncated"}] * 3,
    "magnitude freeze": [{"magnitude_freeze_threshold": 0.05}] * 3,
}


@pytest.mark.parametrize("case", ["hybrid", *PREFIX_RUNS])
def test_head_k_is_the_pass_over_generations_up_to_k(grown, case):
    """Head ``k`` reads only the units of generations ``<= k``: forwarding
    each hidden layer's units up to the last of generation ``k``, and the
    outputs ``:k + 1``, gives the first ``k + 1`` logits of ``predict``
    byte for byte, at one image and at a batch of several blocks. This
    holds under every freeze scope (``pss_only`` after two hybrid tasks
    have grown the network, since it never splits) and under a magnitude
    freeze."""
    net, source = grown
    if case != "hybrid":
        net = PlasticNetwork.new(N_FEATURES, [24, 12], rng_for(3, 0))
        for task, flags in zip(tasks(4), PREFIX_RUNS[case]):
            train_task(net, task, TrainerConfig(**CONFIG, **flags))
    assert all(len(set(gens)) > 1 for gens in net.hidden_gens)
    for x in (source[:1], source[:2 * BLOCK_ROWS + 1]):
        logits = net.predict(x)
        for k in range(net.task + 1):
            stops = [bisect_right(gens, k) for gens in net.hidden_gens] + [k + 1]
            head = post_activations(net.layers, x, stops=stops, keep_from=len(stops) - 1)[-1]
            assert head.tobytes() == np.ascontiguousarray(logits[:, :k + 1]).tobytes()


def test_old_logits_stay_bit_identical_on_a_multi_block_probe():
    """Two hybrid tasks grow the network; under ``pss_only`` the later
    tasks leave every earlier head's logits unchanged to the bit."""
    data = tasks(4)
    probe = np.random.default_rng(1).standard_normal((2 * BLOCK_ROWS + 1, N_FEATURES))
    net = PlasticNetwork.new(N_FEATURES, [24, 12], rng_for(3, 0))
    for t in (0, 1):
        train_task(net, data[t], TrainerConfig(**CONFIG))
    assert net.hidden_sizes() != [24, 12]
    before = net.predict(probe)
    for t in (2, 3):
        train_task(net, data[t], TrainerConfig(**CONFIG, freeze_scope="pss_only"))
        after = net.predict(probe)
        assert after[:, :t].tobytes() == np.ascontiguousarray(before[:, :t]).tobytes()
        before = after


def test_cache_build_sees_one_block_of_images_at_a_time(grown, monkeypatch):
    """The build when a task opens gathers ``source[rows]`` one block at a
    time, never ``2 * BLOCK_ROWS`` images or more."""
    net, source = grown
    data = TaskDataset(source, np.arange(len(source))[::-1][:2 * BLOCK_ROWS + 1],
                       np.zeros(2 * BLOCK_ROWS + 1))
    seen = []
    affine = MaskedLayer.affine

    def spy(layer, x, start=0, stop=None, out=None):
        if layer is net.layers[0]:
            seen.append(x.copy())
        return affine(layer, x, start, stop, out)

    monkeypatch.setattr(MaskedLayer, "affine", spy)
    run = TaskRun(net, data, TrainerConfig(**CONFIG, freeze_scope="pss_only"))
    assert [len(x) for x in seen] == [BLOCK_ROWS, BLOCK_ROWS + 1]
    assert np.concatenate(seen).tobytes() == data.x.tobytes()
    assert run.start == 2 and run.cache[0] is None and len(run.cache[1]) == len(data)


def test_cache_build_peaks_at_the_cache_plus_one_block():
    """Each kept layer's block is written straight into the cache, so the
    build holds the cache, one block of images and one block of layer 0,
    which is not kept, not all of them."""
    net = PlasticNetwork.new(784, [400, 100], rng_for(5, 0))
    net.grow_output()
    net.grow_output()
    net.set_structural_freeze("pss_only")
    stops = [layer.train_from for layer in net.layers]
    assert stops == [400, 100, 1]
    source = np.random.default_rng(2).standard_normal((4 * BLOCK_ROWS, 784))
    rows = np.random.default_rng(1).permutation(len(source))[:3 * BLOCK_ROWS]
    net.frozen_activations(source, rows[:5])  # lazy imports
    cache, peak = traced_peak(net.frozen_activations, source, rows)
    assert cache[0] is None  # only the output layer trains: layer 1 is the step's input
    block = 8 * BLOCK_ROWS * (784 + 400)
    assert peak <= 1.1 * (sum(c.nbytes for c in cache[1:]) + block)


def test_predict_peaks_at_its_logits_plus_one_block_of_each_layer():
    net = PlasticNetwork.new(20, [300, 200], np.random.default_rng(1))
    for _ in range(3):
        net.grow_output()
    x = np.random.default_rng(2).standard_normal((2000, 20))
    net.predict(x[:5])  # lazy imports
    logits, peak = traced_peak(net.predict, x)
    largest = max(b.stop - b.start for b in row_blocks(len(x)))
    block = 8 * largest * sum(layer.fan_out for layer in net.layers)
    assert peak <= 1.1 * (logits.nbytes + block)
