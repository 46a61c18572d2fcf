"""The frozen-row cache of a ``pss_only`` run.

Under ``pss_only`` a training step computes only each layer's rows from
``train_from`` on, and starts at the first layer that has such rows:
its input is the layer below's post-activations. Those, and the rows
before ``train_from`` of the layers from there on, come from a cache
over the task's training set, built when the run enters the scope and
again after a round that splits. The cache must be the frozen columns
of a full forward pass, hold no array for the layers below the step's
input, be built one block of images at a time, and spare a step that
starts above layer 0 every read of the images; the steps after a
rebuild go through ``test_dense_oracle.check_step``.
"""

import weakref

import numpy as np
import pytest
from test_blockwise import forward_by_block
from test_data import traced_peak
from test_dense_oracle import N_FEATURES, assert_close, check_step, velocity_after_split
from test_dense_oracle import tasks as dense_tasks

from pss.data import TaskDataset
from pss.numerics import (IDENTITY, Activation, MaskedLayer, forward, post_activations,
                          row_blocks)
from pss.plasticity import PlasticNetwork
from pss.trainer import PROBE_EPOCHS, TaskRun, TrainerConfig, rng_for, train_task


def odd_tasks(n_tasks=3, n=33):
    """Tasks of 33 images: with batch size 8 each epoch ends on one image."""
    rng = np.random.default_rng(11)
    return [TaskDataset(rng.standard_normal((n, N_FEATURES)), np.arange(n),
                        rng.integers(0, 2, size=n).astype(float))
            for _ in range(n_tasks)]


CONFIG = dict(hidden_sizes=(12, 8), sigma=1e-6, delta=0.0, batch_size=8,
              epochs_per_task=3, seed=5)


class TestFrozenCache:
    @staticmethod
    def drifted_run():
        """Task 1's run under hybrid after task 0 trained under
        full_truncated, its probe failed and the task restarted, and five
        checked steps on all of task 1's images that drift old neurons
        before any round. Returns the run and the reference's velocity and
        scales (see ``check_step``)."""
        net = PlasticNetwork.new(N_FEATURES, [12, 8], rng_for(5, 0))
        data = odd_tasks()
        train_task(net, data[0], TrainerConfig(**CONFIG, freeze_scope="full_truncated"))
        run = TaskRun(net, data[1], TrainerConfig(**CONFIG))
        for _ in range(PROBE_EPOCHS):
            for idx in run.batches():
                run.step(idx)
            run.end_epoch()
        assert run.epoch == 0 and net.freeze_scope == "full_truncated"
        velocity = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in net.layers]
        scales = [0.0] * len(net.layers)
        for _ in range(5):
            _, velocity, scales = check_step(run, np.arange(len(data[1])), velocity, scales)
        return run, velocity, scales

    def drifted_task(self):
        """The drifted network, then frozen: no hidden row can train yet."""
        run, _, _ = self.drifted_run()
        run.net.set_structural_freeze("pss_only")
        return run.net, run.data

    def test_cache_is_the_frozen_rows_of_a_full_forward(self, monkeypatch):
        """Only the output row trains, so a step starts at layer 2: the
        cache holds layer 1, the step's input, and the output's frozen
        row, and no array for layer 0."""
        net, data = self.drifted_task()
        cache = net.frozen_activations(data.source, data.rows)
        assert net.first_trained() == 2
        assert cache[0] is None and [c.shape[1] for c in cache[1:]] == [8, 1]
        post = forward(net.layers, data.x).post
        for c, a, layer in zip(cache[1:], post[1:], net.layers[1:]):
            assert c.shape == (len(data.x), layer.train_from)
            assert_close(c, a[:, :layer.train_from])
        # a trace from layer 2, built from the cache, computes only the trainable rows
        idx = np.arange(0, len(data.x), 2)
        computed = []
        affine = MaskedLayer.affine

        def spy(layer, x, start=0, stop=None, out=None):
            z = affine(layer, x, start, stop, out)
            computed.append(z.shape[1])
            return z

        monkeypatch.setattr(MaskedLayer, "affine", spy)
        trace = net.trace(cache[1][idx], [cache[2][idx]], 2)
        monkeypatch.setattr(MaskedLayer, "affine", affine)
        assert net.layers[2].fan_out - cache[2].shape[1] == 1
        assert computed == [1]
        assert len(trace.post) == 1
        for got, want in zip(trace.post, forward(net.layers, data.x[idx]).post[2:]):
            assert_close(got, want)

    @staticmethod
    def assert_frozen_columns_of_forward(net, x, monkeypatch):
        """The cache is byte for byte the frozen columns of a full pass,
        and no row at or after a layer's ``train_from`` is computed."""
        computed = []
        affine = MaskedLayer.affine

        def spy(layer, x, start=0, stop=None, out=None):
            z = affine(layer, x, start, stop, out)
            computed.append((start, z.shape[1]))
            return z

        monkeypatch.setattr(MaskedLayer, "affine", spy)
        cache = net.frozen_activations(x, np.arange(len(x)))
        monkeypatch.setattr(MaskedLayer, "affine", affine)
        assert computed == [(0, layer.train_from) for layer in net.layers]
        # no array below layer ``k - 1``, the input of a step that starts at ``k``
        kept = max(net.first_trained() - 1, 0)
        assert [c is None for c in cache] == [i < kept for i in range(len(cache))]
        post = forward(net.layers, x).post
        for c, a, layer in zip(cache[kept:], post[kept:], net.layers[kept:]):
            assert c.shape == (len(x), layer.train_from)
            assert c.tobytes() == np.ascontiguousarray(a[:, :layer.train_from]).tobytes()

    def test_cache_is_bitwise_after_generations_of_hybrid_growth(self, monkeypatch):
        net = PlasticNetwork.new(N_FEATURES, [12, 8], rng_for(5, 0))
        config = TrainerConfig(**CONFIG)
        tasks = odd_tasks(n_tasks=4)
        for t, data in enumerate(tasks):
            train_task(net, data, config)
            if t:  # the task split, so it ended under pss_only
                assert min(layer.train_from for layer in net.layers) > 0
                for x in (data.x, tasks[0].x[:1]):
                    self.assert_frozen_columns_of_forward(net, x, monkeypatch)
        assert [max(g) for g in net.hidden_gens] == [3, 3]

    def test_cache_with_an_empty_frozen_block(self, monkeypatch):
        """Layer 1 holds only the current generation, so it caches no row
        and output 0, which sees none of its columns, is its bias alone."""
        rng = np.random.default_rng(2)
        w_out = rng.standard_normal((2, 3))
        w_out[0] = 0.0
        layers = [MaskedLayer(rng.standard_normal((4, N_FEATURES)), rng.standard_normal(4),
                              activation=Activation()),
                  MaskedLayer(rng.standard_normal((3, 4)), rng.standard_normal(3),
                              activation=Activation()),
                  MaskedLayer(w_out, rng.standard_normal(2), activation=IDENTITY)]
        net = PlasticNetwork(layers, [[0, 0, 1, 1], [1, 1, 1]], task=1,
                             freeze_scope="pss_only")
        assert net.check_masks() == []
        assert [layer.train_from for layer in layers] == [2, 0, 1]
        assert layers[2].runs == [(0, 1, 0), (1, 2, 3)]
        x = rng.standard_normal((9, N_FEATURES))
        self.assert_frozen_columns_of_forward(net, x, monkeypatch)
        cache = net.frozen_activations(x, np.arange(len(x)))
        assert np.all(cache[2] == layers[2].bias[0])

    @pytest.mark.parametrize("hidden_gens, start", [
        ([[0] * 4, [0, 1, 1], [1] * 3], 1), ([[0] * 4, [0] * 3, [0, 1, 1]], 2),
        ([[0] * 4, [0] * 3, [0] * 3], 3)])
    def test_cache_keeps_no_layer_below_the_steps_input(self, hidden_gens, start,
                                                        monkeypatch):
        """Three hidden layers in task 1: a step starts at the first layer
        holding a generation-1 row (the output layer when none does). The
        cache holds no array for the layers below the step's input, and
        the kept columns are byte for byte those of a full forward."""
        rng = np.random.default_rng(7)
        sizes = [N_FEATURES] + [len(gens) for gens in hidden_gens] + [2]
        layers = [MaskedLayer(np.zeros((n, fan_in)), rng.standard_normal(n),
                              activation=Activation() if i < 3 else IDENTITY)
                  for i, (fan_in, n) in enumerate(zip(sizes, sizes[1:]))]
        net = PlasticNetwork(layers, hidden_gens, task=1, freeze_scope="pss_only")
        for layer in layers:
            for r0, r1, c1 in layer.runs:
                layer.weights[r0:r1, :c1] = rng.standard_normal((r1 - r0, c1))
        assert net.check_masks() == [] and net.first_trained() == start
        assert [layer.train_from for layer in layers[:start]] == sizes[1:start + 1]
        self.assert_frozen_columns_of_forward(net, rng.standard_normal((9, N_FEATURES)),
                                              monkeypatch)

    def test_nothing_frozen_means_no_cache(self):
        net, data = self.drifted_task()
        net.set_structural_freeze("full_truncated")
        assert net.frozen_activations(data.source, data.rows) is None

    def test_cache_rebuilt_after_split(self):
        """A split reverts frozen rows, so a cache built before it is
        stale; the rebuilt one matches a fresh forward and the steps
        after it match the dense reference."""
        run, velocity, scales = self.drifted_run()
        net, data = run.net, run.data
        # the cache of the rows that freeze at the switch, built before the round
        stale = post_activations(net.layers, data.source, data.rows, [12, 8, 1])
        split = run.end_epoch()
        assert split.total_splits and net.freeze_scope == "pss_only"
        assert [l.train_from for l in net.layers] == [12, 8, 1]
        assert net.hidden_layers[0].fan_out > 12
        assert any(not np.array_equal(s, f) for s, f in zip(stale, run.cache))
        post = forward(net.layers, data.x).post
        for c, a, layer in zip(run.cache, post, net.layers):
            assert_close(c, a[:, :layer.train_from])

        velocity = velocity_after_split(net, velocity, split)
        for idx in (np.arange(8), np.array([5])):  # gemm, then gemv
            _, velocity, scales = check_step(run, idx, velocity, scales)

    def test_build_frees_the_task_images_after_layer_0(self, monkeypatch):
        """Opening a task gathers its images for the build only; the pass
        holds the one reference and drops it once layer 0 is done."""
        config = TrainerConfig(**CONFIG, freeze_scope="pss_only")
        net = PlasticNetwork.new(N_FEATURES, [12, 8], rng_for(5, 0))
        data = odd_tasks()
        train_task(net, data[0], config)
        images, alive = [], []
        affine = MaskedLayer.affine

        def spy(layer, x, start=0, stop=None, out=None):
            if images:
                alive.append(images[0]() is not None)
            else:
                images.append(weakref.ref(x))
            return affine(layer, x, start, stop, out)

        monkeypatch.setattr(MaskedLayer, "affine", spy)
        run = TaskRun(net, data[1], config)
        assert len(run.cache) == 3 and alive == [False, False]

    def test_build_peaks_at_images_layer_0_block_and_cache(self):
        """No per-run product, bias sum or activation temporary is held
        next to the block being built."""
        net = PlasticNetwork.new(16, [200, 20], rng_for(5, 0))
        net.grow_output()
        net.grow_output()
        net.set_structural_freeze("pss_only")
        assert [layer.train_from for layer in net.layers] == [200, 20, 1]
        rows = np.random.default_rng(1).permutation(3000)
        source = np.random.default_rng(2).standard_normal((3000, 16))
        net.frozen_activations(source, rows[:5])  # lazy imports
        cache, peak = traced_peak(net.frozen_activations, source, rows)
        assert cache[0] is None  # only the output row trains: layer 1 is the step's input
        layer_0_block = 8 * max(b.stop - b.start for b in row_blocks(len(rows))) * 200
        held = source.nbytes + layer_0_block + sum(c.nbytes for c in cache[1:])
        assert peak <= 1.1 * held
        x = source[rows]
        for c, a, whole in zip(cache[1:], forward_by_block(net.layers, x)[1:],
                               forward(net.layers, x).post[1:]):
            assert c.tobytes() == np.ascontiguousarray(a[:, :c.shape[1]]).tobytes()
            np.testing.assert_allclose(c, whole[:, :c.shape[1]], rtol=1e-12, atol=0)


class SourceReads:
    """A task's images that record each read of their rows."""

    def __init__(self, source):
        self.source, self.reads = source, []

    def __getitem__(self, rows):
        self.reads.append(rows)
        return self.source[rows]

    def __len__(self):
        return len(self.source)


@pytest.mark.parametrize("scope", ["hybrid", "pss_only"])
def test_a_step_above_layer_0_reads_no_image(scope):
    """Task 1, every label 1 at a learning rate of 0.5, passes ``hybrid``'s
    probe, so under either scope it trains its output row alone: each
    step starts at layer 2, its input the cache's layer 1, and no step
    reads a row of the task's images. Task 0's steps start at layer 0
    and read one batch each."""
    config = TrainerConfig(hidden_sizes=(12, 8), sigma=1e-6, delta=0.0, batch_size=8,
                           epochs_per_task=3, seed=5, learning_rate=0.5, freeze_scope=scope)
    net = PlasticNetwork.new(N_FEATURES, [12, 8], rng_for(5, 0))
    data = dense_tasks(2)
    data[1] = TaskDataset(data[1].source, data[1].rows, np.ones(len(data[1])))
    starts, reads = [], []
    for task in data:
        run = TaskRun(net, task, config)
        run.data.source = SourceReads(task.source)  # after the cache build
        head = net.output_layer.weights[net.task].copy()
        while run.epoch < config.epochs_per_task:
            for idx in run.batches():
                starts.append(run.start)
                run.step(idx)
            run.end_epoch()
        run.close()
        reads.append(len(run.data.source.reads))
        assert not np.array_equal(net.output_layer.weights[net.task], head)
    assert net.freeze_scope == "pss_only" and net.hidden_sizes() == [12, 8]
    assert starts == [0] * 15 + [2] * 15
    assert reads == [15, 0]
