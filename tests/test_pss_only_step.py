"""The ``pss_only`` step against a dense reference.

Under ``pss_only`` a training step computes only each layer's rows from
``train_from`` on: frozen rows come from a cache, backward and SGD skip
them. Here every such step is replayed on a dense copy of the network
(every ``train_from`` set to 0, no cache, the weights of the rows before
it in the layer's ``frozen`` set instead), which runs the dense
``forward``, ``backward_truncated`` and ``sgd_step``. Activations,
weights and their gradients must agree to 1e-12 relative, and so must
biases and theirs from ``train_from`` on (a frozen set holds no bias,
so the copy's earlier biases train). The engine's velocity covers the
rows from ``train_from`` on; the copy's starts at 0 before them, must
stay 0 there in the weights, and must agree after them. The engine's
frozen parameters and earlier tasks' logits must not change by a bit.
The trainer's steps are reached by driving each task's run, not by
patching the trainer.
"""

import copy
import weakref

import numpy as np
from test_blockwise import forward_by_block
from test_data import traced_peak

from pss.data import TaskDataset
from pss.numerics import (
    IDENTITY,
    Activation,
    LayerGrads,
    MaskedLayer,
    backward_truncated,
    forward,
    init_velocity,
    sgd_step,
)
from pss.plasticity import PlasticNetwork
from pss.trainer import TrainerConfig, open_task, rng_for, train_task

RTOL = 1e-12
N_FEATURES = 6


def assert_close(got, want):
    """Equal shapes, and ``max|got - want| <= RTOL * max|want|``."""
    assert got.shape == want.shape
    scale = np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= RTOL * scale


def dense_copy(layers):
    """Copies that train from row 0, with the weights of the rows before
    each ``train_from`` added to the frozen set (to a magnitude freeze's
    when there is one)."""
    dense = copy.deepcopy(layers)
    for layer in dense:
        frozen = np.zeros(layer.weights.shape, dtype=bool)
        if layer.frozen is not None:
            frozen[:layer.frozen.shape[0], :layer.frozen.shape[1]] = layer.frozen
        frozen[:layer.train_from] = True
        layer.frozen, layer.train_from = frozen, 0
        layer.validate()
    return dense


def check_step(layers, velocity, take_step, targets, sel, probe,
               learning_rate=0.05, momentum=0.9):
    """Take one restricted step, ``take_step()`` returning its trace,
    gradients and new velocity, and replay it densely from the layers and
    velocity before it. Returns what the step covered (without the
    computed widths, which the trace does not record) and the new velocity."""
    offsets = [layer.train_from for layer in layers]
    dense = dense_copy(layers)
    # the velocity covers the rows from train_from on; the dense copy's
    # earlier rows start at 0 (their weights are frozen there)
    dense_velocity = [LayerGrads(np.vstack([np.zeros((o, l.fan_in)), v.weights]),
                                 np.concatenate([np.zeros(o), v.bias]))
                      for l, v, o in zip(layers, velocity, offsets)]
    frozen = [(l.weights[:o].tobytes(), l.bias[:o].tobytes())
              for l, o in zip(layers, offsets)]
    old_logits = forward(layers, probe).output[:, :offsets[-1]].tobytes()
    trace, grads, velocity = take_step()
    dense_trace = forward(dense, trace.inputs)
    for a, dense_a in zip(trace.post, dense_trace.post):
        assert_close(a, dense_a)
    dense_grads = backward_truncated(dense, dense_trace, targets, sel)
    for g, dg, o in zip(grads, dense_grads, offsets):
        assert not dg.weights[:o].any()
        assert_close(g.weights, dg.weights[o:])
        assert_close(g.bias, dg.bias[o:])

    sgd_step(dense, dense_grads, learning_rate, momentum, dense_velocity)
    for layer, d, v, dv, o in zip(layers, dense, velocity, dense_velocity, offsets):
        assert_close(layer.weights, d.weights)
        assert_close(layer.bias[o:], d.bias[o:])
        assert not dv.weights[:o].any()
        assert_close(v.weights, dv.weights[o:])
        assert_close(v.bias, dv.bias[o:])
    assert frozen == [(l.weights[:o].tobytes(), l.bias[:o].tobytes())
                      for l, o in zip(layers, offsets)]
    assert forward(layers, probe).output[:, :offsets[-1]].tobytes() == old_logits
    return {
        "batch": len(trace.inputs),
        "open": [l.fan_out - o for l, o in zip(layers, offsets)],
        "frozen_in_open": any((l.train_mask[o:] != l.conn_mask[o:]).any()
                              for l, o in zip(layers, offsets)),
    }, velocity


def odd_tasks(n_tasks=3, n=33):
    """Tasks of 33 images: with batch size 8 each epoch ends on one image."""
    rng = np.random.default_rng(11)
    return [TaskDataset(rng.standard_normal((n, N_FEATURES)), np.arange(n),
                        rng.integers(0, 2, size=n).astype(float), t, t)
            for t in range(n_tasks)]


def train_all(config):
    """Train every task by driving its run. Each step with some
    ``train_from`` > 0 is checked against the dense reference; returns
    what those steps covered and computed."""
    net = PlasticNetwork.new(N_FEATURES, list(config.hidden_sizes),
                             rng_for(config.seed, 0), config.leaky_slope)
    probe = np.random.default_rng(3).standard_normal((5, N_FEATURES))
    steps = []
    for t, data in enumerate(odd_tasks()):
        run = open_task(net, data, config, t)
        for _ in range(config.epochs_per_task):
            for idx in run.batches():
                if not any(layer.train_from for layer in net.layers):
                    run.step(idx)
                    continue
                # each layer computes the rows past its cached ones
                computed = [l.fan_out - c.shape[1] for l, c in zip(net.layers, run.cache)]

                def take_step():
                    run.step(idx)
                    return run.trace, run.grads, run.velocity

                covered, _ = check_step(net.layers, run.velocity, take_step, data.y[idx],
                                        [t], probe, config.learning_rate, config.momentum)
                steps.append({**covered, "computed": computed})
            run.end_epoch()
        run.close()
    assert net.check_masks() == []
    return steps


CONFIG = dict(hidden_sizes=(12, 8), sigma=1e-6, delta=0.0, batch_size=8,
              epochs_per_task=3, seed=5)


class TestTrainerSteps:
    def test_pss_only_from_task_start(self):
        """No hidden row can train: only the output row is computed."""
        checked_steps = train_all(TrainerConfig(**CONFIG, freeze_scope="pss_only"))
        # tasks 1 and 2, four full batches and one single image per epoch
        assert len(checked_steps) == 2 * 3 * 5
        assert all(s["open"] == s["computed"] == [0, 0, 1] for s in checked_steps)
        assert any(s["batch"] == 1 for s in checked_steps)

    def test_hybrid_after_split_with_magnitude_freeze(self):
        """The cache is built after the first split; small weights of the
        output row stay frozen inside the trainable rows."""
        checked_steps = train_all(TrainerConfig(**CONFIG, magnitude_freeze_threshold=0.3))
        assert checked_steps
        assert all(s["open"] == s["computed"] for s in checked_steps)
        assert all(min(s["open"][:-1]) > 0 for s in checked_steps)
        assert any(s["frozen_in_open"] for s in checked_steps)
        assert any(s["batch"] == 1 for s in checked_steps)

    def test_full_truncated_takes_no_restricted_step(self):
        assert train_all(TrainerConfig(**CONFIG, freeze_scope="full_truncated")) == []


class TestFrozenCache:
    def drifted_task(self):
        """Task 1 trained under full_truncated so old neurons drift,
        then frozen: no hidden row can train yet."""
        config = TrainerConfig(**CONFIG, freeze_scope="full_truncated")
        net = PlasticNetwork.new(N_FEATURES, [12, 8], rng_for(5, 0))
        data = odd_tasks()
        train_task(net, data[0], config, 0)
        net.grow_output(1)
        velocity = None
        for _ in range(5):
            trace = net.trace(data[1].x)
            grads = backward_truncated(net.layers, trace, data[1].y, [1])
            velocity = sgd_step(net.layers, grads, 0.05, 0.9, velocity)
        net.set_structural_freeze("pss_only")
        return net, data[1]

    def test_cache_is_the_frozen_rows_of_a_full_forward(self, monkeypatch):
        net, data = self.drifted_task()
        cache = net.frozen_activations(data.source, data.rows)
        assert [c.shape[1] for c in cache] == [12, 8, 1]
        post = forward(net.layers, data.x).post
        for c, a, layer in zip(cache, post, net.layers):
            assert c.shape == (len(data.x), layer.train_from)
            assert_close(c, a[:, :layer.train_from])
        # a trace built from the cache computes only the trainable rows
        idx = np.arange(0, len(data.x), 2)
        computed = []
        affine = MaskedLayer.affine

        def spy(layer, x, start=0, stop=None, out=None):
            z = affine(layer, x, start, stop, out)
            computed.append(z.shape[1])
            return z

        monkeypatch.setattr(MaskedLayer, "affine", spy)
        trace = net.trace(data.x[idx], [c[idx] for c in cache])
        monkeypatch.setattr(MaskedLayer, "affine", affine)
        assert [l.fan_out - c.shape[1] for l, c in zip(net.layers, cache)] == [0, 0, 1]
        assert computed == [0, 0, 1]
        for got, want in zip(trace.post, forward(net.layers, data.x[idx]).post):
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
        post = forward(net.layers, x).post
        for c, a, layer in zip(cache, post, net.layers):
            assert c.shape == (len(x), layer.train_from)
            assert c.tobytes() == np.ascontiguousarray(a[:, :layer.train_from]).tobytes()

    def test_cache_is_bitwise_after_generations_of_hybrid_growth(self, monkeypatch):
        net = PlasticNetwork.new(N_FEATURES, [12, 8], rng_for(5, 0))
        config = TrainerConfig(**CONFIG)
        tasks = odd_tasks(n_tasks=4)
        for t, data in enumerate(tasks):
            train_task(net, data, config, t)
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

    def test_nothing_frozen_means_no_cache(self):
        net, data = self.drifted_task()
        net.set_structural_freeze("full_truncated")
        assert net.frozen_activations(data.source, data.rows) is None

    def test_cache_rebuilt_after_split(self):
        """A split reverts frozen rows, so a cache built before it is
        stale; the rebuilt one matches a fresh forward and the steps
        after it match the dense reference."""
        net, data = self.drifted_task()
        stale = net.frozen_activations(data.source, data.rows)
        assert net.splitting_round(0, 1e-6, 0.0).total_splits
        assert [l.train_from for l in net.layers] == [12, 8, 1]
        assert net.hidden_layers[0].fan_out > 12
        fresh = net.frozen_activations(data.source, data.rows)
        assert any(not np.array_equal(s, f) for s, f in zip(stale, fresh))
        post = forward(net.layers, data.x).post
        for c, a, layer in zip(fresh, post, net.layers):
            assert_close(c, a[:, :layer.train_from])

        velocity = init_velocity(net.layers)
        # gemm, gemv, then a full trace (no cache) of the same network
        for idx, cached in ((np.arange(8), True), (np.array([5]), True),
                            (np.arange(8, 16), False)):
            def take_step():
                trace = net.trace(data.x[idx], [c[idx] for c in fresh] if cached else None)
                grads = backward_truncated(net.layers, trace, data.y[idx], [1])
                return trace, grads, sgd_step(net.layers, grads, 0.05, 0.9, velocity)

            covered, velocity = check_step(net.layers, velocity, take_step, data.y[idx], [1],
                                           data.x[:4])
            assert covered["open"][0] > 0

    def test_build_frees_the_task_images_after_layer_0(self, monkeypatch):
        """Opening a task gathers its images for the build only; the pass
        holds the one reference and drops it once layer 0 is done."""
        config = TrainerConfig(**CONFIG, freeze_scope="pss_only")
        net = PlasticNetwork.new(N_FEATURES, [12, 8], rng_for(5, 0))
        data = odd_tasks()
        train_task(net, data[0], config, 0)
        images, alive = [], []
        affine = MaskedLayer.affine

        def spy(layer, x, start=0, stop=None, out=None):
            if images:
                alive.append(images[0]() is not None)
            else:
                images.append(weakref.ref(x))
            return affine(layer, x, start, stop, out)

        monkeypatch.setattr(MaskedLayer, "affine", spy)
        run = open_task(net, data[1], config, 1)
        assert len(run.cache) == 3 and alive == [False, False]

    def test_build_peaks_at_images_layer_0_block_and_cache(self):
        """No per-run product, bias sum or activation temporary is held
        next to the block being built."""
        net = PlasticNetwork.new(16, [200, 20], rng_for(5, 0))
        net.grow_output(0)
        net.grow_output(1)
        net.set_structural_freeze("pss_only")
        assert [layer.train_from for layer in net.layers] == [200, 20, 1]
        rows = np.random.default_rng(1).permutation(3000)
        source = np.random.default_rng(2).standard_normal((3000, 16))
        net.frozen_activations(source, rows[:5])  # lazy imports
        cache, peak = traced_peak(net.frozen_activations, source, rows)
        held = source.nbytes + cache[0].nbytes + sum(c.nbytes for c in cache)
        assert peak <= 1.1 * held
        x = source[rows]
        for c, a, whole in zip(cache, forward_by_block(net.layers, x),
                               forward(net.layers, x).post):
            assert c.tobytes() == np.ascontiguousarray(a[:, :c.shape[1]]).tobytes()
            np.testing.assert_allclose(c, whole[:, :c.shape[1]], rtol=1e-12, atol=0)
