"""Unit tests for the sequential task trainer."""

import tracemalloc

import numpy as np
import pytest
from test_data import traced_peak

from pss import trainer
from pss.data import build_task_stream, synthetic_digits
from pss.model_io import save_model
from pss.numerics import SGD_BLOCK, MaskedLayer, NonFiniteError
from pss.plasticity import PlasticNetwork
from pss.trainer import (
    PROBE_EPOCHS,
    PROBE_LOSS,
    TaskRun,
    TrainerConfig,
    evaluate_boundary,
    rng_for,
    run_baseline_finetune,
    run_lifelong,
    train_task,
)

SMALL = dict(hidden_sizes=(12, 8), sigma=1e-6, delta=0.0,
             batch_size=32, epochs_per_task=2, seed=5)


def small_stream(n_tasks=3, n_train=360, n_test=200, seed=4):
    train, test = synthetic_digits(n_train, n_test, seed=seed)
    return build_task_stream(train, test, n_tasks=n_tasks, seed=seed,
                             test_count=n_test)


def w2_stream():
    """Three tasks of the W2 corpus (``pss train --preset synthetic
    --train-size 20000``), 600 test images: every probe passes."""
    train, test = synthetic_digits(20000, 600, seed=0)
    return build_task_stream(train, test, n_tasks=3, seed=0, test_count=600)


class TestTrainerConfig:
    def test_defaults_validate(self):
        TrainerConfig().validate()

    def test_rejections(self):
        with pytest.raises(ValueError):
            TrainerConfig(learning_rate=0.0).validate()
        with pytest.raises(ValueError):
            TrainerConfig(momentum=1.0).validate()
        with pytest.raises(ValueError):
            TrainerConfig(freeze_scope="sometimes").validate()
        with pytest.raises(ValueError):
            TrainerConfig(split_init="fresh").validate()
        with pytest.raises(ValueError):
            TrainerConfig(hidden_sizes=()).validate()
        with pytest.raises(ValueError):
            TrainerConfig(sigma=(0.3, 0.25, 0.2)).validate()
        with pytest.raises(ValueError):
            TrainerConfig(delta=-0.5).validate()

    @pytest.mark.parametrize("slope", [2.0, -1.0, float("nan")])
    def test_leaky_slope_outside_unit_interval_rejected(self, slope):
        with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
            TrainerConfig(leaky_slope=slope).validate()
        TrainerConfig(leaky_slope=0.0).validate()
        TrainerConfig(leaky_slope=1.0).validate()

    def test_to_dict_is_json_safe(self):
        import json
        json.dumps(TrainerConfig().to_dict())


class TestRngFor:
    def test_keyed_streams(self):
        a = rng_for(3, 1, 0).standard_normal(4)
        b = rng_for(3, 1, 0).standard_normal(4)
        c = rng_for(3, 1, 1).standard_normal(4)
        d = rng_for(4, 1, 0).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestTrainTaskAgainstManualLoop:
    """The full task-0 update sequence, reimplemented from scratch."""

    def test_matches_independent_implementation(self):
        cfg = TrainerConfig(hidden_sizes=(6,), sigma=10.0, delta=0.0,
                            batch_size=16, epochs_per_task=3, seed=9,
                            splitting_enabled=False,
                            freeze_scope="full_truncated").validate()
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 4))
        y = rng.integers(0, 2, size=50).astype(float)

        from pss.data import TaskDataset
        net = PlasticNetwork.new(4, [6], rng_for(cfg.seed, 0), cfg.leaky_slope)
        train_task(net, TaskDataset(x, np.arange(50), y), cfg)

        # rebuild the same starting point, then update it by hand
        ref = PlasticNetwork.new(4, [6], rng_for(cfg.seed, 0), cfg.leaky_slope)
        ref.grow_output()
        w1 = ref.hidden_layers[0].weights.copy()
        b1 = ref.hidden_layers[0].bias.copy()
        w2 = ref.output_layer.weights.copy()
        b2 = ref.output_layer.bias.copy()
        vw1, vb1 = np.zeros_like(w1), np.zeros_like(b1)
        vw2, vb2 = np.zeros_like(w2), np.zeros_like(b2)
        slope = cfg.leaky_slope
        srng = rng_for(cfg.seed, 1, 0)
        for _ in range(cfg.epochs_per_task):
            order = srng.permutation(50)
            for s in range(0, 50, cfg.batch_size):
                idx = order[s:s + cfg.batch_size]
                xb, yb = x[idx], y[idx]
                z1 = xb @ w1.T + b1
                a1 = np.where(z1 > 0, z1, slope * z1)
                z2 = a1 @ w2.T + b2
                p = 1.0 / (1.0 + np.exp(-z2[:, 0]))
                d2 = ((p - yb) / len(idx))[:, None]
                gw2, gb2 = d2.T @ a1, d2.sum(axis=0)
                d1 = (d2 @ w2) * np.where(z1 > 0, 1.0, slope)
                gw1, gb1 = d1.T @ xb, d1.sum(axis=0)
                vw2 = cfg.momentum * vw2 + gw2
                vb2 = cfg.momentum * vb2 + gb2
                vw1 = cfg.momentum * vw1 + gw1
                vb1 = cfg.momentum * vb1 + gb1
                w2 -= cfg.learning_rate * vw2
                b2 -= cfg.learning_rate * vb2
                w1 -= cfg.learning_rate * vw1
                b1 -= cfg.learning_rate * vb1

        np.testing.assert_allclose(net.hidden_layers[0].weights, w1, rtol=1e-10)
        np.testing.assert_allclose(net.hidden_layers[0].bias, b1, rtol=1e-10)
        np.testing.assert_allclose(net.output_layer.weights, w2, rtol=1e-10)
        np.testing.assert_allclose(net.output_layer.bias, b2, rtol=1e-10)

    def test_loss_decreases_on_learnable_task(self):
        stream = small_stream()
        cfg = TrainerConfig(**SMALL, splitting_enabled=False,
                            freeze_scope="full_truncated")
        net = PlasticNetwork.new(784, [12, 8], rng_for(cfg.seed, 0))
        report = train_task(net, stream.tasks[0].train, cfg)
        assert report.epoch_losses[-1] < report.epoch_losses[0]


class TestRunLifelong:
    def test_report_shapes_and_growth(self):
        stream = small_stream()
        net, report = run_lifelong(stream, TrainerConfig(**SMALL))
        assert [len(r) for r in report.accuracy_matrix] == [1, 2, 3]
        assert len(report.multiclass) == 3
        assert report.split_counts[0] == 0          # no rounds on the first task
        assert sum(report.split_counts[1:]) > 0     # tiny sigma forces splits
        assert net.hidden_sizes() == report.hidden_sizes[-1]
        assert net.hidden_sizes()[0] > 12           # the network actually grew
        assert net.check_masks() == []
        assert report.mode == "pss"

    def test_pss_only_never_forgets(self):
        stream = small_stream()
        cfg = TrainerConfig(**SMALL, freeze_scope="pss_only")
        net, report = run_lifelong(stream, cfg)
        # frozen generations: every column of the accuracy matrix is constant
        for j in range(3):
            column = [row[j] for row in report.accuracy_matrix if len(row) > j]
            assert all(v == column[0] for v in column)
        assert report.mean_forgetting() == 0.0
        # nothing ever drifts, so nothing ever splits
        assert report.split_counts == [0, 0, 0]

    def test_determinism_byte_identical(self):
        stream = small_stream()
        _, a = run_lifelong(stream, TrainerConfig(**SMALL))
        _, b = run_lifelong(stream, TrainerConfig(**SMALL))
        assert a.to_json() == b.to_json()
        cfg2 = TrainerConfig(**{**SMALL, "seed": 6})
        _, c = run_lifelong(stream, cfg2)
        assert a.to_json() != c.to_json()

    def test_weights_reproduce_bitwise(self):
        stream = small_stream(n_tasks=2)
        net1, _ = run_lifelong(stream, TrainerConfig(**SMALL))
        net2, _ = run_lifelong(stream, TrainerConfig(**SMALL))
        for l1, l2 in zip(net1.layers, net2.layers):
            assert l1.weights.tobytes() == l2.weights.tobytes()
            assert l1.bias.tobytes() == l2.bias.tobytes()

    def test_a_diverging_run_raises_non_finite_error(self):
        """A step size that overflows ends a run called from Python with
        ``NonFiniteError`` from the finiteness checks, as it ends a ``pss``
        command, not with numpy's overflow warning (an error under this
        suite's warning filter); numpy's error state is restored after."""
        before = np.geterr()
        with pytest.raises(NonFiniteError):
            run_lifelong(small_stream(n_tasks=2),
                         TrainerConfig(hidden_sizes=(12, 8), learning_rate=1e200))
        assert np.geterr() == before

    def test_empty_stream_rejected(self):
        from pss.data import TaskStream
        with pytest.raises(ValueError):
            run_lifelong(TaskStream([], np.zeros((0, 4)), np.zeros(0)),
                         TrainerConfig(**SMALL))


class TestBaseline:
    def test_never_splits_never_grows(self):
        stream = small_stream()
        net, report = run_baseline_finetune(stream, TrainerConfig(**SMALL))
        assert report.mode == "baseline-finetune"
        assert report.split_counts == [0, 0, 0]
        assert all(sizes == [12, 8] for sizes in report.hidden_sizes)
        assert net.n_outputs == 3

    @pytest.mark.parametrize("baseline", [False, True])
    def test_no_snapshot_is_held_where_no_round_can_read_it(self, baseline):
        """In task 0 and with splitting off the snapshot is released when
        the task opens, and no round runs; from task 1 on with splitting
        it is held and every epoch runs a round, before which the
        velocity's spares are dropped. Without a round they are kept."""
        cfg = TrainerConfig(**SMALL, freeze_scope="full_truncated",
                            splitting_enabled=not baseline)
        net = PlasticNetwork.new(784, list(cfg.hidden_sizes), rng_for(cfg.seed, 0))
        for t, task in enumerate(small_stream(n_tasks=2)):
            run = TaskRun(net, task.train, cfg)
            held = net.snapshot is not None
            assert held == (t > 0 and not baseline)
            while run.epoch < cfg.epochs_per_task:
                for idx in run.batches():
                    run.step(idx)
                assert (run.end_epoch() is not None) == held
                assert (net.snapshot is not None) == held
                assert all((v.spare is None) == held for v in run.velocity)

    def test_original_config_not_mutated(self):
        stream = small_stream(n_tasks=2)
        cfg = TrainerConfig(**SMALL)
        run_baseline_finetune(stream, cfg)
        assert cfg.splitting_enabled is True
        assert cfg.freeze_scope == "hybrid"


class TestHybridScope:
    def test_switches_to_frozen_after_first_split(self):
        stream = small_stream(n_tasks=2)
        cfg = TrainerConfig(**SMALL)   # hybrid by default, tiny sigma
        net, report = run_lifelong(stream, cfg)
        assert report.split_counts[1] > 0
        assert net.freeze_scope == "pss_only"
        # old generations ended the run frozen
        l0 = net.hidden_layers[0]
        gen0 = [i for i, g in enumerate(net.hidden_gens[0]) if g == 0]
        assert np.all(l0.train_mask[gen0] == 0.0)

    def test_one_round_splits_and_one_cache_is_built_per_task(self, monkeypatch):
        """After the switch old neurons are frozen, so their drift stays
        put while the threshold only grows: no later round can split, so
        none runs, the snapshot is released before the frozen-row cache is
        built, and the cache is built once per task after the probe's,
        which is built at open (every probe here fails and restarts the
        task under ``full_truncated``, which builds none). Under
        ``full_truncated`` every epoch from task 1 on runs a round and the
        snapshot is kept; under ``pss_only`` no round runs from task 1 on."""
        builds, current = [], {}
        frozen_activations = PlasticNetwork.frozen_activations

        def spy(net, source, rows):
            run = current.get("run")  # the task before, while a task opens
            cache = frozen_activations(net, source, rows)
            if cache is not None:
                builds.append((net.freeze_scope, net.snapshot, run and step_arrays(run),
                               run and next((v.spare for v in run.velocity if v.spare), None)))
            return cache

        monkeypatch.setattr(PlasticNetwork, "frozen_activations", spy)
        cfg = TrainerConfig(**dict(SMALL, epochs_per_task=4))
        net = PlasticNetwork.new(784, list(cfg.hidden_sizes), rng_for(cfg.seed, 0))
        built = []
        for t, task in enumerate(small_stream(n_tasks=4)):
            current["run"] = run = TaskRun(net, task.train, cfg)
            builds.clear()
            _, results, caches, probed = drive(run)
            rounds = sum(1 for r in results if r is not None and r.total_splits)
            assert rounds == (t > 0)
            assert probed == (PROBE_EPOCHS if t else 0)
            built += [t] * len({id(c) for c in caches if c is not None})
            assert built.count(t) == rounds + (t > 0)  # the probe's, then the switch's
            dropped = results[-1] is not None  # only a round drops the velocity's spares
            assert (step_arrays(run), all(v.spare is None for v in run.velocity)) == \
                ([], dropped)
            if t > 0:
                switch = next(e for e, r in enumerate(results) if r and r.total_splits)
                assert results[switch + 1:] == [None] * (len(results) - switch - 1)
                assert net.snapshot is None
                assert builds == [("pss_only", None, [], None)]
        assert len(built) == 6

        for scope in ("full_truncated", "pss_only"):
            cfg = TrainerConfig(**dict(SMALL, epochs_per_task=4), freeze_scope=scope)
            net = PlasticNetwork.new(784, list(cfg.hidden_sizes), rng_for(cfg.seed, 0))
            for t, task in enumerate(small_stream(n_tasks=3)):
                current["run"] = run = TaskRun(net, task.train, cfg)
                snapshot = net.snapshot
                _, results, _, probed = drive(run)
                assert probed == 0
                if t == 0:
                    continue
                if scope == "full_truncated":
                    assert all(r is not None for r in results)
                    assert net.snapshot is snapshot is not None
                else:
                    assert results == [None] * 4 and net.snapshot is None


def held_arrays(obj):
    """Every array reachable from ``obj`` through lists, tuples, dicts and
    ``pss`` objects, a view as the array it views."""
    stack, seen, found = [obj], set(), {}
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            while isinstance(o.base, np.ndarray):
                o = o.base
            found[id(o)] = o
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif type(o).__module__.startswith("pss."):
            stack.extend(vars(o).values())
    return list(found.values())


def step_arrays(run):
    """Shapes of the arrays ``run`` holds beyond the network's, the task
    data's, the cache's, the velocity's (spares included) and, while the
    probe runs, the head row at open: what its steps left behind."""
    kept = {id(a) for a in held_arrays([run.net, run.data, run.cache, run.velocity,
                                        run.head])}
    return [a.shape for a in held_arrays(run) if id(a) not in kept]


def drive(run):
    """Run every epoch of an open task as ``train_task`` does, looping on
    ``run.epoch``, so a failed probe restarts it; returns the batch losses
    and lengths, the ``end_epoch`` results, the run's cache after opening
    and after each epoch, and how many of those epochs, the first ones, a
    failed probe ran before the restart (0 where no probe failed)."""
    batches, rounds, caches, probed = [], [], [run.cache], 0
    while run.epoch < run.config.epochs_per_task:
        batches.append([(run.step(idx), len(idx)) for idx in run.batches()])
        rounds.append(run.end_epoch())
        caches.append(run.cache)
        if run.epoch == 0:  # the probe failed: the task starts again
            probed = len(rounds)
    return batches, rounds, caches, probed


def rounds_that_split(scope):
    """Train task 0 of ``scope``, then drive task 1; yield, after each of
    its rounds that split, the run, a copy of the velocity the round found
    (whole-layer: a round runs only while every row trains) and the
    round's ``SplitReport``."""
    cfg = TrainerConfig(**dict(SMALL, epochs_per_task=3), freeze_scope=scope)
    net = PlasticNetwork.new(784, list(cfg.hidden_sizes), rng_for(cfg.seed, 0))
    stream = small_stream(n_tasks=2)
    train_task(net, stream.tasks[0].train, cfg)
    run = TaskRun(net, stream.tasks[1].train, cfg)
    while run.epoch < cfg.epochs_per_task:
        for idx in run.batches():
            run.step(idx)
        before = [(v.weights.copy(), v.bias.copy()) for v in run.velocity]
        split = run.end_epoch()
        if split is not None and split.total_splits:
            yield run, before, split


PAD_SLACK = 8192  # bytes of ``pad_velocity``'s Python objects and index temporaries


class TestVelocityRule:
    """``pad_velocity`` is the one rule for the open task's velocity: at
    task open, after a round that grew, and at the hybrid switch."""

    @pytest.mark.parametrize("scope", ["hybrid", "full_truncated"])
    def test_a_round_that_grew_leaves_the_padded_reset_trainable_rows(self, scope):
        """After a round that split, the velocity equals, byte for byte, the
        whole-layer velocity padded with zeros, zeroed in the split
        originals' rows and then cut to each layer's ``train_from``, with
        no spares: at the hybrid switch and on a ``full_truncated`` round."""
        seen = 0
        for run, before, split in rounds_that_split(scope):
            net, seen = run.net, seen + 1
            assert [l.train_from > 0 for l in net.layers] == \
                [scope == "hybrid"] * len(net.layers)
            for i, (layer, (v_w, v_b), got) in enumerate(zip(net.layers, before, run.velocity)):
                want_w, want_b = np.zeros_like(layer.weights), np.zeros_like(layer.bias)
                want_w[:v_w.shape[0], :v_w.shape[1]], want_b[:len(v_b)] = v_w, v_b
                for tag in split.splits:
                    if tag.layer == i:
                        want_w[tag.index] = want_b[tag.index] = 0.0
                o = layer.train_from
                assert got.weights.tobytes() == want_w[o:].tobytes()
                assert got.bias.tobytes() == want_b[o:].tobytes()
                assert got.weights.shape == layer.weights[o:].shape and got.spare is None
        assert seen

    def test_the_switch_allocates_only_the_trainable_rows_velocity(self, monkeypatch):
        """At the hybrid switch the velocity is built for the rows that
        still train: inside ``end_epoch``, ``pad_velocity`` peaks at no more
        than the bytes of the velocity it returns plus ``PAD_SLACK``, not at
        a whole-layer velocity."""
        peaks, pad_velocity, end_epoch = [], trainer.pad_velocity, TaskRun.end_epoch

        def spy(velocity, layers, reset=()):
            out, peak = traced_peak(pad_velocity, velocity, layers, reset)
            peaks.append((peak, sum(v.weights.nbytes + v.bias.nbytes for v in out)))
            return out

        def end_epoch_spied(run):
            peaks.clear()
            return end_epoch(run)

        monkeypatch.setattr(trainer, "pad_velocity", spy)
        monkeypatch.setattr(TaskRun, "end_epoch", end_epoch_spied)
        for run, _, _ in rounds_that_split("hybrid"):
            left = sum(v.weights.nbytes + v.bias.nbytes for v in run.velocity)
            whole = sum(l.weights.nbytes + l.bias.nbytes for l in run.net.layers)
            assert [made for _, made in peaks] == [left] and left < whole
            assert peaks[0][0] <= left + PAD_SLACK, (peaks, whole)


class TestTaskSteps:
    def test_batches_cut_one_shuffle_of_the_rows(self):
        """An epoch's batches are ``batch_size`` slices of one permutation
        of the task's rows, the last taking the rest; each epoch draws a
        new order."""
        cfg = TrainerConfig(**SMALL)
        task = small_stream(n_tasks=1).tasks[0]
        run = TaskRun(PlasticNetwork.new(784, list(cfg.hidden_sizes), rng_for(cfg.seed, 0)),
                      task.train, cfg)
        want = rng_for(cfg.seed, 1, 0)
        for _ in range(2):
            batches = run.batches()
            assert [len(b) for b in batches[:-1]] == [cfg.batch_size] * (len(batches) - 1)
            assert 0 < len(batches[-1]) <= cfg.batch_size
            assert np.concatenate(batches).tolist() == want.permutation(len(task.train)).tolist()

    @pytest.mark.parametrize("scope", ["hybrid", "full_truncated"])
    def test_steps_driven_by_hand_are_train_task(self, scope):
        """The epoch loss is the sum of batch loss times batch length over
        n, each round's split count is its ``SplitReport``'s, and the
        report and weights equal those of ``train_task`` bit for bit. Under
        ``hybrid`` each task from 1 on first runs a probe, whose last epoch
        loss here is above the bar, and the report starts at the restart."""
        cfg = TrainerConfig(**SMALL, freeze_scope=scope)
        nets = [PlasticNetwork.new(784, list(cfg.hidden_sizes), rng_for(cfg.seed, 0))
                for _ in range(2)]
        for t, task in enumerate(small_stream()):
            want = train_task(nets[0], task.train, cfg)
            run = TaskRun(nets[1], task.train, cfg)
            batches, rounds, _, probed = drive(run)
            got = run.close()
            assert got == want
            assert probed == (PROBE_EPOCHS if scope == "hybrid" and t else 0)
            if probed:
                assert sum(loss * n for loss, n in batches[probed - 1]) / len(task.train) \
                    > PROBE_LOSS
            batches, rounds = batches[probed:], rounds[probed:]
            assert got.epoch_losses == [sum(loss * n for loss, n in epoch) / len(task.train)
                                        for epoch in batches]
            assert got.splits_per_epoch == [r.total_splits if r else 0 for r in rounds]
            assert (rounds[0] is None) == (t == 0)
        for a, b in zip(nets[0].layers, nets[1].layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()


    @pytest.mark.parametrize("scope", ["hybrid", "pss_only"])
    def test_velocity_has_the_gradients_shapes_after_every_step(self, scope, monkeypatch):
        """Velocity covers the rows that train: after every step each
        layer's velocity from the run's ``start`` on is shaped like the
        gradients ``sgd_step`` received, and the velocity of each layer
        below it has no row, before and after the hybrid switch and under
        ``pss_only`` from task start."""
        received, sgd_step = [], trainer.sgd_step

        def spy(layers, grads, *args):
            received.append([(g.weights.shape, g.bias.shape) for g in grads])
            return sgd_step(layers, grads, *args)

        monkeypatch.setattr(trainer, "sgd_step", spy)
        cfg = TrainerConfig(**SMALL, freeze_scope=scope)
        net = PlasticNetwork.new(784, list(cfg.hidden_sizes), rng_for(cfg.seed, 0))
        scopes = set()
        for task in small_stream():
            run = TaskRun(net, task.train, cfg)
            while run.epoch < cfg.epochs_per_task:
                for idx in run.batches():
                    received.clear()
                    run.step(idx)
                    shapes = [(v.weights.shape, v.bias.shape) for v in run.velocity]
                    assert [shapes[run.start:]] == received
                    assert all(len(v.bias) == 0 for v in run.velocity[:run.start])
                    scopes.add((net.freeze_scope, any(l.train_from for l in net.layers)))
                run.end_epoch()
            run.close()
        assert ("pss_only", True) in scopes
        assert (("full_truncated", False) in scopes) == (scope == "hybrid")

    def test_a_dense_step_allocates_nothing_parameter_sized(self):
        """From the task's second step on, a step of a dense task writes
        its gradients, velocity and weights into the spares its velocity
        keeps, so the traced peak rise of a
        step stays below the size of the largest weight array. Task 0
        runs no splitting round, so an epoch's end keeps them, and the
        first steps of epochs 2 and 3 allocate no more than the rest."""
        cfg = TrainerConfig(**dict(SMALL, hidden_sizes=(96, 8)))
        net = PlasticNetwork.new(784, list(cfg.hidden_sizes), rng_for(cfg.seed, 0))
        run = TaskRun(net, small_stream(n_tasks=1).tasks[0].train, cfg)
        largest = max(l.weights.nbytes for l in net.layers)
        assert net.layers[0].fan_out >= 2 * (SGD_BLOCK // net.layers[0].fan_in)  # >= 2 blocks
        rises, firsts = [], []
        tracemalloc.start()
        try:
            for epoch in range(3):
                for n, idx in enumerate(run.batches()):
                    current, _ = tracemalloc.get_traced_memory()
                    tracemalloc.reset_peak()
                    run.step(idx)
                    if epoch or n:
                        rises.append(tracemalloc.get_traced_memory()[1] - current)
                        if not n:
                            firsts.append(rises[-1])
                assert run.end_epoch() is None and all(v.spare for v in run.velocity)
        finally:
            tracemalloc.stop()
        assert not any(l.train_from for l in net.layers)
        assert len(firsts) == 2 and len(rises) >= 6
        assert max(rises) < largest, (firsts, max(rises), largest)

    def test_the_gradient_lives_in_the_velocitys_spare(self, monkeypatch):
        """After two steps of a dense task, every gradient that
        ``backward_truncated`` returned was the arrays of its layer's
        velocity spare, and the run holds no array shaped like a layer's
        weights or bias other than the layers', the velocity's and its
        spare's: no step keeps a gradient array of its own."""
        cfg = TrainerConfig(**dict(SMALL, hidden_sizes=(96, 8)))
        net = PlasticNetwork.new(784, list(cfg.hidden_sizes), rng_for(cfg.seed, 0))
        run = TaskRun(net, small_stream(n_tasks=1).tasks[0].train, cfg)
        in_spare, backward = [], trainer.backward_truncated

        def spy(*args):
            grads = backward(*args)
            in_spare.append([v.spare is not None and g.weights is v.spare[0]
                             and g.bias is v.spare[1] for g, v in zip(grads, run.velocity)])
            return grads

        monkeypatch.setattr(trainer, "backward_truncated", spy)
        for idx in run.batches()[:2]:
            run.step(idx)
        assert in_spare == [[True] * len(net.layers)] * 2
        kept = {id(a) for l, v in zip(net.layers, run.velocity)
                for a in (l.weights, l.bias, v.weights, v.bias, *v.spare)}
        shapes = {a.shape for l in net.layers for a in (l.weights, l.bias)}
        assert [a.shape for a in held_arrays(run)
                if a.shape in shapes and id(a) not in kept] == []

    def test_a_step_leaves_no_array_behind(self):
        """After each step of a task that splits and switches to
        ``pss_only``, the run holds no array beyond the network's, the
        task data's, the cache's and the velocity's, so none with a row
        per batch image: a step's trace lives only for that step."""
        cfg = TrainerConfig(**SMALL)
        net = PlasticNetwork.new(784, list(cfg.hidden_sizes), rng_for(cfg.seed, 0))
        stream = small_stream(n_tasks=2)
        train_task(net, stream.tasks[0].train, cfg)
        run = TaskRun(net, stream.tasks[1].train, cfg)
        scopes = set()
        while run.epoch < cfg.epochs_per_task:
            for idx in run.batches():
                run.step(idx)
                scopes.add(net.freeze_scope)
                assert step_arrays(run) == []
            run.end_epoch()
        assert scopes == {"full_truncated", "pss_only"}

    def test_a_task_closed_before_any_epoch_reports_no_losses(self):
        cfg = TrainerConfig(**SMALL)
        net = PlasticNetwork.new(784, list(cfg.hidden_sizes), rng_for(cfg.seed, 0))
        report = TaskRun(net, small_stream(n_tasks=1).tasks[0].train, cfg).close()
        assert report.epoch_losses == [] and report.splits_per_epoch == []
        assert net.hidden_sizes() == list(cfg.hidden_sizes)
        assert net.parameter_count() == (784 + 1) * 12 + (12 + 1) * 8 + 8 + 1


def model_bytes(net, tmp_path, name):
    path = tmp_path / name
    save_model(str(path), net)
    return path.read_bytes()


class TestProbe:
    """From task 1 on, ``hybrid`` opens each task in a probe: ``PROBE_EPOCHS``
    epochs of ``pss_only``. At or below ``PROBE_LOSS`` the task finishes
    there; above it the task starts again as a probe-less ``hybrid`` task."""

    def test_a_stream_whose_probes_pass_is_trained_as_under_pss_only(self, tmp_path):
        """Three tasks of the W2 corpus (``pss train --preset synthetic
        --train-size 20000``) on the default trunk: each probe ends near
        0.03, so ``hybrid`` never splits, and its accuracy matrix, epoch
        losses, hidden sizes and model file are those of ``pss_only``."""
        stream = w2_stream()
        runs = {scope: run_lifelong(stream, TrainerConfig(epochs_per_task=3,
                                                          freeze_scope=scope))
                for scope in ("hybrid", "pss_only")}
        (net, got), (want_net, want) = runs["hybrid"], runs["pss_only"]
        assert got.split_counts == [0, 0, 0] and got.filler_counts == [0, 0, 0]
        assert max(losses[PROBE_EPOCHS - 1] for losses in got.epoch_losses[1:]) <= PROBE_LOSS
        assert got.accuracy_matrix == want.accuracy_matrix
        assert got.epoch_losses == want.epoch_losses
        assert got.hidden_sizes == want.hidden_sizes == [[312, 128]] * 3
        assert model_bytes(net, tmp_path, "hybrid") == model_bytes(want_net, tmp_path, "pss")

    def test_a_stream_whose_probes_fail_is_trained_as_without_a_probe(
            self, tmp_path, monkeypatch):
        """Every probe of ``small_stream`` fails; each restart puts the head
        row back at its bytes at open, and the report and weights equal, byte
        for byte, those of the run with no probe (``PROBE_EPOCHS = 0``)."""
        opened, restarts = {}, []
        grow_output, end_epoch = PlasticNetwork.grow_output, TaskRun.end_epoch

        def grow_spy(net):
            task = grow_output(net)
            opened[task] = (net.output_layer.weights[task].tobytes(), net.output_layer.bias[task])
            return task

        def end_epoch_spy(run):
            net, probing = run.net, run.head is not None
            head = net.output_layer.weights[net.task].tobytes()
            result = end_epoch(run)
            if probing and run.head is None:  # the verdict: a restart
                assert run.epoch == 0 and run.report.epoch_losses == []
                assert head != opened[net.task][0]  # the probe trained the head row
                restarts.append((net.task, net.output_layer.weights[net.task].tobytes(),
                                 net.output_layer.bias[net.task]))
            return result

        cfg = TrainerConfig(**SMALL)
        with monkeypatch.context() as patch:
            patch.setattr(PlasticNetwork, "grow_output", grow_spy)
            patch.setattr(TaskRun, "end_epoch", end_epoch_spy)
            net, report = run_lifelong(small_stream(), cfg)
        assert restarts == [(t, *opened[t]) for t in (1, 2)]
        monkeypatch.setattr(trainer, "PROBE_EPOCHS", 0)
        want_net, want = run_lifelong(small_stream(), cfg)
        assert report.to_json() == want.to_json() and sum(report.split_counts) > 0
        assert model_bytes(net, tmp_path, "probe") == model_bytes(want_net, tmp_path, "none")


class TestTaskOpening:
    def test_opening_a_task_snapshots_the_trained_weights(self):
        """Drift is measured from the boundary the task opened at, not
        from the start of the task before it."""
        cfg = TrainerConfig(**SMALL, freeze_scope="full_truncated")
        net = PlasticNetwork.new(784, list(cfg.hidden_sizes), rng_for(cfg.seed, 0))
        stream = small_stream(n_tasks=2)
        train_task(net, stream.tasks[0].train, cfg)
        TaskRun(net, stream.tasks[1].train, cfg)
        assert [float(net.semantic_drift(l).max()) for l in range(2)] == [0.0, 0.0]
        for layer, w, b in zip(net.hidden_layers, net.snapshot.weights, net.snapshot.biases):
            assert w.tobytes() == layer.weights.tobytes()
            assert b.tobytes() == layer.bias.tobytes()

    @pytest.mark.parametrize("scope", ["hybrid", "full_truncated", "pss_only", "baseline"])
    def test_a_snapshot_is_taken_only_where_a_round_can_read_it(self, scope, monkeypatch):
        """One snapshot per task from task 1 on under ``hybrid`` and
        ``full_truncated``, where rounds read it and split; none in task 0,
        none with splitting off (``--baseline``) and none under
        ``pss_only``, where no round runs."""
        taken, take = [], PlasticNetwork.take_snapshot

        def spy(net):
            taken.append(net.task)
            return take(net)

        monkeypatch.setattr(PlasticNetwork, "take_snapshot", spy)
        stream = small_stream(n_tasks=3)
        if scope == "baseline":
            _, report = run_baseline_finetune(stream, TrainerConfig(**SMALL))
        else:
            _, report = run_lifelong(stream, TrainerConfig(**SMALL, freeze_scope=scope))
        reads = scope in ("hybrid", "full_truncated")
        assert taken == ([1, 2] if reads else [])
        assert all(report.split_counts[1:]) == reads

    @pytest.mark.parametrize("scope, sigma", [("full_truncated", SMALL["sigma"]),
                                              ("hybrid", 1e9)])
    def test_a_tasks_snapshot_is_released_when_it_closes(self, scope, sigma, monkeypatch):
        """A snapshot no round released (under ``full_truncated``, and under
        ``hybrid`` when a restarted task never splits) is released by
        ``close``: none is held through the boundary evaluation, the model
        save or past the last task."""
        taken, take = [], PlasticNetwork.take_snapshot

        def spy(net):
            taken.append(net.task)
            return take(net)

        monkeypatch.setattr(PlasticNetwork, "take_snapshot", spy)
        cfg = TrainerConfig(**dict(SMALL, sigma=sigma), freeze_scope=scope)
        net = PlasticNetwork.new(784, list(cfg.hidden_sizes), rng_for(cfg.seed, 0))
        for task in small_stream(n_tasks=3):
            train_task(net, task.train, cfg)
            assert net.snapshot is None
        assert taken == [1, 2]

    def test_each_round_uses_the_thresholds_of_its_epoch(self):
        """Every round reports the epoch it ran after and the thresholds
        ``sigma + epoch * delta`` of that epoch, bit for bit; the next task
        starts again at ``sigma``."""
        sigma, delta = (0.3, 0.25), (0.0015, 0.25)
        cfg = TrainerConfig(**dict(SMALL, sigma=sigma, delta=delta, epochs_per_task=3),
                            freeze_scope="full_truncated")
        net = PlasticNetwork.new(784, list(cfg.hidden_sizes), rng_for(cfg.seed, 0))
        firsts = []
        for t, task in enumerate(small_stream(n_tasks=3)):
            _, rounds, _, _ = drive(TaskRun(net, task.train, cfg))
            if t == 0:
                assert rounds == [None] * 3
                continue
            for e, r in enumerate(rounds):
                assert r.task == t and r.epoch == e
                assert r.thresholds == [0.3 + e * 0.0015, 0.25 + e * 0.25]
            firsts.append(rounds[0].thresholds)
        assert firsts == [[0.3, 0.25], [0.3, 0.25]]


class TestNoDenseViews:
    """Trainability is runs, ``train_from`` and a frozen set; training never
    builds the dense ``conn_mask`` or ``train_mask`` views."""

    @pytest.mark.parametrize("scope", ["hybrid", "pss_only", "full_truncated", "baseline"])
    def test_training_reads_no_dense_view(self, scope, monkeypatch):
        def refuse(layer):
            raise AssertionError("a dense view was read")
        for name in ("conn_mask", "train_mask"):
            monkeypatch.setattr(MaskedLayer, name, property(refuse))
        if scope == "baseline":
            net, report = run_baseline_finetune(small_stream(), TrainerConfig(**SMALL))
        else:
            net, report = run_lifelong(small_stream(),
                                       TrainerConfig(**SMALL, freeze_scope=scope))
        assert len(report.accuracy_matrix) == 3
        # old neurons drift only where they train: not under pss_only,
        # and the baseline never splits
        assert (sum(report.split_counts) > 0) == (scope in ("hybrid", "full_truncated"))
        for layer in net.layers:
            assert layer.frozen is None
            arrays = {k for k, v in vars(layer).items() if isinstance(v, np.ndarray)}
            assert arrays == {"weights", "bias"}


# The runs whose boundaries are checked: a stream and ``run_lifelong``'s
# config (``baseline``: ``run_baseline_finetune`` instead). From task 1 on,
# every task of the ``HEAD_ALONE`` runs trains its output row alone; no task
# of the others does, though the probes of ``hybrid`` start so. The
# ``NO_CARRY`` runs have no task that could.
BOUNDARY_RUNS = {
    "hybrid, probes pass": (w2_stream, dict(epochs_per_task=3)),
    "hybrid, probes fail": (small_stream, SMALL),
    "pss_only": (small_stream, dict(SMALL, freeze_scope="pss_only")),
    "full_truncated": (small_stream, dict(SMALL, freeze_scope="full_truncated")),
    "baseline": (small_stream, dict(SMALL, baseline=True)),
    "pss_only, magnitude freeze 0.05": (small_stream, dict(SMALL, freeze_scope="pss_only",
                                                           magnitude_freeze_threshold=0.05)),
    "hybrid, reverted split init": (small_stream, dict(SMALL, split_init="reverted")),
}
HEAD_ALONE = {"hybrid, probes pass", "pss_only", "pss_only, magnitude freeze 0.05"}
NO_CARRY = {"baseline", "full_truncated"}


def carry_bytes(carry):
    return None if carry is None else sum(a.nbytes for a in held_arrays(carry))


@pytest.fixture(scope="module", params=sorted(BOUNDARY_RUNS))
def boundaries(request):
    """Train a run of ``BOUNDARY_RUNS`` with spies; returns its name and,
    per task, a record of its steps (whether each started at the output
    layer, and the bytes of carry held then), the carry's bytes when it
    opens and closes, and of its boundary: the logits scored and those of
    ``net.predict`` on the pool, the pool passes made (layers forwarded,
    output columns computed), the carry's bytes after it and the bound
    ``len(pool) * (last hidden width + outputs) * 8``."""
    case = request.param
    make_stream, kw = BOUNDARY_RUNS[case]
    kw = dict(kw)
    baseline = kw.pop("baseline", False)
    tasks, passes, scored = [], [], []
    step, post_activations = TaskRun.step, trainer.post_activations
    multiclass, train, evaluate = (trainer.multiclass_accuracy, trainer.train_task,
                                   trainer.evaluate_boundary)

    def step_spy(run, idx):
        tasks[-1]["steps"].append((run.start == len(run.net.layers) - 1,
                                   carry_bytes(run.carry)))
        return step(run, idx)

    def post_spy(layers, source, *args, **kwargs):
        cached = kwargs.get("cached")
        passes.append((len(layers), layers[-1].fan_out - (cached[-1].shape[1] if cached else 0)))
        return post_activations(layers, source, *args, **kwargs)

    def multiclass_spy(logits, labels):
        scored.append(logits.copy())
        return multiclass(logits, labels)

    def train_spy(net, data, config, carry=None):
        tasks.append(dict(steps=[], opened=carry_bytes(carry)))
        report = train(net, data, config, carry)
        tasks[-1]["closed"] = carry_bytes(carry)
        return report

    def evaluate_spy(net, stream, upto, carry=None):
        passes.clear()
        result = evaluate(net, stream, upto, carry)
        tasks[-1].update(
            scored=scored[-1].tobytes(), predicted=net.predict(stream.pool_x).tobytes(),
            passes=list(passes), layers=len(net.layers), outputs=net.n_outputs,
            after=carry_bytes(carry),
            bound=len(stream.pool_x) * (net.hidden_sizes()[-1] + net.n_outputs) * 8)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TaskRun, "step", step_spy)
        for name, spy in (("post_activations", post_spy), ("multiclass_accuracy", multiclass_spy),
                          ("train_task", train_spy), ("evaluate_boundary", evaluate_spy)):
            patch.setattr(trainer, name, spy)
        stream = make_stream()
        if baseline:
            run_baseline_finetune(stream, TrainerConfig(**kw))
        else:
            run_lifelong(stream, TrainerConfig(**kw))
    return case, tasks


def trained_head_alone(task):
    """Whether every step of ``task`` started at the output layer."""
    return all(head for head, _ in task["steps"])


class TestEvaluateBoundary:
    @pytest.mark.parametrize("baseline", [False, True])
    def test_one_pool_forward_equals_per_task_forwards(self, baseline, monkeypatch):
        """At every boundary, the accuracies read from the pool logits
        equal a per-task ``predict`` on each test set plus a pool argmax."""
        checked = []

        def compare(net, stream, upto, carry=None):
            row, mc = evaluate_boundary(net, stream, upto, carry)
            want = [float(np.mean((net.predict(task.test.x)[:, j] >= 0.0) == task.test.y))
                    for j, task in enumerate(stream.tasks[:upto + 1])]
            want_mc = float(np.mean(np.argmax(net.predict(stream.pool_x), axis=1)
                                    == stream.pool_y))
            assert row == want and mc == want_mc
            checked.append(upto)
            return row, mc

        monkeypatch.setattr(trainer, "evaluate_boundary", compare)
        run = run_baseline_finetune if baseline else run_lifelong
        _, report = run(small_stream(n_tasks=4), TrainerConfig(**SMALL))
        assert checked == [0, 1, 2, 3]
        assert (sum(report.split_counts) > 0) == (not baseline)

    def test_row_lengths(self):
        stream = small_stream(n_tasks=2)
        net, _ = run_lifelong(stream, TrainerConfig(**SMALL))
        row, mc = evaluate_boundary(net, stream, 1)
        assert len(row) == 2
        assert 0.0 <= mc <= 1.0


class TestBoundaryCarry:
    """A boundary after a task that trained its output row alone computes
    that row's column from the carried pool activations of the last
    hidden layer; any other boundary forwards the pool once."""

    def test_the_scored_logits_are_the_bytes_of_predict(self, boundaries):
        _, tasks = boundaries
        for task in tasks:
            assert task["scored"] == task["predicted"]

    def test_one_pool_forward_through_the_trunk_per_task_that_moved_it(self, boundaries):
        case, tasks = boundaries
        alone = [trained_head_alone(task) for task in tasks]
        for task, head_alone in zip(tasks, alone):
            fresh = (task["layers"], task["outputs"])
            assert task["passes"] == [(1, 1) if head_alone else fresh]
        assert alone == [False] + [case in HEAD_ALONE] * (len(tasks) - 1)

    def test_the_carry_holds_only_what_the_next_boundary_reads(self, boundaries):
        """Between boundaries the run holds the last hidden layer's pool
        activations and the pool logits, and only while every step trains
        the output row alone; under ``--baseline`` and ``full_truncated``,
        where no task can, it holds nothing."""
        case, tasks = boundaries
        if case in NO_CARRY:
            held = {task[k] for task in tasks for k in ("opened", "closed", "after")}
            assert held | {b for task in tasks for _, b in task["steps"]} == {None}
            return
        bound = 0
        for task in tasks:
            assert task["opened"] == bound
            assert all(held == (bound if head else 0) for head, held in task["steps"])
            assert task["closed"] == (bound if trained_head_alone(task) else 0)
            bound = task["bound"]
            assert task["after"] == bound
