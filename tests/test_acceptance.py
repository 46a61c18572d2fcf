"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``ACCEPTANCE n: ...`` line with the measured
numbers (visible with ``pytest -s``, and in the captured output on
failure); the pytest verdict for the test is the pass/fail line for the
criterion. Criteria that need the real digit corpus look it up via
``PSS_DATA_DIR`` and fall back to a deterministic synthetic surrogate,
or skip, as noted per test.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from pss.data import (
    Task,
    TaskDataset,
    TaskStream,
    build_task_stream,
    find_mnist,
    load_idx,
    load_mnist,
    make_variation,
    save_idx,
    synthetic_digits,
)
from pss.evaluation import export, forgetting
from pss.numerics import (
    backward_truncated,
    gradcheck,
    init_velocity,
    pad_velocity,
    sgd_step,
)
from pss.plasticity import PlasticNetwork
from pss.trainer import (
    TrainerConfig,
    evaluate_boundary,
    rng_for,
    run_baseline_finetune,
    run_lifelong,
    train_task,
)


def blob_stream(seed=0, train_per_task=300, test_per_task=200):
    """Three 2-D Gaussian blob classes as a one-vs-rest task stream;
    each set is rows of the images it was drawn from, as in
    ``build_task_stream``."""
    rng = np.random.default_rng(seed)
    centers = np.array([[3.0, 0.0], [-1.5, 2.6], [-1.5, -2.6]])

    def draw(n_per_class):
        xs = [c + rng.standard_normal((n_per_class, 2)) for c in centers]
        ys = [np.full(n_per_class, k) for k in range(3)]
        return np.concatenate(xs), np.concatenate(ys)

    tasks = []
    pool_x, pool_y = draw(test_per_task // 2)
    for t in range(3):
        def binary(n_total, x, y):
            pos = np.flatnonzero(y == t)[:n_total // 2]
            neg = rng.permutation(np.flatnonzero(y != t))[:n_total // 2]
            idx = np.concatenate([pos, neg])
            lab = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
            order = rng.permutation(len(idx))
            return TaskDataset(x, idx[order], lab[order], t, t)
        tx, ty = draw(train_per_task)
        tasks.append(Task(index=t, positive_class=t,
                          train=binary(train_per_task, tx, ty),
                          test=binary(test_per_task, pool_x, pool_y)))
    return TaskStream(tasks=tasks, pool_x=pool_x, pool_y=pool_y)


def variation_stream(seed):
    """Noisy 10-task one-vs-rest stream, 1000 training images per task.

    Uses the real digit corpus when PSS_DATA_DIR points at it, else a
    deterministic synthetic surrogate with the same layout. Returns the
    stream and the source label."""
    if find_mnist() is not None:
        train, test = load_mnist()
        source = "real corpus"
    else:
        train, test = synthetic_digits(20000, 4000, seed=seed)
        source = "synthetic surrogate"
    train = make_variation(
        train, np.random.SeedSequence(entropy=seed, spawn_key=(2, 0)))
    test = make_variation(
        test, np.random.SeedSequence(entropy=seed, spawn_key=(2, 1)))
    stream = build_task_stream(train, test, n_tasks=10, seed=seed,
                               per_task_train=1000, test_count=2000)
    return stream, source


class TestCriterion1GradientCorrectness:
    def test_masked_backprop_matches_finite_differences(self):
        """20 random masked/frozen nets of dims [10, 8, 6, 4]: analytic
        gradients within 1e-5 relative error of central differences,
        frozen positions exactly zero, all inside one minute."""
        started = time.perf_counter()
        worst = 0.0
        for seed in range(20):
            report = gradcheck([10, 8, 6, 4], seed=seed,
                               zero_prob=0.3, freeze_prob=0.3,
                               tolerance=1e-5)
            assert report.frozen_nonzero == 0, f"seed {seed}: frozen moved"
            assert report.max_rel_error < 1e-5, \
                f"seed {seed}: max rel error {report.max_rel_error:.3e}"
            worst = max(worst, report.max_rel_error)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        print(f"ACCEPTANCE 1: PASS max rel error {worst:.3e} < 1e-5 "
              f"over 20 seeds in {elapsed:.1f}s")


class TestCriterion2OldTaskExactness:
    def test_frozen_generation_outputs_are_bit_identical(self):
        """Three blob tasks, 300 points each, pss_only scope: task 0 and
        task 1 logits do not change by a single bit while task 2 trains,
        and forgetting is exactly 0.0."""
        started = time.perf_counter()
        stream = blob_stream(seed=0)
        cfg = TrainerConfig(hidden_sizes=(16, 8), learning_rate=0.05,
                            momentum=0.9, batch_size=32, epochs_per_task=4,
                            sigma=1e-6, delta=0.0, freeze_scope="pss_only",
                            seed=0).validate()
        net = PlasticNetwork.new(2, [16, 8], rng_for(cfg.seed, 0))
        probe = np.concatenate([stream.tasks[0].test.x, stream.tasks[1].test.x])
        matrix = []
        frozen = None
        for task in stream:
            train_task(net, task.train, cfg, task.index)
            row, _ = evaluate_boundary(net, stream, task.index)
            matrix.append(row)
            if task.index == 1:
                frozen = net.predict(probe)[:, :2].copy()
        after = net.predict(probe)[:, :2]
        assert np.ascontiguousarray(after).tobytes() == \
            np.ascontiguousarray(frozen).tobytes(), "old logits changed bits"
        per_task, mean = forgetting(matrix)
        assert per_task == [0.0, 0.0] and mean == 0.0
        # sanity: the run actually learned something worth preserving
        # (later tasks train under a mostly frozen trunk, so expectations
        # are modest; the criterion itself is exactness, not accuracy)
        assert matrix[-1][0] > 0.8 and matrix[-1][1] > 0.8
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        print(f"ACCEPTANCE 2: PASS bit-identical logits, forgetting 0.0, "
              f"accs {['%.3f' % a for a in matrix[-1]]} in {elapsed:.1f}s")


class TestCriterion3StructuralFuzz:
    def test_thousand_random_operations_keep_invariants(self):
        """1000 random grow/split/round/train/freeze operations on one
        network: the invariant audit never reports a violation."""
        started = time.perf_counter()
        rng = np.random.default_rng(1234)
        net = PlasticNetwork.new(4, [6, 5], np.random.default_rng(99))
        velocity = None
        ops_done = 0
        violations = []
        epoch, sigma, delta = 0, None, None  # of the open task

        def do_grow():
            nonlocal epoch, sigma, delta
            net.grow_output(net.task + 1)
            epoch, sigma = 0, float(rng.uniform(0.01, 2.0))
            delta = float(rng.uniform(0.0, 0.5))

        def do_split():
            if sum(net.hidden_sizes()) > 250 or net.snapshot is None:
                return
            l = int(rng.integers(net.n_hidden_layers))
            eligible = [i for i in range(net.snapshot.weights[l].shape[0])
                        if i not in net._split_done[l]]
            if eligible:
                net.split_neuron(l, int(rng.choice(eligible)),
                                 "drifted" if rng.random() < 0.5 else "reverted")

        def do_round():
            if net.snapshot is None:
                return
            l = int(rng.integers(net.n_hidden_layers))
            rows = net.snapshot.weights[l].shape[0]
            if rows and sum(net.hidden_sizes()) <= 250:
                i = int(rng.integers(rows))
                net.hidden_layers[l].weights[i, 0] += float(rng.uniform(-2, 2))
            rng.integers(5)  # an unused draw that keeps the seeded op sequence fixed
            net.splitting_round(epoch, sigma, delta)

        def do_filler():
            net.ensure_support_path()

        def do_train():
            nonlocal velocity
            if net.n_outputs == 0:
                return
            if velocity is None:
                velocity = init_velocity(net.layers)
            else:
                velocity = pad_velocity(velocity, net.layers)
            x = rng.standard_normal((8, net.n_features))
            y = rng.integers(0, 2, size=8).astype(float)
            out = int(rng.integers(net.n_outputs))
            trace = net.trace(x)
            grads = backward_truncated(net.layers, trace, y, [out])
            velocity = sgd_step(net.layers, grads, 0.05, 0.9, velocity)

        def do_freeze_small():
            net.freeze_small_weights(float(rng.uniform(0.0, 0.05)))

        def do_scope():
            net.set_structural_freeze(
                "pss_only" if rng.random() < 0.5 else "full_truncated")

        def do_end_epoch():
            nonlocal epoch
            epoch += 1

        ops = [do_grow, do_split, do_round, do_filler, do_train,
               do_freeze_small, do_scope, do_end_epoch]
        weights = np.array([0.08, 0.2, 0.12, 0.05, 0.35, 0.05, 0.1, 0.05])
        do_grow()
        violations.extend(net.check_masks())
        ops_done += 1
        while ops_done < 1000:
            op = ops[int(rng.choice(len(ops), p=weights / weights.sum()))]
            op()
            problems = net.check_masks()
            if problems:
                violations.extend(f"op {ops_done} ({op.__name__}): {p}"
                                  for p in problems)
            ops_done += 1
        elapsed = time.perf_counter() - started
        assert violations == [], violations[:5]
        assert elapsed < 120.0
        print(f"ACCEPTANCE 3: PASS 1000 ops, 0 violations, final sizes "
              f"{net.hidden_sizes()} x {net.n_outputs} outputs in {elapsed:.1f}s")


class TestCriterion4ThresholdSchedule:
    # (sigma, delta, epochs) triples whose threshold equals an exactly
    # representable squared perturbation, so equality is exact in floats
    GRID = [
        (0.25, 0.0, 0, 0.5),      # threshold 0.25 = 0.5^2
        (1.0, 0.0, 3, 1.0),       # 1.0 = 1^2, escalation disabled
        (1.0, 0.625, 2, 1.5),     # 1.0 + 2*0.625 = 2.25 = 1.5^2
        (0.25, 0.5, 4, 1.5),      # 0.25 + 4*0.5  = 2.25
        (2.25, 0.0, 1, 1.5),
        (1.0, 0.75, 4, 2.0),      # 1.0 + 4*0.75  = 4.0 = 2^2
    ]

    @pytest.mark.parametrize("sigma,delta,epochs,root", GRID)
    def test_no_split_at_equality_split_above(self, sigma, delta, epochs, root):
        """Drift exactly at the epoch's threshold never splits; any
        drift above it does. The grid covers flat and escalating
        schedules at several epochs."""
        def prepared():
            net = PlasticNetwork.new(3, [4, 3], np.random.default_rng(0))
            net.grow_output(0)
            net.grow_output(1)
            # zero the probed row so snapshot deltas are exact binaries,
            # making drift == threshold representable without rounding
            net.hidden_layers[0].weights[1, :] = 0.0
            net.hidden_layers[0].bias[1] = 0.0
            net.take_snapshot()
            return net

        threshold = sigma + epochs * delta
        assert root * root == threshold   # grid rows are exact by design

        net = prepared()
        net.hidden_layers[0].weights[1, 0] += root     # drift == threshold
        report = net.splitting_round(epoch=epochs, sigma=sigma, delta=delta)
        assert report.total_splits == 0, \
            f"split at equality: drift {root*root} vs threshold {threshold}"

        net = prepared()
        net.hidden_layers[0].weights[1, 0] += root
        net.hidden_layers[0].bias[1] += 0.5            # now strictly above
        report = net.splitting_round(epoch=epochs, sigma=sigma, delta=delta)
        assert [t.index for t in report.splits] == [1]
        assert report.drifts == [root * root + 0.25]
        print(f"ACCEPTANCE 4: PASS sigma={sigma} delta={delta} "
              f"epochs={epochs}: equality kept, excess split")


class TestCriterion5ForgettingDemonstration:
    def test_plastic_beats_finetune_baseline_on_three_seeds(self):
        """Ten noisy one-vs-rest tasks, 1000 images each, 3 epochs per
        task: with splitting the final average accuracy is higher and
        mean forgetting lower than plain fine-tuning, for every one of
        three seeds, all within 15 minutes.

        Runs on the noisy real corpus when available, otherwise on the
        deterministic synthetic surrogate, so the comparison is checked
        in any environment.
        """
        started = time.perf_counter()
        margins = []
        source = "?"
        for seed in (0, 1, 2):
            stream, source = variation_stream(seed)
            cfg = TrainerConfig(hidden_sizes=(64, 32), learning_rate=0.05,
                                momentum=0.9, batch_size=64,
                                epochs_per_task=3, sigma=(0.05, 0.05),
                                delta=(0.1, 0.1), freeze_scope="hybrid",
                                seed=seed).validate()
            _, plastic = run_lifelong(stream, cfg)
            _, baseline = run_baseline_finetune(stream, cfg)
            d_acc = plastic.final_average_accuracy() \
                - baseline.final_average_accuracy()
            d_fgt = baseline.mean_forgetting() - plastic.mean_forgetting()
            assert sum(plastic.split_counts) > 0, "no splits happened"
            assert d_acc > 0, \
                f"seed {seed}: plastic avg acc not above baseline ({d_acc:+.4f})"
            assert d_fgt > 0, \
                f"seed {seed}: baseline did not forget more ({d_fgt:+.4f})"
            margins.append((seed, d_acc, d_fgt))
        elapsed = time.perf_counter() - started
        assert elapsed < 900.0
        detail = ", ".join(f"seed {s}: +{a:.3f} acc / +{f:.3f} fgt"
                           for s, a, f in margins)
        print(f"ACCEPTANCE 5: PASS ({source}) {detail} in {elapsed:.0f}s")


class TestCriterion6FullScaleAccuracy:
    def test_reaches_reference_accuracy_bars(self):
        """Soft criterion: with the real digit corpus available, the
        full configuration should reach 0.90 average accuracy on clean
        data and 0.70 on the noisy variation. A miss is reported in the
        printed line, not raised, per the shipping contract; without the
        corpus the test is skipped."""
        if find_mnist() is None:
            pytest.skip("real digit corpus not present (set PSS_DATA_DIR)")
        train, test = load_mnist()
        results = {}
        for variant, target in (("clean", 0.90), ("variation", 0.70)):
            tr, te = train, test
            if variant == "variation":
                tr = make_variation(tr, np.random.SeedSequence(
                    entropy=0, spawn_key=(2, 0)))
                te = make_variation(te, np.random.SeedSequence(
                    entropy=0, spawn_key=(2, 1)))
            stream = build_task_stream(tr, te, n_tasks=10, seed=0,
                                       test_count=2000)
            cfg = TrainerConfig(seed=0).validate()   # 312/128 defaults
            _, report = run_lifelong(stream, cfg)
            results[variant] = (report.final_average_accuracy(), target)
        verdicts = []
        for variant, (acc, target) in results.items():
            verdicts.append(
                f"{variant}: {acc:.4f} vs target {target:.2f} "
                f"({'met' if acc >= target else 'MISSED (soft)'})")
        print("ACCEPTANCE 6: " + "; ".join(verdicts))


class TestCriterion7Determinism:
    def test_reports_are_byte_identical(self, tmp_path):
        """Two runs from one seed export byte-identical JSON; a third
        run from another seed differs."""
        train, test = synthetic_digits(600, 300, seed=2)
        stream = build_task_stream(train, test, n_tasks=4, seed=2,
                                   test_count=300)
        cfg = TrainerConfig(hidden_sizes=(12, 8), sigma=(0.01, 0.01),
                            delta=(0.1, 0.1), batch_size=32,
                            epochs_per_task=2, seed=3).validate()
        paths = []
        for name in ("a", "b"):
            _, report = run_lifelong(stream, cfg)
            json_path, _ = export(report, tmp_path / name)
            paths.append(json_path)
        blob_a, blob_b = (Path(p).read_bytes() for p in paths)
        assert blob_a == blob_b, "same-seed reports differ"
        cfg_other = TrainerConfig(hidden_sizes=(12, 8), sigma=(0.01, 0.01),
                                  delta=(0.1, 0.1), batch_size=32,
                                  epochs_per_task=2, seed=4).validate()
        _, other = run_lifelong(stream, cfg_other)
        json_path, _ = export(other, tmp_path / "c")
        assert Path(json_path).read_bytes() != blob_a
        print(f"ACCEPTANCE 7: PASS {len(blob_a)} bytes byte-identical "
              f"across runs; different seed differs")


class TestCriterion8DataPipeline:
    def test_idx_round_trip_and_noise_statistics(self, tmp_path):
        """Canonical-size IDX files (60000 train / 10000 test) survive a
        save/load round trip exactly, and variation noise measures mean
        0 and std 1 within 0.01. Uses the real corpus when present,
        otherwise synthesized files of the same shape."""
        paths = find_mnist()
        if paths is not None:
            train = load_idx(paths["train_images"], paths["train_labels"])
            test = load_idx(paths["test_images"], paths["test_labels"])
            source = "real corpus"
        else:
            rng = np.random.default_rng(0)
            for split, n in (("train", 60000), ("t10k", 10000)):
                imgs = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
                labels = rng.integers(0, 10, size=n, dtype=np.uint8)
                save_idx(tmp_path / f"{split}-images-idx3-ubyte",
                         tmp_path / f"{split}-labels-idx1-ubyte",
                         imgs, labels)
                if split == "train":
                    expect_imgs, expect_labels = imgs, labels
            train = load_idx(tmp_path / "train-images-idx3-ubyte",
                             tmp_path / "train-labels-idx1-ubyte")
            test = load_idx(tmp_path / "t10k-images-idx3-ubyte",
                            tmp_path / "t10k-labels-idx1-ubyte")
            assert np.array_equal(train.images,
                                  expect_imgs.reshape(60000, 784) / 255.0)
            assert np.array_equal(train.labels, expect_labels)
            source = "synthesized files"
        assert train.images.shape == (60000, 784)
        assert test.images.shape == (10000, 784)
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0

        noisy = make_variation(test, seed=0)
        delta = noisy.images - test.images
        mean, std = float(delta.mean()), float(delta.std())
        assert abs(mean) < 0.01, f"noise mean {mean}"
        assert abs(std - 1.0) < 0.01, f"noise std {std}"
        print(f"ACCEPTANCE 8: PASS {source}: 60000/10000 round trip, "
              f"noise mean {mean:+.5f}, std {std:.5f}")
