"""Unit tests for drift detection, splitting and generation isolation."""

import copy
import re

import numpy as np
import pytest
from test_blockwise import forward_by_block
from test_data import traced_peak

from pss.numerics import (
    DimensionError,
    MaskedLayer,
    NonFiniteError,
    backward_truncated,
    forward,
    he_normal,
    pad_velocity,
    sgd_step,
)
from pss.plasticity import (
    NeuronTag,
    PlasticNetwork,
    drift_thresholds,
    generation_runs,
)


def fresh_net(n_features=3, hidden=(4, 3), seed=0):
    return PlasticNetwork.new(n_features, list(hidden), np.random.default_rng(seed))


def opened(net):
    """Open the network's next task with a snapshot to split against."""
    net.grow_output()
    net.take_snapshot()
    return net


def train_steps(net, x, y, out_index, steps=20, lr=0.05, momentum=0.9):
    vel = pad_velocity(None, net.layers)
    for _ in range(steps):
        trace = net.trace(x)
        grads = backward_truncated(net.layers, trace, y, out_index)
        sgd_step(net.layers, grads, lr, momentum, vel)


class TestDriftThresholds:
    def test_threshold_is_computed_not_accumulated(self):
        assert drift_thresholds(1.0, 0.625, 2, 0) == [1.0, 1.0]
        assert drift_thresholds(1.0, 0.625, 2, 1)[0] == 1.625
        assert drift_thresholds(1.0, 0.625, 2, 2)[1] == 2.25
        assert drift_thresholds(1.0, 0.625, 2, 3)[0] == 1.0 + 3 * 0.625

    def test_per_layer_values(self):
        assert drift_thresholds([0.5, 2.0], [0.25, 0.0], 2, 1) == [0.75, 2.0]

    def test_rejects_bad_shapes_and_signs(self):
        with pytest.raises(DimensionError):
            drift_thresholds([1.0, 2.0, 3.0], 0.1, 2, 0)
        with pytest.raises(DimensionError):
            drift_thresholds(0.3, [[0.1, 0.1]], 2, 0)
        with pytest.raises(ValueError, match="sigma must be non-negative"):
            drift_thresholds(-0.5, 0.1, 2, 0)
        with pytest.raises(ValueError, match="delta must be non-negative"):
            drift_thresholds(0.5, [0.1, -0.1], 2, 0)

    @pytest.mark.parametrize("sigma, delta", [
        (float("nan"), 0.0), (float("inf"), 0.0), (0.3, float("nan")),
        ([0.3, float("-inf")], 0.1)],
        ids=["nan sigma", "inf sigma", "nan delta", "-inf in sigma list"])
    def test_rejects_non_finite(self, sigma, delta):
        """A NaN threshold would never be exceeded, silently disabling splits."""
        with pytest.raises(ValueError, match="must be finite"):
            drift_thresholds(sigma, delta, 2, 0)


class TestGenerationRuns:
    def test_basic_runs(self):
        assert generation_runs([]) == []
        assert generation_runs([0, 0, 0]) == [(0, 3)]
        assert generation_runs([0, 0, 1, 1, 3]) == [(0, 2), (2, 4), (4, 5)]

    def test_old_runs_keep_boundaries_as_tags_append(self):
        tags = [0, 0, 1]
        before = generation_runs(tags)
        after = generation_runs(tags + [2, 2])
        assert after[:len(before) - 1] == before[:-1]
        assert after[-1] == (3, 5)


class TestSemanticDrift:
    def test_exact_values_from_exact_perturbations(self):
        net = opened(fresh_net())
        l0 = net.hidden_layers[0]
        l0.weights[1, 0] += 1.5   # drift 2.25, exactly representable
        l0.weights[2, 1] += 0.5   # drift 0.25
        l0.bias[2] += 0.5         # plus 0.25 -> 0.5 total
        d = net.semantic_drift(0)
        assert d[0] == 0.0
        assert d[1] == 2.25
        assert d[2] == 0.5
        assert np.all(net.semantic_drift(1) == 0.0)

    def test_requires_snapshot(self):
        net = fresh_net()
        with pytest.raises(ValueError):
            net.semantic_drift(0)

    def drifted_default_net(self):
        """The default-size trunk grown to [437, 262] and opened at task 1,
        every hidden weight 1e-3 past its snapshot."""
        net = PlasticNetwork.new(784, [437, 262], np.random.default_rng(0))
        net.grow_output()
        net.grow_output()
        net.take_snapshot()
        for layer in net.hidden_layers:
            layer.weights += 1e-3
        return net

    def test_holds_one_snapshot_sized_temporary(self):
        """The difference is squared where it lies: the peak is the layer's
        weight bytes plus the drift vector, not twice the weights."""
        net = self.drifted_default_net()
        net.semantic_drift(0)  # numpy's lazy imports
        drift, peak = traced_peak(net.semantic_drift, 0)
        layer = net.hidden_layers[0]
        assert peak <= layer.weights.nbytes + drift.nbytes + 64 * 1024

    def test_leaves_weights_and_snapshot_as_they_were(self):
        net = self.drifted_default_net()
        before = [a.tobytes() for a in (*net.snapshot.weights, *net.snapshot.biases)]
        weights = [l.weights.tobytes() for l in net.hidden_layers]
        for l in range(net.n_hidden_layers):
            assert np.all(net.semantic_drift(l) > 0.0)
        assert [a.tobytes() for a in (*net.snapshot.weights, *net.snapshot.biases)] == before
        assert [l.weights.tobytes() for l in net.hidden_layers] == weights

    def test_new_neurons_report_zero(self):
        net = opened(fresh_net())
        opened(net)
        net.hidden_layers[0].weights[0, 0] += 2.0
        net.split_neurons(0, [0])
        d = net.semantic_drift(0)
        assert d[0] == 0.0          # reverted
        assert d[-1] == 0.0         # the copy is not in the snapshot
        # drift of the copy stays zero even if its weights move
        net.hidden_layers[0].weights[-1, 1] += 5.0
        assert net.semantic_drift(0)[-1] == 0.0


class TestSplitNeuron:
    def setup_net(self):
        net = opened(fresh_net())
        opened(net)
        return net

    def test_revert_restores_snapshot_bits(self):
        net = self.setup_net()
        snap_row = net.snapshot.weights[0][1].copy()
        snap_bias = net.snapshot.biases[0][1]
        net.hidden_layers[0].weights[1] += 0.7
        net.hidden_layers[0].bias[1] -= 0.3
        drifted = net.hidden_layers[0].weights[1].copy()
        [old_tag], [new_tag] = net.split_neurons(0, [1])
        l0 = net.hidden_layers[0]
        assert l0.weights[1].tobytes() == snap_row.tobytes()
        assert l0.bias[1] == snap_bias
        assert l0.weights[new_tag.index, :3].tobytes() == drifted.tobytes()
        assert old_tag.generation == 0 and new_tag.generation == 1
        assert net.hidden_gens[0] == [0, 0, 0, 0, 1]

    def test_reverted_init_copies_snapshot_instead(self):
        """The copy is the reverted original, in a layer whose fan-in is
        the snapshot's and in one that grew since: a layer-1 split after
        layer 0 split, where the columns past the snapshot's are 0."""
        net = self.setup_net()
        net.hidden_layers[0].weights[0] += 1.0
        _, [new_tag] = net.split_neurons(0, [0], split_init="reverted")
        l0 = net.hidden_layers[0]
        assert l0.weights[new_tag.index].tobytes() == l0.weights[0].tobytes()
        assert l0.bias[new_tag.index] == l0.bias[0] == net.snapshot.biases[0][0]
        l1, k0 = net.hidden_layers[1], net.snapshot.weights[1].shape[1]
        l1.weights[2] += 1.0
        l1.bias[2] += 1.0
        _, [new_tag] = net.split_neurons(1, [2], split_init="reverted")
        assert l1.fan_in == k0 + 1
        assert l1.weights[new_tag.index].tobytes() == l1.weights[2].tobytes()
        assert l1.weights[new_tag.index, :k0].tobytes() == net.snapshot.weights[1][2].tobytes()
        assert np.all(l1.weights[new_tag.index, k0:] == 0.0)
        assert l1.bias[new_tag.index] == l1.bias[2] == net.snapshot.biases[1][2]

    def test_downstream_column_masking(self):
        net = self.setup_net()
        net.hidden_layers[0].weights[2] += 1.0
        _, [new_tag] = net.split_neurons(0, [2])
        l1 = net.hidden_layers[1]
        col = new_tag.index
        # every neuron in the next layer is still generation 0: masked out
        assert np.all(l1.conn_mask[:, col] == 0.0)
        assert np.all(l1.weights[:, col] == 0.0)
        assert np.all(l1.train_mask[:, col] == 0.0)

    def test_last_layer_split_protects_old_outputs(self):
        net = self.setup_net()
        net.hidden_layers[1].weights[0] += 1.0
        _, [new_tag] = net.split_neurons(1, [0])
        out = net.output_layer
        col = new_tag.index
        assert out.conn_mask[0, col] == 0.0           # task 0 does not see gen 1
        assert out.weights[0, col] == 0.0             # task 0 logit untouched
        assert out.conn_mask[1, col] == 1.0
        assert out.weights[1, col] != 0.0             # current task gets a live edge
        assert out.train_mask[1, col] == 1.0
        assert out.train_mask[0, col] == 0.0          # under full_truncated too
        row0 = out.weights[0].copy()
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 3))
        train_steps(net, x, rng.integers(0, 2, size=6).astype(float), 1, steps=1)
        assert out.weights[0].tobytes() == row0.tobytes()
        net.set_structural_freeze("pss_only")
        assert out.train_mask[0, col] == 0.0

    def test_same_generation_downstream_edge_is_live(self):
        net = self.setup_net()
        net.hidden_layers[1].weights[1] += 1.0
        net.split_neurons(1, [1])                      # layer 1 gets a gen-1 neuron
        net.hidden_layers[0].weights[0] += 1.0
        _, [new_tag] = net.split_neurons(0, [0])
        l1 = net.hidden_layers[1]
        col = new_tag.index
        gen1_rows = [i for i, g in enumerate(net.hidden_gens[1]) if g == 1]
        gen0_rows = [i for i, g in enumerate(net.hidden_gens[1]) if g == 0]
        assert np.all(l1.conn_mask[gen1_rows, col] == 1.0)
        assert np.all(l1.conn_mask[gen0_rows, col] == 0.0)

    def test_new_column_matches_scalar_draws(self):
        net = self.setup_net()
        for i in range(3):                             # layer 1: 3 gen-0, 3 gen-1 rows
            net.hidden_layers[1].weights[i] += 1.0
            net.split_neurons(1, [i])
        ref = copy.deepcopy(net.rng)
        std = np.sqrt(2.0 / (net.hidden_layers[1].fan_in + 1))
        net.hidden_layers[0].weights[0] += 1.0
        _, [new_tag] = net.split_neurons(0, [0])
        expected = [0.0] * 3 + [ref.normal(0.0, std) for _ in range(3)]
        col = net.hidden_layers[1].weights[:, new_tag.index]
        assert col.tobytes() == np.array(expected).tobytes()
        assert net.rng.bit_generator.state == ref.bit_generator.state

    def test_split_preconditions(self):
        net = self.setup_net()
        net.hidden_layers[0].weights[0] += 1.0
        net.split_neurons(0, [0])
        with pytest.raises(ValueError):
            net.split_neurons(0, [0])                  # once per task
        with pytest.raises(ValueError):
            net.split_neurons(0, [99])
        with pytest.raises(ValueError):
            fresh_net().split_neurons(0, [0])          # no snapshot yet
        with pytest.raises(ValueError):
            net.split_neurons(0, [1], split_init="clone")

    def test_copy_is_eligible_again_next_task(self):
        net = self.setup_net()
        net.hidden_layers[0].weights[0] += 1.0
        net.split_neurons(0, [0])
        opened(net)
        net.hidden_layers[0].weights[0] += 1.0
        [old_tag], [new_tag] = net.split_neurons(0, [0])
        assert new_tag.generation == 2


class TestSupportPath:
    def test_fillers_complete_the_path(self):
        net = opened(fresh_net(hidden=(4, 3, 3)))
        opened(net)
        net.hidden_layers[0].weights[0] += 1.0
        net.split_neurons(0, [0])
        added = net.ensure_support_path()
        assert [t.layer for t in added] == [1, 2]
        assert all(t.generation == 1 for t in added)
        for l in range(3):
            assert 1 in net.hidden_gens[l]
        assert net.ensure_support_path() == []
        assert net.check_masks() == []

    def test_filler_feeds_current_output_only(self):
        net = opened(fresh_net())
        opened(net)
        added = net.ensure_support_path()  # no split yet, still adds per layer
        tag = [t for t in added if t.layer == 1][0]
        out = net.output_layer
        assert out.weights[0, tag.index] == 0.0
        assert out.weights[1, tag.index] != 0.0


class TestSplittingRound:
    def prepared(self):
        net = opened(fresh_net())
        opened(net)
        return net

    def test_strict_threshold_no_split_at_equality(self):
        net = self.prepared()
        net.hidden_layers[0].weights[0, 0] += 1.0    # drift exactly 1.0
        net.hidden_layers[0].weights[1, 0] += 1.5    # drift 2.25
        report = net.splitting_round(epoch=0, sigma=1.0, delta=0.625)
        assert [t.index for t in report.splits] == [1]
        assert report.drifts == [2.25]
        assert report.thresholds == [1.0, 1.0]

    def test_escalation_raises_the_bar(self):
        net = self.prepared()
        net.hidden_layers[0].weights[0, 0] += 1.5    # drift 2.25: equality, keep
        net.hidden_layers[0].weights[1, 0] += 2.0    # drift 4.0: split
        report = net.splitting_round(epoch=2, sigma=1.0, delta=0.625)
        assert [t.index for t in report.splits] == [1]
        assert report.epoch == 2
        assert report.thresholds == [2.25, 2.25]     # 1.0 + 2 * 0.625

    def test_quiet_round_adds_nothing(self):
        net = self.prepared()
        sizes = net.hidden_sizes()
        report = net.splitting_round(epoch=0, sigma=1.0, delta=0.625)
        assert report.total_splits == 0 and report.total_fillers == 0
        assert net.hidden_sizes() == sizes

    def test_fillers_only_where_no_split_happened(self):
        net = self.prepared()
        net.hidden_layers[0].weights[0, 0] += 1.0    # only layer 0 drifts
        report = net.splitting_round(epoch=0, sigma=0.5, delta=0.625)
        assert [t.index for t in report.splits] == [0]
        assert [t.layer for t in report.fillers] == [1]
        assert net.check_masks() == []

    def test_each_neuron_splits_at_most_once_per_task(self):
        net = self.prepared()
        net.hidden_layers[0].weights[0, 0] += 1.5
        net.splitting_round(epoch=0, sigma=0.5, delta=0.625)
        # the reverted original drifts again within the same task
        net.hidden_layers[0].weights[0, 0] += 1.5
        report = net.splitting_round(epoch=0, sigma=0.5, delta=0.625)
        assert report.total_splits == 0

    def test_requires_snapshot(self):
        """A network with no task open has no snapshot to measure drift
        against."""
        with pytest.raises(ValueError, match="no snapshot"):
            fresh_net().splitting_round(epoch=0, sigma=1.0, delta=0.0)


def per_neuron_round(net, epoch, sigma, delta, split_init):
    """A splitting round as one neuron at a time, on copies of the
    network's arrays: per split, revert the original, append its copy
    with one ``vstack`` row and draw one next-layer column at
    ``sqrt(2 / (fan_in + 1))``; then He fillers. Returns the weights,
    biases, hidden tags, report lists and generator the round must give."""
    task, rng = net.task, copy.deepcopy(net.rng)
    thresholds = drift_thresholds(sigma, delta, net.n_hidden_layers, epoch)
    drifts = [net.semantic_drift(l) for l in range(net.n_hidden_layers)]
    weights = [l.weights.copy() for l in net.layers]
    biases = [l.bias.copy() for l in net.layers]
    gens = [list(g) for g in net.hidden_gens] + [net.output_gens]
    splits, copies, values, fillers = [], [], [], []

    def append(l, row, bias):
        weights[l] = np.vstack([weights[l], row[None, :]])
        biases[l] = np.concatenate([biases[l], [bias]])
        gens[l].append(task)
        live = np.asarray(gens[l + 1]) >= task
        col = np.zeros((weights[l + 1].shape[0], 1))
        std = np.sqrt(2.0 / (weights[l + 1].shape[1] + 1))
        col[live, 0] = rng.normal(0.0, std, size=int(live.sum()))
        weights[l + 1] = np.hstack([weights[l + 1], col])
        return NeuronTag(l, len(gens[l]) - 1, task)

    for l in range(net.n_hidden_layers):
        snap_w, snap_b = net.snapshot.weights[l], net.snapshot.biases[l]
        k0 = snap_w.shape[1]
        for i in range(snap_w.shape[0]):
            if i in net._split_done[l] or not drifts[l][i] > thresholds[l]:
                continue
            if split_init == "drifted":
                row, bias = weights[l][i].copy(), float(biases[l][i])
            else:
                row, bias = np.zeros(weights[l].shape[1]), float(snap_b[i])
                row[:k0] = snap_w[i]
            weights[l][i, :k0], weights[l][i, k0:], biases[l][i] = snap_w[i], 0.0, snap_b[i]
            splits.append(NeuronTag(l, i, gens[l][i]))
            copies.append(append(l, row, bias))
            values.append(float(drifts[l][i]))
    for l in range(net.n_hidden_layers if splits else 0):
        if task not in gens[l]:
            fillers.append(append(l, he_normal(1, weights[l].shape[1], rng)[0], 0.0))
    return weights, biases, gens[:-1], (splits, copies, fillers, values), rng


def drift_rows(net, layers, rng):
    """Move every present incoming weight of the snapshot rows of
    ``layers`` by a row-scaled normal step, so some rows drift far and
    some hardly at all."""
    for l in layers:
        layer, m0 = net.hidden_layers[l], net.snapshot.weights[l].shape[0]
        for r0, r1, c1 in layer.runs:
            for i in range(r0, min(r1, m0)):
                layer.weights[i, :c1] += rng.uniform(0.0, 1.0) * rng.standard_normal(c1)
        layer.bias[:m0] += 0.1 * rng.standard_normal(m0)


def structure(net):
    return ([(l.weights.tobytes(), l.weights.shape, l.bias.tobytes()) for l in net.layers],
            copy.deepcopy(net.hidden_gens), copy.deepcopy(net._split_done),
            net.rng.bit_generator.state)


class TestOneEditPerLayer:
    """A round splits each layer's neurons in one edit and gives the same
    bits as appending them one neuron at a time."""

    @pytest.mark.parametrize("split_init", ["drifted", "reverted"])
    @pytest.mark.parametrize("drifting", [(0, 1), (0,)], ids=["both layers", "layer 0"])
    def test_round_matches_per_neuron_reference(self, split_init, drifting):
        net = opened(fresh_net(n_features=5, hidden=(9, 7), seed=3))
        rng = np.random.default_rng(11)
        for task in (1, 2):
            opened(net)
            for epoch in range(2):  # the second round finds split rows and live units
                drift_rows(net, drifting, rng)
                weights, biases, gens, lists, ref_rng = per_neuron_round(
                    net, epoch, 1.0, 0.5, split_init)
                report = net.splitting_round(epoch, 1.0, 0.5, split_init)
                assert (report.splits, report.new_neurons, report.fillers,
                        report.drifts) == lists
                assert net.hidden_gens == gens
                for layer, w, b in zip(net.layers, weights, biases):
                    assert layer.weights.shape == w.shape
                    assert layer.weights.tobytes() == w.tobytes()
                    assert layer.bias.tobytes() == b.tobytes()
                assert net.rng.bit_generator.state == ref_rng.bit_generator.state
                assert net.check_masks() == []
                split_layers = {t.layer for t in report.splits}
                if epoch == 0:
                    assert split_layers == set(drifting)
                    assert [t.layer for t in report.fillers] == [1] * (drifting == (0,))
                    assert all(0 < sum(t.layer == l for t in report.splits)
                               < net.snapshot.weights[l].shape[0] for l in drifting)

    def test_a_round_derives_the_structure_once_per_layer(self, monkeypatch):
        net = opened(fresh_net(hidden=(5, 4, 3)))
        opened(net)
        for layer in net.hidden_layers:
            layer.weights += 1.0
        calls = []
        derive = PlasticNetwork.set_structural_freeze

        def spy(self, scope):
            calls.append(scope)
            return derive(self, scope)

        monkeypatch.setattr(PlasticNetwork, "set_structural_freeze", spy)
        report = net.splitting_round(epoch=0, sigma=0.5, delta=0.0)
        assert [sum(t.layer == l for t in report.splits) for l in range(3)] == [5, 4, 3]
        assert len(calls) <= net.n_hidden_layers
        assert net.check_masks() == []

    @pytest.mark.parametrize("indices, reason", [
        ([1, 2, 2], "repeated"), ([1, 99], "not in the snapshot"),
        ([1, 0], "already split"), ([1, 4], "not in the snapshot")],
        ids=["repeated", "out of range", "split this task", "a copy"])
    def test_a_refused_batch_changes_nothing(self, indices, reason):
        net = opened(fresh_net())
        opened(net)
        net.hidden_layers[0].weights += 1.0
        net.split_neurons(0, [0])                      # row 4 is its copy
        before = structure(net)
        with pytest.raises(ValueError, match=reason):
            net.split_neurons(0, indices)
        assert structure(net) == before


class TestGrowOutput:
    def test_sequential_tasks_only(self):
        net = fresh_net()
        net.grow_output()
        net.grow_output()
        assert net.output_gens == [0, 1]
        assert net.task == 1

    def test_old_output_rows_keep_their_bits(self):
        net = fresh_net()
        net.grow_output()
        row0 = net.output_layer.weights[0].copy()
        net.grow_output()
        assert net.output_layer.weights[0].tobytes() == row0.tobytes()
        assert net.output_layer.bias[0] == 0.0
        assert net.n_outputs == 2

    def test_opening_a_task_drops_the_last_tasks_snapshot(self):
        """A snapshot belongs to the task it was taken in: the next task
        opens without one, and ``take_snapshot`` starts its record of
        splits afresh."""
        net = opened(opened(fresh_net()))
        net.hidden_layers[0].weights[0] += 1.0
        net.split_neurons(0, [0])
        net.grow_output()
        assert net.snapshot is None
        net.take_snapshot()
        assert net._split_done == [set(), set()]

    def test_predict_shape_tracks_outputs(self):
        net = fresh_net()
        x = np.random.default_rng(1).standard_normal((5, 3))
        assert net.predict(x).shape == (5, 0)
        net.grow_output()
        assert net.predict(x).shape == (5, 1)


class TestFreezeScopes:
    def test_pss_only_trains_current_generation_only(self):
        net = opened(fresh_net())
        opened(net)
        net.hidden_layers[0].weights[0] += 1.0
        net.split_neurons(0, [0])
        net.ensure_support_path()
        net.set_structural_freeze("pss_only")
        l0, l1 = net.hidden_layers
        # a bias trains iff its row is from train_from on (no frozen set)
        for l, gens in ((l0, net.hidden_gens[0]), (l1, net.hidden_gens[1])):
            assert l.frozen is None
            for i, g in enumerate(gens):
                if g == 1:
                    assert np.array_equal(l.train_mask[i], l.conn_mask[i])
                    assert i >= l.train_from
                else:
                    assert np.all(l.train_mask[i] == 0.0)
                    assert i < l.train_from
        out = net.output_layer
        assert out.frozen is None and out.train_from == 1
        assert np.all(out.train_mask[0] == 0.0)
        assert np.all(out.train_mask[1] == 1.0)

    def test_full_truncated_trains_everything_present(self):
        net = opened(fresh_net())
        net.set_structural_freeze("pss_only")
        net.set_structural_freeze("full_truncated")
        for layer in net.layers:
            assert np.array_equal(layer.train_mask, layer.conn_mask)
            assert layer.train_from == 0 and layer.frozen is None  # every bias trains

    def test_unknown_scope_rejected(self):
        net = fresh_net()
        with pytest.raises(ValueError):
            net.set_structural_freeze("everything")

    def test_magnitude_freeze_survives_scope_rebuild(self):
        net = opened(fresh_net())
        l0, l1 = net.hidden_layers
        l0.weights[0, 0] = 0.001
        l0.weights[1, 1] = 5.0
        count = net.freeze_small_weights(0.01)
        assert count >= 1
        assert l0.train_mask[0, 0] == 0.0
        assert l0.train_mask[1, 1] == 1.0
        _, [tag] = net.split_neurons(0, [2])   # a row of layer 0, a column of layer 1
        net.set_structural_freeze("full_truncated")
        assert l0.train_mask[0, 0] == 0.0      # still frozen after growth and rebuild
        assert l0.train_mask[1, 1] == 1.0
        assert np.all(l0.train_mask[tag.index] == 1.0)      # grown weights train
        assert np.all(l1.train_mask[:, tag.index] == 1.0)
        assert net.check_masks() == []
        net.grow_output()
        assert all(l.frozen is None for l in net.layers)    # a new task starts unfrozen

    def test_zero_threshold_freezes_nothing(self):
        net = opened(fresh_net())
        before = [l.train_mask.copy() for l in net.layers]
        assert net.freeze_small_weights(0.0) == 0
        for b, l in zip(before, net.layers):
            assert np.array_equal(b, l.train_mask)


class TestDerivedStructure:
    """Masks and runs are a pure function of weights, tags, task and scope."""

    @staticmethod
    def split_net(scope):
        net = opened(fresh_net(hidden=(5, 4, 3)))
        for task in (1, 2):
            opened(net)
            net.hidden_layers[0].weights[task] += 1.0
            net.hidden_layers[2].weights[0] += 1.0
            assert net.splitting_round(epoch=0, sigma=0.5, delta=0.0).total_splits == 2
        net.set_structural_freeze(scope)
        return net

    @pytest.mark.parametrize("scope", ["full_truncated", "pss_only"])
    def test_rebuild_from_tags_reproduces_masks_and_blocks(self, scope):
        net = self.split_net(scope)
        rebuilt = PlasticNetwork(
            [MaskedLayer(l.weights.copy(), l.bias.copy(), activation=l.activation)
             for l in net.layers],
            net.hidden_gens, task=net.task, freeze_scope=scope)
        assert any((l.conn_mask == 0.0).any() for l in net.layers)
        for a, b in zip(net.layers, rebuilt.layers):
            for name in ("conn_mask", "train_mask"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            assert a.train_from == b.train_from           # which biases train
            assert a.frozen is None and b.frozen is None
        assert [l.runs for l in rebuilt.layers] == [l.runs for l in net.layers]
        assert rebuilt.check_masks() == []

    @pytest.mark.parametrize("scope", ["full_truncated", "pss_only"])
    def test_predict_matches_dense_reference(self, scope):
        net = self.split_net(scope)
        assert net.output_layer.conn_mask[0].sum() < net.output_layer.fan_in
        x = np.random.default_rng(11).standard_normal((8, net.n_features))
        ref = x
        for layer in net.layers:
            z = ref @ layer.weights.T + layer.bias
            ref = z if layer is net.output_layer else \
                np.where(z > 0, z, layer.activation.slope * z)
        np.testing.assert_allclose(net.predict(x), ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("scope", ["full_truncated", "pss_only"])
    @pytest.mark.parametrize("n", [1, 8, 300])
    def test_predict_is_forward_output_bitwise(self, scope, n):
        net = self.split_net(scope)
        x = np.random.default_rng(n).standard_normal((n, net.n_features))
        assert net.predict(x).tobytes() == forward(net.layers, x).output.tobytes()

    @pytest.mark.parametrize("bad, error", [
        (np.array([[np.nan, 0.0, 1.0]]), NonFiniteError),
        (np.zeros(3), DimensionError),
        (np.zeros((2, 4)), DimensionError)])
    def test_predict_rejects_what_forward_rejects(self, bad, error):
        net = self.split_net("pss_only")
        with pytest.raises(error) as want:
            forward(net.layers, bad)
        with pytest.raises(error, match=re.escape(str(want.value))):
            net.predict(bad)

    def test_predict_rejects_a_non_finite_pre_activation(self):
        net = self.split_net("pss_only")
        net.layers[1].bias[0] = np.inf
        with pytest.raises(NonFiniteError, match="layer 1"):
            net.predict(np.zeros((2, 3)))

    def test_predict_holds_no_pre_activation(self):
        """Peak memory is about the post-activations, not ``forward``'s
        pre- and post-activations of every layer."""
        net = PlasticNetwork.new(20, [300, 200], np.random.default_rng(1))
        for _ in range(3):
            net.grow_output()
        x = np.random.default_rng(2).standard_normal((2000, 20))
        net.predict(x[:5])  # lazy imports
        logits, peak = traced_peak(net.predict, x)
        assert peak <= 1.1 * 8 * len(x) * sum(l.fan_out for l in net.layers)
        assert logits.tobytes() == forward_by_block(net.layers, x)[-1].tobytes()
        np.testing.assert_allclose(logits, forward(net.layers, x).output,
                                   rtol=1e-12, atol=0)

    def test_one_run_per_generation_sees_its_prefix(self):
        net = self.split_net("pss_only")
        assert net.layers[0].runs == [(0, 5, 3), (5, 6, 3), (6, 7, 3)]
        assert net.layers[1].runs == [(0, 4, 5), (4, 5, 6), (5, 6, 7)]
        assert net.layers[-1].runs == [(0, 1, 3), (1, 2, 4), (2, 3, 5)]


class TestCheckMasks:
    def test_clean_network_has_no_violations(self):
        net = opened(fresh_net(hidden=(5, 4, 3)))
        assert net.check_masks() == []

    def test_detects_weight_at_masked_position(self):
        net = opened(fresh_net())
        opened(net)
        net.hidden_layers[0].weights[0] += 1.0
        _, [tag] = net.split_neurons(0, [0])
        net.hidden_layers[1].weights[0, tag.index] = 0.5   # masked edge
        assert net.check_masks() == [
            "layer 1: nonzero weight at a structurally masked position"]

    def test_frozen_set_opens_no_edge(self):
        net = opened(fresh_net())
        opened(net)
        net.hidden_layers[0].weights[0] += 1.0
        _, [tag] = net.split_neurons(0, [0])
        l1 = net.hidden_layers[1]
        assert l1.train_mask[0, tag.index] == 0.0           # no edge, so no training
        l1.frozen = np.zeros(l1.weights.shape, dtype=bool)  # nothing frozen
        assert l1.train_mask[0, tag.index] == 0.0           # still no edge
        assert net.check_masks() == []
        l1.frozen = l1.conn_mask                            # 0/1 floats, not a bool set
        assert net.check_masks() == ["layer 1: frozen set must be a 2-D bool array"]

    def test_detects_fan_in_mismatch(self):
        net = opened(fresh_net())
        l1 = net.hidden_layers[1]
        l1.weights = l1.weights[:, :-1].copy()
        l1.runs = [(0, 3, 3)]
        assert net.check_masks() == ["layer 1: fan-in 3 for 4 units below"]

    def test_detects_hidden_tag_newer_than_task(self):
        net = opened(fresh_net())
        net.hidden_gens[1][-1] = 1
        assert net.check_masks() == ["hidden tags not all in 0..0"]

    def test_detects_disordered_generations(self):
        net = opened(fresh_net())
        net.hidden_gens[0][0] = 7
        assert any("non-decreasing" in p for p in net.check_masks())

    def test_detects_severed_output_edge(self):
        net = opened(fresh_net())
        out = net.output_layer
        assert out.weights[0, -1] != 0.0
        out.runs = [(0, 1, out.fan_in - 1)]                 # live edge severed
        assert net.check_masks() == [
            "output layer: nonzero weight at a structurally masked position"]
        out.runs = []                                       # row left uncovered
        assert any(p.startswith("output layer: runs") for p in net.check_masks())


class TestBitExactness:
    """Frozen generations produce bit-identical logits forever."""

    def test_old_logits_survive_isolated_training(self):
        rng = np.random.default_rng(7)
        net = PlasticNetwork.new(3, [5, 4], np.random.default_rng(0))
        probe = rng.standard_normal((17, 3))

        # task 0: ordinary full training
        opened(net)
        net.set_structural_freeze("full_truncated")
        x0 = rng.standard_normal((40, 3))
        y0 = rng.integers(0, 2, size=40).astype(float)
        train_steps(net, x0, y0, 0, steps=30)

        # task 1: full training, then split everything that drifted
        opened(net)
        net.set_structural_freeze("full_truncated")
        x1 = rng.standard_normal((40, 3)) + 1.0
        y1 = rng.integers(0, 2, size=40).astype(float)
        train_steps(net, x1, y1, 1, steps=30)
        report = net.splitting_round(epoch=0, sigma=1e-8, delta=0.0)
        assert report.total_splits > 0
        net.set_structural_freeze("pss_only")
        train_steps(net, x1, y1, 1, steps=30)
        assert net.check_masks() == []

        frozen = net.predict(probe)[:, :2].copy()

        # task 2: old generations are frozen; only new structure moves
        opened(net)
        net.set_structural_freeze("pss_only")
        x2 = rng.standard_normal((40, 3)) - 1.0
        y2 = rng.integers(0, 2, size=40).astype(float)
        train_steps(net, x2, y2, 2, steps=40)
        assert net.splitting_round(epoch=0, sigma=1e-8, delta=0.0).total_splits == 0
        assert net.check_masks() == []

        after = net.predict(probe)[:, :2]
        assert np.ascontiguousarray(after).tobytes() == \
            np.ascontiguousarray(frozen).tobytes()

    def test_growth_alone_never_changes_old_logits(self):
        rng = np.random.default_rng(3)
        net = PlasticNetwork.new(4, [6, 5], np.random.default_rng(1))
        probe = rng.standard_normal((9, 4))
        opened(net)
        before = net.predict(probe).copy()
        opened(net)
        net.split_neurons(0, [1])                 # forced, drift not required
        net.ensure_support_path()
        opened(net)
        after = net.predict(probe)[:, :1]
        assert np.ascontiguousarray(after).tobytes() == before.tobytes()


class TestParameterCount:
    def test_counts_only_present_edges(self):
        net = PlasticNetwork.new(2, [2], np.random.default_rng(0))
        net.grow_output()
        # 2*2 weights + 2 biases, output 1x2 + 1 bias
        assert net.parameter_count() == 4 + 2 + 2 + 1
        net.grow_output()
        assert net.parameter_count() == 4 + 2 + 4 + 2

    @pytest.mark.parametrize("scope", ["full_truncated", "pss_only"])
    def test_split_network_counts_its_edges(self, scope):
        net = TestDerivedStructure.split_net(scope)
        assert any((l.conn_mask == 0.0).any() for l in net.layers)
        assert net.parameter_count() == sum(int(l.conn_mask.sum()) + l.fan_out
                                            for l in net.layers)
