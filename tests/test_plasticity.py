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
    sgd_step,
)
from pss.plasticity import (
    PlasticNetwork,
    drift_thresholds,
    generation_runs,
)


def fresh_net(n_features=3, hidden=(4, 3), seed=0):
    return PlasticNetwork.new(n_features, list(hidden), np.random.default_rng(seed))


def open_task(net, task):
    net.grow_output(task)
    return net


def train_steps(net, x, y, out_index, steps=20, lr=0.05, momentum=0.9):
    vel = None
    for _ in range(steps):
        trace = net.trace(x)
        grads = backward_truncated(net.layers, trace, y, [out_index])
        vel = sgd_step(net.layers, grads, lr, momentum, vel)
    return vel


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
        net = open_task(fresh_net(), 0)
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

    def test_new_neurons_report_zero(self):
        net = open_task(fresh_net(), 0)
        net.grow_output(1)
        net.hidden_layers[0].weights[0, 0] += 2.0
        net.split_neuron(0, 0)
        d = net.semantic_drift(0)
        assert d[0] == 0.0          # reverted
        assert d[-1] == 0.0         # the copy is not in the snapshot
        # drift of the copy stays zero even if its weights move
        net.hidden_layers[0].weights[-1, 1] += 5.0
        assert net.semantic_drift(0)[-1] == 0.0


class TestSplitNeuron:
    def setup_net(self):
        net = open_task(fresh_net(), 0)
        net.grow_output(1)
        return net

    def test_revert_restores_snapshot_bits(self):
        net = self.setup_net()
        snap_row = net.snapshot.weights[0][1].copy()
        snap_bias = net.snapshot.biases[0][1]
        net.hidden_layers[0].weights[1] += 0.7
        net.hidden_layers[0].bias[1] -= 0.3
        drifted = net.hidden_layers[0].weights[1].copy()
        old_tag, new_tag = net.split_neuron(0, 1)
        l0 = net.hidden_layers[0]
        assert l0.weights[1].tobytes() == snap_row.tobytes()
        assert l0.bias[1] == snap_bias
        assert l0.weights[new_tag.index, :3].tobytes() == drifted.tobytes()
        assert old_tag.generation == 0 and new_tag.generation == 1
        assert net.hidden_gens[0] == [0, 0, 0, 0, 1]

    def test_reverted_init_copies_snapshot_instead(self):
        net = self.setup_net()
        net.hidden_layers[0].weights[0] += 1.0
        _, new_tag = net.split_neuron(0, 0, split_init="reverted")
        l0 = net.hidden_layers[0]
        assert l0.weights[new_tag.index].tobytes() == l0.weights[0].tobytes()

    def test_downstream_column_masking(self):
        net = self.setup_net()
        net.hidden_layers[0].weights[2] += 1.0
        _, new_tag = net.split_neuron(0, 2)
        l1 = net.hidden_layers[1]
        col = new_tag.index
        # every neuron in the next layer is still generation 0: masked out
        assert np.all(l1.conn_mask[:, col] == 0.0)
        assert np.all(l1.weights[:, col] == 0.0)
        assert np.all(l1.train_mask[:, col] == 0.0)

    def test_last_layer_split_protects_old_outputs(self):
        net = self.setup_net()
        net.hidden_layers[1].weights[0] += 1.0
        _, new_tag = net.split_neuron(1, 0)
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
        net.split_neuron(1, 1)                         # layer 1 gets a gen-1 neuron
        net.hidden_layers[0].weights[0] += 1.0
        _, new_tag = net.split_neuron(0, 0)
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
            net.split_neuron(1, i)
        ref = copy.deepcopy(net.rng)
        std = np.sqrt(2.0 / (net.hidden_layers[1].fan_in + 1))
        net.hidden_layers[0].weights[0] += 1.0
        _, new_tag = net.split_neuron(0, 0)
        expected = [0.0] * 3 + [ref.normal(0.0, std) for _ in range(3)]
        col = net.hidden_layers[1].weights[:, new_tag.index]
        assert col.tobytes() == np.array(expected).tobytes()
        assert net.rng.bit_generator.state == ref.bit_generator.state

    def test_split_preconditions(self):
        net = self.setup_net()
        net.hidden_layers[0].weights[0] += 1.0
        net.split_neuron(0, 0)
        with pytest.raises(ValueError):
            net.split_neuron(0, 0)                     # once per task
        with pytest.raises(ValueError):
            net.split_neuron(0, 99)
        with pytest.raises(ValueError):
            fresh_net().split_neuron(0, 0)             # no snapshot yet
        with pytest.raises(ValueError):
            net.split_neuron(0, 1, split_init="clone")

    def test_copy_is_eligible_again_next_task(self):
        net = self.setup_net()
        net.hidden_layers[0].weights[0] += 1.0
        net.split_neuron(0, 0)
        net.grow_output(2)
        net.hidden_layers[0].weights[0] += 1.0
        old_tag, new_tag = net.split_neuron(0, 0)
        assert new_tag.generation == 2


class TestSupportPath:
    def test_fillers_complete_the_path(self):
        net = open_task(fresh_net(hidden=(4, 3, 3)), 0)
        net.grow_output(1)
        net.hidden_layers[0].weights[0] += 1.0
        net.split_neuron(0, 0)
        added = net.ensure_support_path()
        assert [t.layer for t in added] == [1, 2]
        assert all(t.generation == 1 for t in added)
        for l in range(3):
            assert 1 in net.hidden_gens[l]
        assert net.ensure_support_path() == []
        assert net.check_masks() == []

    def test_filler_feeds_current_output_only(self):
        net = open_task(fresh_net(), 0)
        net.grow_output(1)
        added = net.ensure_support_path()  # no split yet, still adds per layer
        tag = [t for t in added if t.layer == 1][0]
        out = net.output_layer
        assert out.weights[0, tag.index] == 0.0
        assert out.weights[1, tag.index] != 0.0


class TestSplittingRound:
    def prepared(self):
        net = open_task(fresh_net(), 0)
        net.grow_output(1)
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


class TestGrowOutput:
    def test_sequential_tasks_only(self):
        net = fresh_net()
        net.grow_output(0)
        with pytest.raises(ValueError):
            net.grow_output(2)
        net.grow_output(1)
        assert net.output_gens == [0, 1]
        assert net.task == 1

    def test_old_output_rows_keep_their_bits(self):
        net = fresh_net()
        net.grow_output(0)
        row0 = net.output_layer.weights[0].copy()
        net.grow_output(1)
        assert net.output_layer.weights[0].tobytes() == row0.tobytes()
        assert net.output_layer.bias[0] == 0.0
        assert net.n_outputs == 2

    def test_predict_shape_tracks_outputs(self):
        net = fresh_net()
        x = np.random.default_rng(1).standard_normal((5, 3))
        assert net.predict(x).shape == (5, 0)
        net.grow_output(0)
        assert net.predict(x).shape == (5, 1)


class TestFreezeScopes:
    def test_pss_only_trains_current_generation_only(self):
        net = open_task(fresh_net(), 0)
        net.grow_output(1)
        net.hidden_layers[0].weights[0] += 1.0
        net.split_neuron(0, 0)
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
        net = open_task(fresh_net(), 0)
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
        net = open_task(fresh_net(), 0)
        l0, l1 = net.hidden_layers
        l0.weights[0, 0] = 0.001
        l0.weights[1, 1] = 5.0
        count = net.freeze_small_weights(0.01)
        assert count >= 1
        assert l0.train_mask[0, 0] == 0.0
        assert l0.train_mask[1, 1] == 1.0
        _, tag = net.split_neuron(0, 2)        # a row of layer 0, a column of layer 1
        net.set_structural_freeze("full_truncated")
        assert l0.train_mask[0, 0] == 0.0      # still frozen after growth and rebuild
        assert l0.train_mask[1, 1] == 1.0
        assert np.all(l0.train_mask[tag.index] == 1.0)      # grown weights train
        assert np.all(l1.train_mask[:, tag.index] == 1.0)
        assert net.check_masks() == []
        net.grow_output(1)
        assert all(l.frozen is None for l in net.layers)    # a new task starts unfrozen

    def test_zero_threshold_freezes_nothing(self):
        net = open_task(fresh_net(), 0)
        before = [l.train_mask.copy() for l in net.layers]
        assert net.freeze_small_weights(0.0) == 0
        for b, l in zip(before, net.layers):
            assert np.array_equal(b, l.train_mask)


class TestDerivedStructure:
    """Masks and runs are a pure function of weights, tags, task and scope."""

    @staticmethod
    def split_net(scope):
        net = open_task(fresh_net(hidden=(5, 4, 3)), 0)
        for task in (1, 2):
            net.grow_output(task)
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
        for task in range(3):
            net.grow_output(task)
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
        net = open_task(fresh_net(hidden=(5, 4, 3)), 0)
        assert net.check_masks() == []

    def test_detects_weight_at_masked_position(self):
        net = open_task(fresh_net(), 0)
        net.grow_output(1)
        net.hidden_layers[0].weights[0] += 1.0
        _, tag = net.split_neuron(0, 0)
        net.hidden_layers[1].weights[0, tag.index] = 0.5   # masked edge
        assert net.check_masks() == [
            "layer 1: nonzero weight at a structurally masked position"]

    def test_frozen_set_opens_no_edge(self):
        net = open_task(fresh_net(), 0)
        net.grow_output(1)
        net.hidden_layers[0].weights[0] += 1.0
        _, tag = net.split_neuron(0, 0)
        l1 = net.hidden_layers[1]
        assert l1.train_mask[0, tag.index] == 0.0           # no edge, so no training
        l1.frozen = np.zeros(l1.weights.shape, dtype=bool)  # nothing frozen
        assert l1.train_mask[0, tag.index] == 0.0           # still no edge
        assert net.check_masks() == []
        l1.frozen = l1.conn_mask                            # 0/1 floats, not a bool set
        assert net.check_masks() == ["layer 1: frozen set must be a 2-D bool array"]

    def test_detects_fan_in_mismatch(self):
        net = open_task(fresh_net(), 0)
        l1 = net.hidden_layers[1]
        l1.weights = l1.weights[:, :-1].copy()
        l1.runs = [(0, 3, 3)]
        assert net.check_masks() == ["layer 1: fan-in 3 for 4 units below"]

    def test_detects_hidden_tag_newer_than_task(self):
        net = open_task(fresh_net(), 0)
        net.hidden_gens[1][-1] = 1
        assert net.check_masks() == ["hidden tags not all in 0..0"]

    def test_detects_disordered_generations(self):
        net = open_task(fresh_net(), 0)
        net.hidden_gens[0][0] = 7
        assert any("non-decreasing" in p for p in net.check_masks())

    def test_detects_severed_output_edge(self):
        net = open_task(fresh_net(), 0)
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
        net.grow_output(0)
        net.set_structural_freeze("full_truncated")
        x0 = rng.standard_normal((40, 3))
        y0 = rng.integers(0, 2, size=40).astype(float)
        train_steps(net, x0, y0, 0, steps=30)

        # task 1: full training, then split everything that drifted
        net.grow_output(1)
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
        net.grow_output(2)
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
        net.grow_output(0)
        before = net.predict(probe).copy()
        net.grow_output(1)
        net.split_neuron(0, 1)                    # forced, drift not required
        net.ensure_support_path()
        net.grow_output(2)
        after = net.predict(probe)[:, :1]
        assert np.ascontiguousarray(after).tobytes() == before.tobytes()


class TestParameterCount:
    def test_counts_only_present_edges(self):
        net = PlasticNetwork.new(2, [2], np.random.default_rng(0))
        net.grow_output(0)
        # 2*2 weights + 2 biases, output 1x2 + 1 bias
        assert net.parameter_count() == 4 + 2 + 2 + 1
        net.grow_output(1)
        assert net.parameter_count() == 4 + 2 + 4 + 2

    @pytest.mark.parametrize("scope", ["full_truncated", "pss_only"])
    def test_split_network_counts_its_edges(self, scope):
        net = TestDerivedStructure.split_net(scope)
        assert any((l.conn_mask == 0.0).any() for l in net.layers)
        assert net.parameter_count() == sum(int(l.conn_mask.sum()) + l.fan_out
                                            for l in net.layers)
