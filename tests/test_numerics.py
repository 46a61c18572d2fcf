"""Unit tests for the masked-layer numerics core."""

import copy
import weakref

import numpy as np
import pytest

from pss.data import TaskDataset
from pss.numerics import (
    IDENTITY,
    Activation,
    DimensionError,
    LayerGrads,
    MaskedLayer,
    MaskError,
    SGD_BLOCK,
    NonFiniteError,
    backward_truncated,
    forward,
    gradcheck,
    he_normal,
    pad_velocity,
    run_mask,
    selected_bce,
    sgd_step,
    sigmoid,
)
from pss.plasticity import NeuronTag, PlasticNetwork
from pss.trainer import TrainerConfig, rng_for, train_task


def where_activation(z, activation):
    """Test-local reference: ``np.where`` form of the activation."""
    return np.where(z > 0, z, activation.slope * z)


def finite_diff_grads(layers, x, y, head, step=1e-6):
    """Test-local central-difference gradients of the truncated loss at
    output ``head``.

    Independent of backward_truncated: perturbs every parameter in
    place and re-runs the forward pass, so any systematic error in the
    hand-derived backprop shows up as a mismatch.
    """
    def loss():
        return selected_bce(forward(layers, x).output, head, y)

    out = []
    for layer in layers:
        dw = np.zeros_like(layer.weights)
        db = np.zeros_like(layer.bias)
        for arr, darr in ((layer.weights, dw), (layer.bias, db)):
            flat, dflat = arr.reshape(-1), darr.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                up = loss()
                flat[j] = orig - step
                down = loss()
                flat[j] = orig
                dflat[j] = (up - down) / (2.0 * step)
        out.append((dw, db))
    return out


class TestSigmoid:
    def test_reference_values(self):
        np.testing.assert_allclose(sigmoid(np.array([0.5])), [0.6224593312018546], rtol=1e-15)
        np.testing.assert_allclose(sigmoid(np.array([-2.0])), [0.11920292202211756], rtol=1e-15)
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_extreme_logits_stay_finite(self):
        v = sigmoid(np.array([-1e4, -50.0, 50.0, 1e4]))
        assert np.all(np.isfinite(v))
        assert v[0] == 0.0 and v[-1] == 1.0

    def test_symmetry(self):
        z = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), np.ones_like(z), rtol=1e-14)

    def test_one_exponential_is_the_two_branch_form_bitwise(self):
        """``sigmoid`` equals, byte for byte, the form that takes
        ``exp(-z)`` where ``z >= 0`` and ``exp(z)`` elsewhere."""
        def two_branch(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        tiny = np.finfo(np.float64).tiny
        edges = np.array([0.0, np.inf, tiny, tiny / 2, 5e-324, 709.8, 745.2, 1e308])
        normals = np.random.default_rng(0).standard_normal(10 ** 6)
        z = np.concatenate([edges, -edges] + [normals * s for s in (1e-3, 0.1, 1, 30, 800)])
        with np.errstate(under="ignore"):
            assert sigmoid(z).tobytes() == two_branch(z).tobytes()


class TestSelectedBce:
    def test_frozen_reference_value(self):
        # mean(softplus(2) - 2, softplus(-1)) computed at 50 decimal digits
        z = np.array([[9.0, 2.0], [9.0, -1.0]])
        got = selected_bce(z, 1, np.array([1.0, 0.0]))
        assert got == pytest.approx(0.22009484928059767, rel=1e-15)
        assert selected_bce(z, 1, np.array([[1.0], [0.0]])) == got  # (n, 1) targets

    def test_perfect_confident_prediction_is_near_zero(self):
        z = np.array([[40.0], [-40.0]])
        y = np.array([1.0, 0.0])
        assert selected_bce(z, 0, y) < 1e-15

    def test_large_logits_finite(self):
        z, y = np.array([[1e6, -1e6]]), np.array([[0.0, 1.0]])
        for head in range(2):
            assert np.isfinite(selected_bce(z, head, y[:, head]))

    def test_rejects_soft_labels(self):
        with pytest.raises(ValueError):
            selected_bce(np.array([[0.0]]), 0, np.array([0.5]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            selected_bce(np.zeros((3, 1)), 0, np.zeros(2))
        with pytest.raises(DimensionError):  # one head, one target column
            selected_bce(np.zeros((3, 2)), 0, np.zeros((3, 2)))

    def test_reads_only_the_head_column(self):
        z = np.array([[2.0, 9.0, -1.0], [-3.0, 7.0, 0.5]])
        y = np.array([1.0, 0.0])
        for head in range(3):
            assert selected_bce(z, head, y) == selected_bce(z[:, [head]], 0, y)

    def test_rejects_an_empty_batch(self):
        with pytest.raises(DimensionError):
            selected_bce(np.zeros((0, 2)), 1, np.zeros(0))


class TestMaskedLayer:
    def test_invariants_enforced(self):
        w = np.array([[1.0, 0.0], [0.0, 2.0]])
        runs = [(0, 1, 1), (1, 2, 2)]  # row 0 sees column 0, row 1 both
        layer = MaskedLayer(w, np.zeros(2), runs)
        layer.validate()
        np.testing.assert_array_equal(layer.conn_mask, [[1.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(layer.train_mask, layer.conn_mask)
        # weight present where the edge is structurally absent
        with pytest.raises(MaskError, match="nonzero weight"):
            MaskedLayer(np.array([[1.0, 3.0], [0.0, 2.0]]), np.zeros(2), runs)
        # a frozen set is a 2-D bool array within the weights' shape
        for bad in (layer.conn_mask, np.ones(2, dtype=bool), [[True]]):
            with pytest.raises(MaskError, match="2-D bool"):
                MaskedLayer(w, np.zeros(2), runs, bad)
        with pytest.raises(DimensionError):
            MaskedLayer(w, np.zeros(3), runs)
        for shape in ((3, 2), (2, 3)):
            with pytest.raises(DimensionError, match="frozen set"):
                MaskedLayer(w, np.zeros(2), runs, np.zeros(shape, dtype=bool))
        # a frozen set over a structural zero, or a corner of the weights, is valid
        MaskedLayer(w, np.zeros(2), runs, np.ones((2, 2), dtype=bool))
        MaskedLayer(w, np.zeros(2), runs, np.ones((2, 1), dtype=bool))
        # runs must tile the rows in order, each within the fan-in
        for bad in ([(0, 1, 1)], [(0, 1, 1), (0, 2, 2)], [(0, 2, 3)],
                    [(0, 1, 1), (2, 2, 2)]):
            with pytest.raises(MaskError, match="run"):
                MaskedLayer(w, np.zeros(2), bad)
        # nothing before the first trainable row trains, frozen set or not
        layer.train_from = 1
        layer.validate()
        np.testing.assert_array_equal(layer.train_mask, [[0.0, 0.0], [1.0, 1.0]])
        layer.frozen = np.zeros((2, 2), dtype=bool)
        layer.validate()
        np.testing.assert_array_equal(layer.train_mask, [[0.0, 0.0], [1.0, 1.0]])
        layer.frozen[1, 0] = True
        np.testing.assert_array_equal(layer.train_mask, [[0.0, 0.0], [0.0, 1.0]])
        # a frozen corner leaves the weights past it trainable
        layer.frozen = np.ones((2, 1), dtype=bool)
        np.testing.assert_array_equal(layer.train_mask, [[0.0, 0.0], [0.0, 1.0]])
        # the views are derived, not stored
        with pytest.raises(AttributeError):
            layer.train_mask = np.zeros((2, 2))

    def test_affine_matches_direct_product(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((4, 6))
        b = rng.standard_normal(4)
        layer = MaskedLayer(w, b)
        x = rng.standard_normal((5, 6))
        np.testing.assert_allclose(layer.affine(x), x @ w.T + b, rtol=1e-13)

    def test_blocked_affine_close_to_direct(self):
        rng = np.random.default_rng(8)
        conn = np.ones((9, 10))
        conn[:4, 3:] = 0.0  # rows 0:4 see columns :3, rows 4:9 see all
        w = rng.standard_normal((9, 10)) * conn
        b = rng.standard_normal(9)
        layer = MaskedLayer(w, b, runs=[(0, 4, 3), (4, 9, 10)])
        np.testing.assert_array_equal(layer.conn_mask, conn)
        x = rng.standard_normal((7, 10))
        z = layer.affine(x)
        np.testing.assert_allclose(z, x @ w.T + b, rtol=1e-12)

    def test_block_outputs_survive_growth_bitwise(self):
        """An old run's pre-activations stay bit-identical after rows and
        columns are appended, provided its rows hold structural zeros
        against the new columns."""
        rng = np.random.default_rng(9)
        w0 = rng.standard_normal((7, 5))
        b0 = rng.standard_normal(7)
        x0 = rng.standard_normal((11, 5))
        small = MaskedLayer(w0, b0)
        assert small.runs == [(0, 7, 5)]
        z_small = small.affine(x0)

        w1 = np.zeros((10, 8))
        w1[:7, :5] = w0
        w1[7:, :] = rng.standard_normal((3, 8))
        b1 = np.concatenate([b0, rng.standard_normal(3)])
        # old units do not see new inputs
        big = MaskedLayer(w1, b1, runs=[(0, 7, 5), (7, 10, 8)])
        x1 = np.concatenate([x0, rng.standard_normal((11, 3))], axis=1)
        z_big = big.affine(x1)
        assert np.ascontiguousarray(z_big[:, :7]).tobytes() == z_small.tobytes()

    @pytest.mark.parametrize("m", [1, 64, 4000])
    def test_affine_writes_each_run_as_its_own_product_plus_bias(self, m):
        """Bit for bit the per-run ``x[:, :c1] @ W[r0:r1, :c1].T + b[r0:r1]``,
        for whole layers and for row windows over several generations, into
        a new array and into a column window of a wider one (as
        ``post_activations`` writes past a layer's cached columns); a
        window that cuts a run is refused."""
        rng = np.random.default_rng(m)
        runs = [(0, 37, 20), (37, 38, 20), (38, 60, 33), (60, 61, 0), (61, 70, 40)]
        w = rng.standard_normal((70, 40)) * run_mask(runs, (70, 40))
        layer = MaskedLayer(w, rng.standard_normal(70), runs=runs)
        x = rng.standard_normal((m, 40))
        want = np.concatenate([x[:, :c1] @ w[r0:r1, :c1].T + layer.bias[r0:r1]
                               for r0, r1, c1 in runs], axis=1)
        for start, stop in ((0, None), (0, 38), (37, 61), (61, 70)):
            xs = x[:, :33] if stop == 38 else x
            expected = np.ascontiguousarray(want[:, start:stop]).tobytes()
            assert layer.affine(xs, start, stop).tobytes() == expected
            width = (stop or 70) - start
            wide = np.full((m, 3 + width + 2), np.nan)
            window = wide[:, 3:3 + width]
            assert layer.affine(xs, start, stop, out=window) is window
            assert np.ascontiguousarray(window).tobytes() == expected
            assert np.isnan(wide[:, :3]).all() and np.isnan(wide[:, 3 + width:]).all()
        # a window must fall on run boundaries
        for start, stop in ((0, 20), (20, 70), (38, 65)):
            with pytest.raises(DimensionError, match="cut the run"):
                layer.affine(x, start, stop)

    def test_affine_follows_rebound_runs_and_in_place_writes(self):
        """The run plan is rebuilt when ``runs`` is rebound, and sees
        in-place writes to the weights."""
        rng = np.random.default_rng(11)
        w = rng.standard_normal((5, 4))
        w[:2, 3:] = 0.0
        layer = MaskedLayer(w, rng.standard_normal(5))
        x = rng.standard_normal((3, 4))
        layer.affine(x)
        layer.runs = [(0, 2, 3), (2, 5, 4)]
        layer.validate()
        want = x[:, :3] @ w[:2, :3].T + layer.bias[:2]
        assert layer.affine(x[:, :3], stop=2).tobytes() == want.tobytes()
        layer.weights[1, 0] += 1.0
        want = x[:, :3] @ layer.weights[:2, :3].T + layer.bias[:2]
        assert layer.affine(x[:, :3], stop=2).tobytes() == want.tobytes()

    def test_rejects_wrong_input_width(self):
        layer = MaskedLayer(np.ones((2, 3)), np.zeros(2))
        with pytest.raises(DimensionError):
            layer.affine(np.ones((4, 5)))

    def test_row_stop_reads_only_the_columns_its_runs_see(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal((9, 10))
        w[:4, 3:] = 0.0
        b = rng.standard_normal(9)
        layer = MaskedLayer(w, b, runs=[(0, 4, 3), (4, 9, 10)])
        x = rng.standard_normal((7, 10))
        z = layer.affine(x[:, :3], stop=4)
        assert z.tobytes() == np.ascontiguousarray(layer.affine(x)[:, :4]).tobytes()
        assert layer.affine(x[:, :3], stop=0).shape == (7, 0)
        # an in-range run whose prefix is wider than the input
        for stop in (9, None):
            with pytest.raises(DimensionError, match="see 10 input columns"):
                layer.affine(x[:, :3], stop=stop)
        # a stop inside that run cuts it
        with pytest.raises(DimensionError, match="cut the run"):
            layer.affine(x[:, :3], stop=5)


class TestForward:
    def test_identity_passthrough(self):
        layer = MaskedLayer(np.eye(3), np.zeros(3))
        x = np.arange(6.0).reshape(2, 3)
        trace = forward([layer], x)
        np.testing.assert_array_equal(trace.output, x)

    def test_leaky_relu_applied(self):
        layer = MaskedLayer(np.eye(2), np.zeros(2), activation=Activation(0.01))
        out = forward([layer], np.array([[-1.0, 4.0]])).output
        np.testing.assert_allclose(out, [[-0.01, 4.0]], rtol=1e-15)

    @pytest.mark.parametrize("activation", [Activation(0.01), Activation(0.3), IDENTITY])
    def test_in_place_activation_is_apply(self, activation):
        z = np.random.default_rng(4).standard_normal((50, 9))
        z[0, :4] = [0.0, -0.0, 1e-310, -1e-310]
        want = where_activation(z, activation)
        got = activation.apply_in_place(z)
        assert got is z and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.5, 1.0])
    def test_derivative_is_where_without_a_branch(self, slope):
        """``np.maximum(a > 0, slope)`` is ``np.where(a > 0, 1.0, slope)``
        bit for bit, on signed zeros, subnormals and +-1e300."""
        tiny = np.finfo(np.float64).smallest_subnormal
        a = np.random.default_rng(3).standard_normal((64, 312))
        a[0, :8] = [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 1e300, -1e300]
        want = np.where(a > 0, 1.0, slope)
        got = Activation(slope).derivative(a)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 64, 65, 769])
    def test_in_place_activation_and_derivative_are_where_at_chunk_edges(self, slope, n):
        """Bitwise ``np.where`` on signed zeros, denormals and the largest
        floats, over row counts at the edges of the activation's chunks;
        the derivative read off the post-activation is the one read off
        the pre-activation."""
        activation = Activation(slope)
        tiny = np.finfo(np.float64).smallest_subnormal
        big = np.finfo(np.float64).max
        special = [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, big, -big]
        z = np.random.default_rng(n).standard_normal((n, 11))
        z.reshape(-1)[np.arange(0, z.size, 3)] = np.resize(special, len(range(0, z.size, 3)))
        want = np.where(z > 0, z, slope * z)
        want_derivative = np.where(z > 0, 1.0, slope)
        a = activation.apply_in_place(z.copy())
        assert a.tobytes() == want.tobytes()
        assert activation.derivative(a).tobytes() == want_derivative.tobytes()
        # a column view, as the training step activates the computed rows
        wide = np.concatenate([np.ones((n, 3)), z], axis=1)
        activation.apply_in_place(wide[:, 3:])
        assert np.ascontiguousarray(wide[:, 3:]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("slope", [-1.0, -1e-300, 1.0000000000000002, 2.0, np.nan, np.inf])
    def test_slope_outside_unit_interval_rejected(self, slope):
        with pytest.raises(ValueError, match="outside"):
            Activation(slope)

    def test_trace_records_every_layer(self):
        rng = np.random.default_rng(3)
        layers = [
            MaskedLayer(rng.standard_normal((4, 3)), rng.standard_normal(4),
                        activation=Activation()),
            MaskedLayer(rng.standard_normal((2, 4)), rng.standard_normal(2)),
        ]
        trace = forward(layers, rng.standard_normal((5, 3)))
        assert len(trace.post) == 2
        assert [a.shape for a in trace.post] == [(5, 4), (5, 2)]
        assert trace.output.shape == (5, 2)
        np.testing.assert_array_equal(trace.layer_input(1), trace.post[0])

    def test_rejects_non_finite_batch(self):
        layer = MaskedLayer(np.eye(2), np.zeros(2))
        with pytest.raises(NonFiniteError):
            forward([layer], np.array([[np.nan, 0.0]]))


class TestBackwardTruncated:
    def test_single_unit_frozen_oracle(self):
        # w=[0.5,-0.25], b=0.125, x=[1,2] gives z = 0.125 exactly; the
        # expected numbers were computed at 50 decimal digits.
        layer = MaskedLayer(np.array([[0.5, -0.25]]), np.array([0.125]))
        x = np.array([[1.0, 2.0]])
        trace = forward([layer], x)
        assert trace.output[0, 0] == 0.125
        grads = backward_truncated([layer], trace, np.array([1.0]), 0)
        np.testing.assert_allclose(
            grads[0].weights, [[-0.46879062662624377, -0.9375812532524875]], rtol=1e-15)
        np.testing.assert_allclose(grads[0].bias, [-0.46879062662624377], rtol=1e-15)
        assert selected_bce(trace.output, 0, np.array([1.0])) == pytest.approx(
            0.6325990353171691, rel=1e-15)

    def test_column_truncation_loss_value(self):
        # two outputs, gradient enters only at column 1
        layer = MaskedLayer(np.eye(2), np.zeros(2))
        x = np.array([[0.4, 0.7], [0.9, -0.3]])
        trace = forward([layer], x)
        y = np.array([0.0, 1.0])
        assert selected_bce(trace.output, 1, y) == pytest.approx(
            0.9787706466769925, rel=1e-14)
        grads = backward_truncated([layer], trace, y, 1)
        # row 0 of the weight matrix feeds only output 0: untouched
        np.testing.assert_array_equal(grads[0].weights[0], [0.0, 0.0])
        assert grads[0].bias[0] == 0.0
        np.testing.assert_allclose(
            grads[0].weights[1],
            [0.3340938860840831 * 0.4 + (-0.2872212584058295) * 0.9,
             0.3340938860840831 * 0.7 + (-0.2872212584058295) * -0.3],
            rtol=1e-13)

    @staticmethod
    def masked_net(rng):
        """Random structural zeros and frozen weights in layer 0; output rows
        0:2 see hidden units :3, row 2 sees all five. Returns the layers, a
        batch and its targets at every output."""
        # random structural zeros: zero weights that never train
        keep1 = (rng.random((5, 4)) >= 0.3).astype(float)
        train1 = keep1 * (rng.random((5, 4)) >= 0.3)
        l1 = MaskedLayer(he_normal(5, 4, rng) * keep1, rng.standard_normal(5) * 0.1,
                         frozen=train1 == 0.0, activation=Activation())
        w2 = he_normal(3, 5, rng)
        w2[:2, 3:] = 0.0
        l2 = MaskedLayer(w2, rng.standard_normal(3) * 0.1, [(0, 2, 3), (2, 3, 5)])
        x = rng.standard_normal((6, 4))
        return [l1, l2], x, rng.integers(0, 2, size=(6, 3)).astype(float)

    @staticmethod
    def grown_net(rng):
        """A network the engine grew over two hybrid tasks: task 1's first
        round split, so it ends under ``pss_only`` with every hidden
        ``train_from`` above 0."""
        net = PlasticNetwork.new(4, [6, 5], rng_for(7, 0))
        config = TrainerConfig(hidden_sizes=(6, 5), sigma=1e-6, delta=0.0, batch_size=8,
                               epochs_per_task=2, seed=7)
        for _ in range(2):
            data = TaskDataset(rng.standard_normal((24, 4)), np.arange(24),
                               rng.integers(0, 2, size=24).astype(float))
            report = train_task(net, data, config)
        assert sum(report.splits_per_epoch) and net.freeze_scope == "pss_only"
        assert all(layer.train_from for layer in net.hidden_layers)
        x = rng.standard_normal((6, 4))
        return net.layers, x, rng.integers(0, 2, size=(6, 2)).astype(float)

    @pytest.mark.parametrize("build", ["masked_net", "grown_net"])
    def test_matches_finite_differences_on_masked_net(self, build):
        """The rows from ``train_from`` on are the finite differences where
        a weight trains, and exactly 0 where it is frozen or absent (past
        its run's prefix, where the loss does not depend on it); every
        bias from ``train_from`` on trains: a frozen set holds weights only.
        Every output is checked as the head."""
        layers, x, targets = getattr(self, build)(np.random.default_rng(42))
        for head, y in enumerate(targets.T):
            grads = backward_truncated(layers, forward(layers, x), y, head)
            fd = finite_diff_grads(layers, x, y, head)
            for layer, g, (fw, fb) in zip(layers, grads, fd):
                o = layer.train_from
                np.testing.assert_allclose(g.weights, (fw * layer.train_mask)[o:], atol=2e-9)
                np.testing.assert_allclose(g.bias, fb[o:], atol=2e-9)
                for r0, r1, c1 in layer.runs:  # no edge, no dependence
                    assert not fw[r0:r1, c1:].any()
                    assert not g.weights[max(r0 - o, 0):max(r1 - o, 0), c1:].any()
                if layer.frozen is not None:
                    frozen = layer.frozen[o:]
                    assert not g.weights[:len(frozen), :frozen.shape[1]][frozen].any()

    def test_frozen_positions_get_exact_zero(self):
        rng = np.random.default_rng(5)
        frozen = np.array([[False, True, False], [True, True, True], [False, False, True]])
        layer = MaskedLayer(rng.standard_normal((3, 3)), rng.standard_normal(3),
                            frozen=frozen)
        x = rng.standard_normal((4, 3))
        y = rng.integers(0, 2, size=(4, 3)).astype(float)
        for head in range(3):  # the gradient enters at the head's row only
            g = backward_truncated([layer], forward([layer], x), y[:, head], head)[0]
            assert np.all(g.weights[frozen] == 0.0)
            assert np.all(g.weights[head, ~frozen[head]] != 0.0)
            assert g.bias[head] != 0.0  # a bias is never frozen
        # a corner covers its own positions, from train_from on
        layer.frozen, layer.train_from = frozen[:2, :2], 1
        g = backward_truncated([layer], forward([layer], x), y[:, 1], 1)[0]
        assert np.all(g.weights[0, :2] == 0.0) and np.all(g.weights[0, 2] != 0.0)
        g = backward_truncated([layer], forward([layer], x), y[:, 2], 2)[0]
        assert np.all(g.weights[1] != 0.0)

    def test_trainable_rows_zero_past_each_prefix(self):
        """With ``train_from`` inside a run, the returned rows are the
        dense gradient's rows, zero past every run's prefix."""
        rng = np.random.default_rng(23)
        runs = [(0, 2, 1), (2, 3, 2), (3, 4, 3)]
        w = rng.standard_normal((4, 3))
        w[:2, 1:] = 0.0
        w[2, 2:] = 0.0
        layer = MaskedLayer(w, rng.standard_normal(4), runs)
        x = rng.standard_normal((5, 3))
        y = rng.integers(0, 2, size=(5, 4)).astype(float)
        for head, c1 in enumerate([1, 1, 2, 3]):  # the head row's prefix
            layer.train_from = 0
            dense = backward_truncated([layer], forward([layer], x), y[:, head], head)[0]
            assert np.all(dense.weights[:2, 1:] == 0.0) and np.all(dense.weights[2, 2:] == 0.0)
            assert np.all(dense.weights[head, :c1] != 0.0)
            layer.train_from = 1
            g = backward_truncated([layer], forward([layer], x), y[:, head], head)[0]
            assert g.weights.tobytes() == dense.weights[1:].tobytes()
            assert g.bias.tobytes() == dense.bias[1:].tobytes()

    def test_gradient_flows_through_frozen_weights(self):
        """Freezing stops updates to a weight, not signal through it."""
        rng = np.random.default_rng(11)
        l1 = MaskedLayer(rng.standard_normal((4, 3)), np.zeros(4),
                         activation=Activation())
        l2 = MaskedLayer(rng.standard_normal((2, 4)), np.zeros(2),
                         frozen=np.ones((2, 4), dtype=bool))
        x = rng.standard_normal((5, 3))
        y = rng.integers(0, 2, size=(5, 2)).astype(float)
        for head in range(2):
            grads = backward_truncated([l1, l2], forward([l1, l2], x), y[:, head], head)
            assert np.all(grads[1].weights == 0.0)
            assert np.any(grads[0].weights != 0.0)

    def test_rejects_a_head_that_is_not_an_output(self):
        layer = MaskedLayer(np.eye(2), np.zeros(2))
        trace = forward([layer], np.zeros((1, 2)))
        y = np.zeros((1, 1))
        for head in (5, 2, -1):
            with pytest.raises(IndexError):
                backward_truncated([layer], trace, y, head)
        with pytest.raises(TypeError):  # one output index, not a list of them
            backward_truncated([layer], trace, y, [1])


class TestSgdStep:
    def test_two_steps_by_hand(self):
        # scalar layer: v1 = g1, w1 = w0 - lr*g1; v2 = m*v1 + g2, ...
        layer = MaskedLayer(np.array([[1.0]]), np.array([0.0]))
        g1 = np.array([[0.5]])
        g2 = np.array([[-0.25]])
        vel = pad_velocity(None, [layer])
        v = vel[0]
        assert sgd_step([layer], [LayerGrads(g1, np.zeros(1))], 0.1, 0.9, vel) is None
        assert layer.weights[0, 0] == 1.0 - 0.1 * 0.5
        sgd_step([layer], [LayerGrads(g2, np.zeros(1))], 0.1, 0.9, vel)
        assert vel[0] is v  # updated in place
        expected_v = 0.9 * 0.5 + (-0.25)
        assert vel[0].weights[0, 0] == expected_v
        assert layer.weights[0, 0] == (1.0 - 0.05) - 0.1 * expected_v

    def test_frozen_weight_and_velocity_stay_zero(self):
        rng = np.random.default_rng(13)
        frozen = np.ones((3, 3), dtype=bool)
        frozen[0, 0] = False
        w = rng.standard_normal((3, 3))
        layer = MaskedLayer(w.copy(), np.zeros(3), frozen=frozen)
        vel = pad_velocity(None, [layer])
        vel[0].weights[:] = rng.standard_normal((3, 3))  # stale momentum
        g = LayerGrads(rng.standard_normal((3, 3)), rng.standard_normal(3))
        sgd_step([layer], [g], 0.05, 0.9, vel)
        np.testing.assert_array_equal(layer.weights[frozen], w[frozen])
        assert np.all(vel[0].weights[frozen] == 0.0)
        assert np.array_equal(vel[0].bias, g.bias)  # biases train
        assert layer.weights[0, 0] != w[0, 0]

    def test_structural_zeros_survive_updates(self):
        rng = np.random.default_rng(17)
        runs = [(0, 1, 1), (1, 3, 2), (3, 4, 4)]
        conn = np.array([[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1.0]])
        layer = MaskedLayer(rng.standard_normal((4, 4)) * conn, np.zeros(4), runs)
        vel = pad_velocity(None, [layer])
        for _ in range(5):
            g = LayerGrads(rng.standard_normal((4, 4)), rng.standard_normal(4))
            g.weights *= layer.train_mask
            sgd_step([layer], [g], 0.1, 0.9, vel)
        assert np.all(layer.weights[conn == 0.0] == 0.0)
        layer.validate()

    WIDE = SGD_BLOCK // 4  # a layer this wide takes K = 4 rows per block of sgd_step
    K = SGD_BLOCK // WIDE

    # in a WIDE layer of 3K + 3 rows, blocks start at rows 0, K, 2K and 3K
    @pytest.mark.parametrize("fan_out, fan_in, train_from, frozen_rows, overflow", [
        (3, 4, 0, None, (1, 1, 2)),  # only the last layer overflows
        (3 * K + 3, WIDE, 0, None, (0, K + 1, 5)),  # the second block of four
        (3 * K + 3, WIDE, 0, None, (1, 1, 2)),  # a later layer, after a multi-block one
        # rows 2 + K - 1 and 2 + K freeze, on both sides of a block edge
        (3 * K + 3, WIDE, 2, (2 + K - 1, 2 + K + 1), (0, 2 + 2 * K + 1, 3)),
    ], ids=["last-layer", "middle-block", "after-multi-block", "frozen-across-block-edge"])
    def test_non_finite_update_changes_nothing(self, fan_out, fan_in, train_from,
                                               frozen_rows, overflow):
        """A step that overflows anywhere stores nothing, and what it
        wrote into the spares carries nothing over: a finite step from
        that state equals the same step on a fresh copy."""
        rng = np.random.default_rng(19)
        layers = [MaskedLayer(rng.standard_normal((fan_out, fan_in)),
                              rng.standard_normal(fan_out)),
                  MaskedLayer(rng.standard_normal((2, fan_out)), rng.standard_normal(2))]
        layers[0].train_from = train_from
        if frozen_rows:
            layers[0].frozen = np.zeros((fan_out, 7), dtype=bool)
            layers[0].frozen[slice(*frozen_rows), 1:6] = True

        def draw():
            return [LayerGrads(rng.standard_normal(l.weights[l.train_from:].shape),
                               rng.standard_normal(l.bias[l.train_from:].shape))
                    for l in layers]

        vel, grads = draw(), draw()
        layer, row, col = overflow
        grads[layer].weights[row - layers[layer].train_from, col] = 1e308
        fresh_layers, fresh_vel = copy.deepcopy(layers), copy.deepcopy(vel)

        def state(layers, vel):
            return [(l.weights.tobytes(), l.bias.tobytes(), v.weights.tobytes(),
                     v.bias.tobytes()) for l, v in zip(layers, vel)]

        before = state(layers, vel)
        with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
            sgd_step(layers, grads, 10.0, 0.9, vel)
        after = state(layers, vel)
        assert after == before
        for finite in (draw(), draw()):
            sgd_step(layers, finite, 0.1, 0.9, vel)
            sgd_step(fresh_layers, finite, 0.1, 0.9, fresh_vel)
            assert state(layers, vel) == state(fresh_layers, fresh_vel)
        if frozen_rows:
            frozen = layers[0].frozen[train_from:]
            assert not vel[0].weights[:len(frozen), :7][frozen].any()

    def test_a_replaced_weights_array_is_freed(self):
        """A step of a whole layer rebinds its weights: the run plan that
        ``affine`` built over the old array keeps it alive no longer, and
        the next ``affine`` reads the new one."""
        rng = np.random.default_rng(23)
        runs = [(0, 2, 3), (2, 5, 4)]
        conn = run_mask(runs, (5, 4))
        layer = MaskedLayer(rng.standard_normal((5, 4)) * conn, rng.standard_normal(5), runs)
        x = rng.standard_normal((3, 4))
        layer.affine(x)
        old = weakref.ref(layer.weights)
        g = LayerGrads(rng.standard_normal((5, 4)) * conn, rng.standard_normal(5))
        sgd_step([layer], [g], 0.1, 0.9, pad_velocity(None, [layer]))
        assert old() is None
        want = np.concatenate([x[:, :c1] @ layer.weights[r0:r1, :c1].T + layer.bias[r0:r1]
                               for r0, r1, c1 in runs], axis=1)
        assert layer.affine(x).tobytes() == want.tobytes()

    def test_velocity_of_another_shape_changes_nothing(self):
        """Velocity covers the rows from ``train_from`` on, like the
        gradients: a whole-layer velocity, or one a row short, is refused
        before anything is stored."""
        rng = np.random.default_rng(29)
        layers = [MaskedLayer(rng.standard_normal((3, 4)), rng.standard_normal(3)),
                  MaskedLayer(rng.standard_normal((2, 3)), rng.standard_normal(2))]
        layers[1].train_from = 1
        grads = [LayerGrads(rng.standard_normal(l.weights[l.train_from:].shape),
                            rng.standard_normal(l.bias[l.train_from:].shape)) for l in layers]
        whole = [LayerGrads(rng.standard_normal(l.weights.shape),
                            rng.standard_normal(l.bias.shape)) for l in layers]
        short_bias = pad_velocity(None, layers)
        short_bias[1].bias = short_bias[1].bias[1:]
        for vel in (whole, short_bias):
            before = [(l.weights.tobytes(), l.bias.tobytes(), v.weights.tobytes(),
                       v.bias.tobytes()) for l, v in zip(layers, vel)]
            with pytest.raises(DimensionError):
                sgd_step(layers, grads, 0.1, 0.9, vel)
            assert before == [(l.weights.tobytes(), l.bias.tobytes(), v.weights.tobytes(),
                               v.bias.tobytes()) for l, v in zip(layers, vel)]
        with pytest.raises(TypeError):  # no implicit velocity
            sgd_step(layers, grads, 0.1, 0.9)
        vel = pad_velocity(None, layers)
        sgd_step(layers, grads, 0.1, 0.9, vel)
        assert [v.weights.shape for v in vel] == [(3, 4), (1, 3)]

    @pytest.mark.parametrize("old, shape, train_from, reset, want", [
        (None, (3, 2), 1, (), ([[0, 0], [0, 0]], [0, 0])),
        (([[3, 3], [3, 3]], [4, 4]), (3, 4), 0, (),
         ([[3, 3, 0, 0], [3, 3, 0, 0], [0, 0, 0, 0]], [4, 4, 0])),
        (([[1, 2], [3, 4], [5, 6]], [7, 8, 9]), (5, 3), 2, (),
         ([[5, 6, 0], [0, 0, 0], [0, 0, 0]], [9, 0, 0])),
        (([[1, 2], [3, 4], [5, 6]], [7, 8, 9]), (4, 3), 1, (0, 2, 3),
         ([[3, 4, 0], [0, 0, 0], [0, 0, 0]], [8, 0, 0])),
    ], ids=["none", "growth", "switch", "reset"])
    def test_pad_velocity_shapes_the_trainable_rows(self, old, shape, train_from, reset, want):
        """From a whole-layer velocity (None: none yet), the velocity of the
        rows from ``train_from`` on: old entries kept where the row still
        trains and the column existed, appended rows and columns 0, and the
        ``reset`` rows 0; a reset row below ``train_from`` is dropped."""
        layer = MaskedLayer(np.ones(shape), np.zeros(shape[0]))
        layer.train_from = train_from
        vel = old and [LayerGrads(*(np.array(a, dtype=float) for a in old))]
        out = pad_velocity(vel, [layer], [NeuronTag(0, i, 0) for i in reset])
        np.testing.assert_array_equal(out[0].weights, want[0])
        np.testing.assert_array_equal(out[0].bias, want[1])
        assert out[0].weights.shape == layer.weights[train_from:].shape
        assert out[0].spare is None


class TestGradcheck:
    """End-to-end agreement between analytic and numeric gradients."""

    def test_dense_net_passes(self):
        report = gradcheck([6, 5, 3], seed=1)
        assert report.passed
        assert report.max_rel_error < 1e-5
        # every parameter, once with each of the 3 outputs as the head
        assert report.checked == 3 * (5 * 6 + 5 + 3 * 5 + 3)
        assert report.frozen_checked == 0

    def test_masked_frozen_net_passes(self):
        report = gradcheck([8, 6, 4], seed=2, zero_prob=0.4, freeze_prob=0.3)
        assert report.passed
        assert report.frozen_checked > 0
        assert report.frozen_nonzero == 0

    def test_rejects_degenerate_dims(self):
        with pytest.raises(ValueError):
            gradcheck([5])
        with pytest.raises(ValueError):
            gradcheck([4, 0, 2])


class TestHeNormal:
    def test_std_scales_with_fan_in(self):
        rng = np.random.default_rng(0)
        w = he_normal(400, 200, rng)
        assert abs(w.std() - np.sqrt(2.0 / 200)) < 0.005
        assert abs(w.mean()) < 0.005
