"""Unit tests for the masked-layer numerics core."""

import numpy as np
import pytest

from pss.numerics import (
    IDENTITY,
    Activation,
    DimensionError,
    MaskedLayer,
    MaskError,
    NonFiniteError,
    backward_truncated,
    bce_loss,
    forward,
    gradcheck,
    he_normal,
    init_velocity,
    leaky_relu,
    pad_velocity,
    selected_bce,
    sgd_step,
    sigmoid,
)


def finite_diff_grads(layers, x, y, sel, step=1e-6):
    """Test-local central-difference gradients of the truncated loss.

    Independent of backward_truncated: perturbs every parameter in
    place and re-runs the forward pass, so any systematic error in the
    hand-derived backprop shows up as a mismatch.
    """
    def loss():
        return selected_bce(forward(layers, x).output, sel, y)

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


class TestBceLoss:
    def test_frozen_reference_value(self):
        # mean(softplus(2) - 2, softplus(-1)) computed at 50 decimal digits
        got = bce_loss(np.array([2.0, -1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(0.22009484928059767, rel=1e-15)

    def test_perfect_confident_prediction_is_near_zero(self):
        z = np.array([40.0, -40.0])
        y = np.array([1.0, 0.0])
        assert bce_loss(z, y) < 1e-15

    def test_large_logits_finite(self):
        assert np.isfinite(bce_loss(np.array([1e6, -1e6]), np.array([0.0, 1.0])))

    def test_rejects_soft_labels(self):
        with pytest.raises(ValueError):
            bce_loss(np.array([0.0]), np.array([0.5]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            bce_loss(np.zeros(3), np.zeros(2))


class TestMaskedLayer:
    def test_invariants_enforced(self):
        w = np.array([[1.0, 0.0], [0.0, 2.0]])
        conn = np.array([[1.0, 0.0], [0.0, 1.0]])
        layer = MaskedLayer(w, np.zeros(2), conn)
        layer.validate()
        # weight present where the edge is structurally absent
        with pytest.raises(MaskError):
            MaskedLayer(np.array([[1.0, 3.0], [0.0, 2.0]]), np.zeros(2), conn)
        # trainable where no edge exists
        with pytest.raises(MaskError):
            MaskedLayer(w, np.zeros(2), conn, train_mask=np.ones((2, 2)))
        with pytest.raises(MaskError):
            MaskedLayer(w, np.zeros(2), conn * 0.5)
        with pytest.raises(DimensionError):
            MaskedLayer(w, np.zeros(3), conn)

    def test_affine_matches_direct_product(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((4, 6))
        b = rng.standard_normal(4)
        layer = MaskedLayer(w, b)
        x = rng.standard_normal((5, 6))
        np.testing.assert_allclose(layer.affine(x), x @ w.T + b, rtol=1e-13)

    def test_blocked_affine_close_to_direct(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((9, 10))
        b = rng.standard_normal(9)
        layer = MaskedLayer(w, b)
        x = rng.standard_normal((7, 10))
        z = layer.affine(x, row_blocks=[(0, 4), (4, 9)], col_blocks=[(0, 3), (3, 10)])
        np.testing.assert_allclose(z, x @ w.T + b, rtol=1e-12)

    def test_block_outputs_survive_growth_bitwise(self):
        """Old blocks produce bit-identical pre-activations after the
        matrix grows, provided old rows hold structural zeros against
        the new columns."""
        rng = np.random.default_rng(9)
        w0 = rng.standard_normal((7, 5))
        b0 = rng.standard_normal(7)
        x0 = rng.standard_normal((11, 5))
        small = MaskedLayer(w0, b0)
        z_small = small.affine(x0, row_blocks=[(0, 7)], col_blocks=[(0, 5)])

        w1 = np.zeros((10, 8))
        w1[:7, :5] = w0
        w1[7:, :] = rng.standard_normal((3, 8))
        conn = np.ones((10, 8))
        conn[:7, 5:] = 0.0  # old units do not see new inputs
        w1[:7, 5:] = 0.0
        b1 = np.concatenate([b0, rng.standard_normal(3)])
        big = MaskedLayer(w1, b1, conn)
        x1 = np.concatenate([x0, rng.standard_normal((11, 3))], axis=1)
        z_big = big.affine(x1, row_blocks=[(0, 7), (7, 10)],
                           col_blocks=[(0, 5), (5, 8)])
        assert np.ascontiguousarray(z_big[:, :7]).tobytes() == z_small.tobytes()

    def test_rejects_wrong_input_width(self):
        layer = MaskedLayer(np.ones((2, 3)), np.zeros(2))
        with pytest.raises(DimensionError):
            layer.affine(np.ones((4, 5)))


class TestForward:
    def test_identity_passthrough(self):
        layer = MaskedLayer(np.eye(3), np.zeros(3))
        x = np.arange(6.0).reshape(2, 3)
        trace = forward([layer], x)
        np.testing.assert_array_equal(trace.output, x)

    def test_leaky_relu_applied(self):
        layer = MaskedLayer(np.eye(2), np.zeros(2), activation=leaky_relu(0.01))
        out = forward([layer], np.array([[-1.0, 4.0]])).output
        np.testing.assert_allclose(out, [[-0.01, 4.0]], rtol=1e-15)

    def test_unknown_activation_kind_rejected(self):
        with pytest.raises(ValueError, match="tanh"):
            Activation("tanh")

    def test_trace_records_every_layer(self):
        rng = np.random.default_rng(3)
        layers = [
            MaskedLayer(rng.standard_normal((4, 3)), rng.standard_normal(4),
                        activation=leaky_relu()),
            MaskedLayer(rng.standard_normal((2, 4)), rng.standard_normal(2)),
        ]
        trace = forward(layers, rng.standard_normal((5, 3)))
        assert len(trace.pre) == 2 and len(trace.post) == 2
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
        grads = backward_truncated([layer], trace, np.array([1.0]), [0])
        np.testing.assert_allclose(
            grads[0].weights, [[-0.46879062662624377, -0.9375812532524875]], rtol=1e-15)
        np.testing.assert_allclose(grads[0].bias, [-0.46879062662624377], rtol=1e-15)
        assert selected_bce(trace.output, [0], np.array([1.0])) == pytest.approx(
            0.6325990353171691, rel=1e-15)

    def test_column_truncation_loss_value(self):
        # two outputs, gradient enters only at column 1
        layer = MaskedLayer(np.eye(2), np.zeros(2))
        x = np.array([[0.4, 0.7], [0.9, -0.3]])
        trace = forward([layer], x)
        y = np.array([0.0, 1.0])
        assert selected_bce(trace.output, [1], y) == pytest.approx(
            0.9787706466769925, rel=1e-14)
        grads = backward_truncated([layer], trace, y, [1])
        # row 0 of the weight matrix feeds only output 0: untouched
        np.testing.assert_array_equal(grads[0].weights[0], [0.0, 0.0])
        assert grads[0].bias[0] == 0.0
        np.testing.assert_allclose(
            grads[0].weights[1],
            [0.3340938860840831 * 0.4 + (-0.2872212584058295) * 0.9,
             0.3340938860840831 * 0.7 + (-0.2872212584058295) * -0.3],
            rtol=1e-13)

    def test_matches_finite_differences_on_masked_net(self):
        rng = np.random.default_rng(42)
        conn1 = (rng.random((5, 4)) >= 0.3).astype(float)
        train1 = conn1 * (rng.random((5, 4)) >= 0.3)
        l1 = MaskedLayer(he_normal(5, 4, rng) * conn1, rng.standard_normal(5) * 0.1,
                         conn1, train1, activation=leaky_relu())
        l2 = MaskedLayer(he_normal(3, 5, rng), rng.standard_normal(3) * 0.1)
        layers = [l1, l2]
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 2, size=(6, 2)).astype(float)
        sel = [0, 2]
        grads = backward_truncated(layers, forward(layers, x), y, sel)
        fd = finite_diff_grads(layers, x, y, sel)
        for layer, g, (fw, fb) in zip(layers, grads, fd):
            np.testing.assert_allclose(g.weights, fw * layer.train_mask, atol=2e-9)
            np.testing.assert_allclose(g.bias, fb * layer.bias_train_mask, atol=2e-9)

    def test_frozen_positions_get_exact_zero(self):
        rng = np.random.default_rng(5)
        conn = np.ones((3, 3))
        train = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        layer = MaskedLayer(rng.standard_normal((3, 3)), rng.standard_normal(3),
                            conn, train, bias_train_mask=np.array([1.0, 0.0, 1.0]))
        x = rng.standard_normal((4, 3))
        g = backward_truncated([layer], forward([layer], x),
                               rng.integers(0, 2, size=(4, 3)).astype(float),
                               [0, 1, 2])[0]
        assert np.all(g.weights[train == 0.0] == 0.0)
        assert g.bias[1] == 0.0

    def test_gradient_flows_through_frozen_weights(self):
        """Freezing stops updates to a weight, not signal through it."""
        rng = np.random.default_rng(11)
        l1 = MaskedLayer(rng.standard_normal((4, 3)), np.zeros(4),
                         activation=leaky_relu())
        l2 = MaskedLayer(rng.standard_normal((2, 4)), np.zeros(2),
                         train_mask=np.zeros((2, 4)),
                         bias_train_mask=np.zeros(2))
        x = rng.standard_normal((5, 3))
        y = rng.integers(0, 2, size=(5, 2)).astype(float)
        grads = backward_truncated([l1, l2], forward([l1, l2], x), y, [0, 1])
        assert np.all(grads[1].weights == 0.0)
        assert np.any(grads[0].weights != 0.0)

    def test_rejects_bad_selection(self):
        layer = MaskedLayer(np.eye(2), np.zeros(2))
        trace = forward([layer], np.zeros((1, 2)))
        y = np.zeros((1, 1))
        with pytest.raises(ValueError):
            backward_truncated([layer], trace, np.zeros((1, 0)), [])
        with pytest.raises(IndexError):
            backward_truncated([layer], trace, y, [5])
        with pytest.raises(ValueError):
            backward_truncated([layer], trace, np.zeros((1, 2)), [1, 1])


class TestSgdStep:
    def test_two_steps_by_hand(self):
        # scalar layer: v1 = g1, w1 = w0 - lr*g1; v2 = m*v1 + g2, ...
        layer = MaskedLayer(np.array([[1.0]]), np.array([0.0]))
        g1 = np.array([[0.5]])
        g2 = np.array([[-0.25]])
        from pss.numerics import LayerGrads
        vel = sgd_step([layer], [LayerGrads(g1, np.zeros(1))], 0.1, 0.9)
        assert layer.weights[0, 0] == 1.0 - 0.1 * 0.5
        vel = sgd_step([layer], [LayerGrads(g2, np.zeros(1))], 0.1, 0.9, vel)
        expected_v = 0.9 * 0.5 + (-0.25)
        assert vel[0].weights[0, 0] == expected_v
        assert layer.weights[0, 0] == (1.0 - 0.05) - 0.1 * expected_v

    def test_frozen_weight_and_velocity_stay_zero(self):
        rng = np.random.default_rng(13)
        conn = np.ones((3, 3))
        train = np.zeros((3, 3))
        train[0, 0] = 1.0
        w = rng.standard_normal((3, 3))
        layer = MaskedLayer(w.copy(), np.zeros(3), conn, train,
                            bias_train_mask=np.zeros(3))
        from pss.numerics import LayerGrads
        vel = init_velocity([layer])
        vel[0].weights[:] = rng.standard_normal((3, 3))  # stale momentum
        g = LayerGrads(rng.standard_normal((3, 3)), rng.standard_normal(3))
        sgd_step([layer], [g], 0.05, 0.9, vel)
        frozen = train == 0.0
        np.testing.assert_array_equal(layer.weights[frozen], w[frozen])
        assert np.all(vel[0].weights[frozen] == 0.0)
        assert np.all(vel[0].bias == 0.0)
        assert layer.weights[0, 0] != w[0, 0]

    def test_structural_zeros_survive_updates(self):
        rng = np.random.default_rng(17)
        conn = (rng.random((4, 4)) >= 0.5).astype(float)
        layer = MaskedLayer(rng.standard_normal((4, 4)) * conn, np.zeros(4), conn)
        from pss.numerics import LayerGrads
        vel = None
        for _ in range(5):
            g = LayerGrads(rng.standard_normal((4, 4)), rng.standard_normal(4))
            g.weights *= layer.train_mask
            vel = sgd_step([layer], [g], 0.1, 0.9, vel)
        assert np.all(layer.weights[conn == 0.0] == 0.0)
        layer.validate()

    def test_pad_velocity_preserves_old_entries(self):
        layer_small = MaskedLayer(np.ones((2, 2)), np.zeros(2))
        vel = init_velocity([layer_small])
        vel[0].weights[:] = 3.0
        vel[0].bias[:] = 4.0
        layer_big = MaskedLayer(np.ones((3, 4)), np.zeros(3))
        out = pad_velocity(vel, [layer_big])
        assert out[0].weights.shape == (3, 4)
        np.testing.assert_array_equal(out[0].weights[:2, :2], 3.0)
        assert np.all(out[0].weights[2:, :] == 0.0)
        assert np.all(out[0].weights[:, 2:] == 0.0)
        np.testing.assert_array_equal(out[0].bias, [4.0, 4.0, 0.0])


class TestGradcheck:
    """End-to-end agreement between analytic and numeric gradients."""

    def test_dense_net_passes(self):
        report = gradcheck([6, 5, 3], seed=1)
        assert report.passed
        assert report.max_rel_error < 1e-5
        assert report.checked > 0

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
