"""Binarized weight containers: sign, amplitude, straight-through gradients."""

import numpy as np
import pytest

from reverb_snn.errors import DimensionError, ModeError
from reverb_snn.layers import (CONV, DENSE, BinaryLayer, alpha_grad,
                               binarize_weights, clip_latent,
                               effective_weights, forward, latent_transform,
                               ste_weight_grad)
from reverb_snn.numerics import conv2d, matmul


def dense_layer(w, alpha=None, binarize=True, **kw):
    w = np.asarray(w, dtype=np.float64)
    alpha = np.ones(w.shape[0]) if alpha is None else np.asarray(alpha, dtype=np.float64)
    return BinaryLayer(w_latent=w, alpha=alpha, binarize=binarize, kind=DENSE, **kw)


class TestBinarizeWeights:
    def test_zero_maps_to_plus_one(self):
        np.testing.assert_array_equal(binarize_weights(np.array([0.0])), [1.0])

    def test_signs(self):
        np.testing.assert_array_equal(
            binarize_weights(np.array([-0.3, 0.7])), [-1.0, 1.0]
        )

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(-2, 2, (5, 7))
        once = binarize_weights(w)
        np.testing.assert_array_equal(binarize_weights(once), once)

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(-2, 2, (4, 6))
        for c in (0.1, 1.0, 37.5):
            np.testing.assert_array_equal(binarize_weights(c * w), binarize_weights(w))

    def test_output_values_are_pm_one(self):
        rng = np.random.default_rng(2)
        out = binarize_weights(rng.normal(size=100))
        assert set(np.unique(out)) <= {-1.0, 1.0}


class TestEffectiveWeights:
    def test_unit_alpha_equals_sign(self):
        rng = np.random.default_rng(3)
        layer = dense_layer(rng.uniform(-1, 1, (4, 5)))
        np.testing.assert_array_equal(
            effective_weights(layer), binarize_weights(layer.w_latent)
        )

    def test_alpha_broadcast_example(self):
        layer = dense_layer([[0.2, -0.9]], alpha=[0.3])
        np.testing.assert_allclose(effective_weights(layer), [[0.3, -0.3]])

    def test_constant_magnitude_per_channel(self):
        rng = np.random.default_rng(4)
        alpha = rng.uniform(0.1, 2.0, 6)
        layer = dense_layer(rng.uniform(-1, 1, (6, 9)), alpha=alpha)
        mags = np.abs(effective_weights(layer))
        for c in range(6):
            np.testing.assert_array_equal(mags[c], np.full(9, alpha[c]))

    def test_equals_alpha_times_sign_property(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            w = rng.uniform(-1, 1, (3, 8))
            alpha = rng.uniform(0.05, 3.0, 3)
            layer = dense_layer(w, alpha=alpha)
            np.testing.assert_array_equal(
                effective_weights(layer), alpha[:, None] * binarize_weights(w)
            )

    def test_requires_binarized_layer(self):
        with pytest.raises(ModeError):
            effective_weights(dense_layer(np.zeros((2, 2)), binarize=False))


class TestForward:
    def test_zero_spikes_zero_current(self):
        rng = np.random.default_rng(6)
        layer = dense_layer(rng.uniform(-1, 1, (4, 5)))
        out = forward(layer, np.zeros((2, 5)))
        np.testing.assert_array_equal(out, np.zeros((2, 4)))

    def test_single_event_hand_case(self):
        # spikes [o, 0] against weight row [+a, -a] gives current a*o.
        layer = dense_layer([[0.5, -0.5]], alpha=[0.7])
        out = forward(layer, np.array([[0.6, 0.0]]))
        np.testing.assert_allclose(out, [[0.7 * 0.6]])

    def test_passthrough_mode_is_plain_product(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(-1, 1, (4, 5))
        layer = dense_layer(w, binarize=False)
        spikes = rng.uniform(0, 1, (3, 5))
        np.testing.assert_array_equal(forward(layer, spikes), matmul(spikes, w.T))

    def test_conv_kind_uses_conv2d(self):
        rng = np.random.default_rng(8)
        w = rng.uniform(-1, 1, (3, 2, 3, 3))
        layer = BinaryLayer(w_latent=w, alpha=np.ones(3), binarize=False,
                            kind=CONV, stride=1, padding=1)
        x = rng.uniform(0, 1, (2, 2, 5, 5))
        np.testing.assert_array_equal(forward(layer, x), conv2d(x, w, 1, 1))

    def test_dense_shape_error(self):
        layer = dense_layer(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            forward(layer, np.zeros((1, 4)))


class TestSteWeightGrad:
    def test_passes_inside_window(self):
        rng = np.random.default_rng(9)
        g = rng.normal(size=(3, 4))
        w = rng.uniform(-1, 1, (3, 4))
        np.testing.assert_array_equal(ste_weight_grad(g, w), g)

    def test_blocks_outside_window(self):
        g = np.ones((1, 2))
        w = np.array([[1.5, -2.0]])
        np.testing.assert_array_equal(ste_weight_grad(g, w), np.zeros((1, 2)))

    def test_boundary_inclusive(self):
        g = np.ones((1, 2))
        w = np.array([[1.0, -1.0]])
        np.testing.assert_array_equal(ste_weight_grad(g, w), g)

    def test_is_indicator_product(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            g = rng.normal(size=(4, 6))
            w = rng.uniform(-2, 2, (4, 6))
            np.testing.assert_array_equal(
                ste_weight_grad(g, w), g * (np.abs(w) <= 1.0)
            )


class TestAlphaGrad:
    def test_zero_spikes_zero_gradient(self):
        rng = np.random.default_rng(11)
        layer = dense_layer(rng.uniform(-1, 1, (3, 4)))
        g = alpha_grad(layer, rng.normal(size=(2, 3)), np.zeros((2, 4)))
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_single_neuron_chain_rule(self):
        # one output, sign row [+1], spike [o]: gradient is g * o.
        layer = dense_layer([[0.4]])
        g = alpha_grad(layer, np.array([[2.5]]), np.array([[0.6]]))
        np.testing.assert_allclose(g, [2.5 * 0.6])

    def test_matches_manual_sum(self):
        rng = np.random.default_rng(12)
        layer = dense_layer(rng.uniform(-1, 1, (3, 5)), alpha=rng.uniform(0.2, 2, 3))
        grad_u = rng.normal(size=(4, 3))
        spikes = rng.uniform(0, 1, (4, 5))
        unit = spikes @ binarize_weights(layer.w_latent).T
        np.testing.assert_allclose(
            alpha_grad(layer, grad_u, spikes), (grad_u * unit).sum(axis=0), atol=1e-12
        )


class TestClipLatent:
    def test_clamps_both_sides(self):
        layer = dense_layer([[1.7, -2.0, 0.3]])
        clip_latent(layer)
        np.testing.assert_array_equal(layer.w_latent, [[1.0, -1.0, 0.3]])

    def test_interior_fixpoint(self):
        rng = np.random.default_rng(13)
        w = rng.uniform(-1, 1, (2, 3))
        layer = dense_layer(w.copy())
        clip_latent(layer)
        np.testing.assert_array_equal(layer.w_latent, w)

    def test_requires_binarized(self):
        with pytest.raises(ModeError):
            clip_latent(dense_layer(np.zeros((1, 1)), binarize=False))


class TestLatentTransform:
    def test_surrogate_is_clipped_identity(self):
        w = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_array_equal(
            latent_transform(w, surrogate=True), [-1.0, -0.5, 0.0, 0.5, 1.0]
        )

    def test_default_is_sign(self):
        w = np.array([-2.0, 0.0, 0.3])
        np.testing.assert_array_equal(latent_transform(w), [-1.0, 1.0, 1.0])


class TestLayerValidation:
    def test_alpha_length_mismatch(self):
        with pytest.raises(DimensionError):
            BinaryLayer(w_latent=np.zeros((3, 2)), alpha=np.ones(2),
                        binarize=True, kind=DENSE)

    def test_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            dense_layer(np.zeros((1, 2)), alpha=[0.0])

    @pytest.mark.parametrize("alpha", [[np.inf], [np.nan], [1.0, np.inf], [np.nan, 1.0]])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            dense_layer(np.zeros((len(alpha), 2)), alpha=alpha)

    def test_kind_weight_rank_mismatch(self):
        with pytest.raises(DimensionError):
            BinaryLayer(w_latent=np.zeros((2, 2)), alpha=np.ones(2),
                        binarize=True, kind=CONV)
