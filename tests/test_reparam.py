"""Amplitude folding and trained-vs-inference equivalence."""

import copy

import numpy as np
import pytest

from reverb_snn.errors import DimensionError
from reverb_snn.network import MODE_LEARNABLE, MODE_REVERB, build_network
from reverb_snn.neuron import FireMode
from reverb_snn.reparam import fold_alpha, verify_equivalence
from reverb_snn.training import aggregate_output, forward_pass


def learnable_net(arch, shape, v_th=0.0, seed=7, alpha_rng=None, timesteps=3):
    net = build_network(arch, shape, 4, MODE_LEARNABLE, timesteps=timesteps, v_th=v_th, seed=seed)
    if alpha_rng is not None:
        for layer in net.layers:
            if layer.binarize:
                layer.alpha[:] = alpha_rng.uniform(0.3, 1.8, layer.alpha.shape)
    return net


class TestFoldAlpha:
    def test_unit_alpha_fold_is_identity(self):
        net = build_network("d128 d128", (6,), 3, MODE_REVERB, timesteps=2, seed=0)
        folded = fold_alpha(net)
        assert folded.inference_form
        for orig, new in zip(net.layers, folded.layers):
            if orig.binarize:
                np.testing.assert_array_equal(
                    new.w_latent, np.where(orig.w_latent >= 0, 1.0, -1.0)
                )
            else:
                np.testing.assert_array_equal(new.w_latent, orig.w_latent)
        # alpha already 1: neurons untouched, no firing scale
        for nrn in folded.neurons:
            assert nrn.mode is FireMode.REAL and nrn.scale is None

    def test_single_hidden_alpha_half_hand_case(self):
        net = build_network("d3 d3", (4,), 2, MODE_LEARNABLE, timesteps=1, seed=1)
        mid = net.layers[1]
        mid.alpha[:] = 0.5
        folded = fold_alpha(net)
        fmid = folded.layers[1]
        np.testing.assert_array_equal(np.abs(fmid.w_latent), np.ones_like(fmid.w_latent))
        np.testing.assert_array_equal(fmid.alpha, np.ones(3))
        assert folded.neurons[1].mode is FireMode.REAL
        assert folded.neurons[1].scale is not None
        np.testing.assert_array_equal(folded.neurons[1].scale, [0.5, 0.5, 0.5])

    def test_refold_is_noop(self):
        rng = np.random.default_rng(2)
        net = learnable_net("d128 d128", (6,), alpha_rng=rng)
        folded = fold_alpha(net)
        refolded = fold_alpha(folded)
        for a, b in zip(folded.layers, refolded.layers):
            np.testing.assert_array_equal(a.w_latent, b.w_latent)
            np.testing.assert_array_equal(a.alpha, b.alpha)
        for a, b in zip(folded.neurons, refolded.neurons):
            assert a.mode is b.mode
            if a.scale is not None:
                np.testing.assert_array_equal(a.scale, b.scale)

    def test_post_fold_weight_purity(self):
        rng = np.random.default_rng(3)
        for arch, shape in (("d128 d128", (6,)), ("c8 c16s2", (1, 8, 8))):
            folded = fold_alpha(learnable_net(arch, shape, alpha_rng=rng))
            for layer in folded.layers:
                if layer.binarize:
                    assert set(np.unique(layer.w_latent)) <= {-1.0, 1.0}

    def test_original_network_untouched(self):
        rng = np.random.default_rng(4)
        net = learnable_net("d128 d128", (6,), alpha_rng=rng)
        w_before = [l.w_latent.copy() for l in net.layers]
        a_before = [l.alpha.copy() for l in net.layers]
        fold_alpha(net)
        for l, layer in enumerate(net.layers):
            np.testing.assert_array_equal(layer.w_latent, w_before[l])
            np.testing.assert_array_equal(layer.alpha, a_before[l])


class TestVerifyEquivalence:
    def test_zero_probes_silent_at_positive_threshold(self):
        net = learnable_net("d128 d128", (6,), v_th=0.5, seed=5,
                            alpha_rng=np.random.default_rng(5))
        folded = fold_alpha(net)
        probes = np.zeros((4, 6))
        assert verify_equivalence(net, folded, probes) == 0.0

    @pytest.mark.parametrize("arch,shape", [
        ("d128 d128", (6,)), ("c8 c16s2", (1, 8, 8)),
    ])
    @pytest.mark.parametrize("v_th", [0.0, 0.25])
    def test_equivalence_within_1e9_both_thresholds(self, arch, shape, v_th):
        rng = np.random.default_rng(6)
        net = learnable_net(arch, shape, v_th=v_th, alpha_rng=rng)
        folded = fold_alpha(net)
        probes = rng.uniform(0, 1, (50,) + tuple(shape))
        assert verify_equivalence(net, folded, probes) <= 1e-9

    def test_perturbed_scale_detected(self):
        # Negative control: nudging one folded scale must produce a nonzero
        # difference, proving the check's sensitivity.
        rng = np.random.default_rng(7)
        net = learnable_net("d128 d128", (6,), alpha_rng=rng)
        folded = fold_alpha(net)
        folded.neurons[1].scale[0] += 1e-3
        probes = rng.uniform(0, 1, (50, 6))
        assert verify_equivalence(net, folded, probes) > 0.0

    @pytest.mark.parametrize("arch,shape", [
        ("d128 d128", (6,)), ("c8 c16s2", (1, 8, 8)),
    ])
    def test_bitwise_equal_with_power_of_two_alphas_at_zero_threshold(self, arch, shape):
        rng = np.random.default_rng(8)
        net = build_network(arch, shape, 3, MODE_LEARNABLE, timesteps=3, v_th=0.0, seed=8)
        for layer in net.layers:
            if layer.binarize:
                layer.alpha[:] = rng.choice([0.25, 0.5, 1.0, 2.0, 4.0],
                                            layer.alpha.shape)
        folded = fold_alpha(net)
        probes = rng.uniform(0, 1, (30,) + tuple(shape))
        a = aggregate_output(forward_pass(net, probes)[0])
        b = aggregate_output(forward_pass(folded, probes)[0])
        np.testing.assert_array_equal(a, b)

    def test_probe_shape_mismatch(self):
        net = build_network("d128 d128", (6,), 3, MODE_REVERB, timesteps=1, seed=0)
        with pytest.raises(DimensionError):
            verify_equivalence(net, fold_alpha(net), np.zeros((2, 7)))

    def test_equivalence_with_affine_layer(self):
        # The affine shift must be rescaled with the membrane when the
        # amplitude is folded out; checked at a positive threshold where the
        # gate would expose any mismatch.
        rng = np.random.default_rng(9)
        net = build_network("d10 d10", (6,), 3, MODE_LEARNABLE, timesteps=3, v_th=0.25,
                            seed=9, affine=True)
        net.layers[1].alpha[:] = rng.uniform(0.4, 1.6, 10)
        net.layers[1].affine_gamma[:] = rng.uniform(0.5, 1.5, 10)
        net.layers[1].affine_beta[:] = rng.normal(0, 0.2, 10)
        folded = fold_alpha(net)
        probes = rng.uniform(0, 1, (40, 6))
        assert verify_equivalence(net, folded, probes) <= 1e-9
