"""Unrolled forward, loss, backward-through-time, and the optimizer."""

import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import fields

import numpy as np
import pytest

from reverb_snn import layers, training
from reverb_snn.datasets import bar_images, two_gaussians
from reverb_snn.errors import DimensionError, ModeError, StateError, TrainingError
from reverb_snn.layers import ALPHA_FLOOR, DENSE, BinaryLayer, binarize_weights
from reverb_snn.network import MODE_LEARNABLE, MODE_REVERB, Network, build_network
from reverb_snn.neuron import FireMode, NeuronParams
from reverb_snn.reparam import fold_alpha
from reverb_snn.training import (Gradients, SgdOptimizer, TrainConfig,
                                 aggregate_output, backward_stbp, ce_loss,
                                 ce_loss_grad, cosine_lr, forward_pass,
                                 gradient_check, sgd_step, train)


def single_layer_net(w, timesteps=1, tau=0.25, v_th=0.0):
    layer = BinaryLayer(w_latent=np.asarray(w, dtype=np.float64),
                        alpha=np.ones(len(w)), binarize=False, kind=DENSE)
    return Network(
        layers=[layer],
        neurons=[NeuronParams(tau=tau, v_th=v_th, mode=FireMode.REAL)],
        timesteps=timesteps,
        input_shape=(len(w[0]),),
    )


class TestForwardPass:
    def test_single_layer_t1_is_linear_map(self):
        # A one-layer network is all head: the non-firing integrator output
        # at T=1 is exactly W x.
        w = [[0.5, -0.25], [1.0, 2.0]]
        net = single_layer_net(w)
        x = np.array([[2.0, 4.0]])
        outputs, _ = forward_pass(net, x)
        np.testing.assert_allclose(outputs[0], x @ np.asarray(w).T)

    def test_silent_network_on_zero_input(self):
        net = build_network("d128 d128", (6,), 3, MODE_REVERB, timesteps=3, v_th=0.5, seed=0)
        outputs, cache = forward_pass(net, np.zeros((2, 6)))
        for t in range(3):
            np.testing.assert_array_equal(outputs[t], np.zeros((2, 3)))
            # hidden spikes (inputs of downstream layers) are all zero
            np.testing.assert_array_equal(cache.inputs[t][1], np.zeros_like(cache.inputs[t][1]))

    def test_deterministic_repeat(self):
        net = build_network("d128 d128", (6,), 3, MODE_LEARNABLE, timesteps=2, seed=1)
        x = np.random.default_rng(0).uniform(0, 1, (4, 6))
        o1, _ = forward_pass(net, x)
        o2, _ = forward_pass(net, x)
        for a, b in zip(o1, o2):
            np.testing.assert_array_equal(a, b)

    def test_input_shape_mismatch(self):
        net = build_network("d128 d128", (6,), 3, MODE_REVERB, timesteps=1, seed=0)
        with pytest.raises(DimensionError):
            forward_pass(net, np.zeros((2, 7)))


class TestAggregateOutput:
    def test_t1_identity(self):
        o = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(aggregate_output([o]), o)

    def test_mean_example(self):
        outs = [np.array([[2.0, 0.0]]), np.array([[0.0, 2.0]])]
        np.testing.assert_array_equal(aggregate_output(outs), [[1.0, 1.0]])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        outs = [rng.normal(size=(3, 4)) for _ in range(5)]
        a = aggregate_output(outs)
        b = aggregate_output(outs[::-1])
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            aggregate_output([])

    def test_scaling_linearity(self):
        rng = np.random.default_rng(3)
        outs = [rng.normal(size=(2, 3)) for _ in range(4)]
        base = aggregate_output(outs)
        scaled = aggregate_output([3.0 * o for o in outs])
        np.testing.assert_allclose(scaled, 3.0 * base, atol=1e-12)
        assert (scaled.argmax(axis=1) == base.argmax(axis=1)).all()


class TestCeLoss:
    def test_uniform_logits_give_log_c(self):
        for c in (2, 5, 10):
            o = np.zeros((3, c))
            assert ce_loss(o, np.zeros(3, dtype=int)) == pytest.approx(np.log(c))

    def test_confident_logit_drives_loss_to_zero(self):
        losses = []
        for mag in (1.0, 10.0, 100.0):
            o = np.array([[mag, 0.0]])
            losses.append(ce_loss(o, np.array([0])))
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-20

    def test_matches_log_sum_exp_oracle(self):
        rng = np.random.default_rng(4)
        o = rng.normal(size=(8, 5)) * 3
        y = rng.integers(0, 5, 8)
        want = np.mean([
            -o[i, y[i]] + np.log(np.sum(np.exp(o[i]))) for i in range(8)
        ])
        assert ce_loss(o, y) == pytest.approx(want, rel=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            ce_loss(np.zeros((2, 3)), np.array([0, 3]))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        o = rng.normal(size=(4, 3))
        y = rng.integers(0, 3, 4)
        g = ce_loss_grad(o, y)
        h = 1e-7
        for i in range(4):
            for j in range(3):
                op, om = o.copy(), o.copy()
                op[i, j] += h
                om[i, j] -= h
                fd = (ce_loss(op, y) - ce_loss(om, y)) / (2 * h)
                assert g[i, j] == pytest.approx(fd, abs=1e-6)


class TestBackwardStbp:
    def _toy_net(self, tau, T, seed=0):
        # Real encoder 5 -> 6, binarized learnable head 6 -> 3, built by hand
        # as single_layer_net is: no build_* function binarizes a head, and a
        # binarized head lets the T = 1 test read the STE and alpha rules
        # straight off the loss gradient.
        rng = np.random.default_rng(seed)
        w_enc = rng.uniform(-np.sqrt(3 / 5), np.sqrt(3 / 5), (6, 5))
        w_head = rng.uniform(-1, 1, (3, 6))
        layers = [
            BinaryLayer(w_latent=w_enc, alpha=np.ones(6), binarize=False, kind=DENSE),
            BinaryLayer(w_latent=w_head, alpha=np.abs(w_head).mean(axis=1),
                        binarize=True, kind=DENSE, learn_alpha=True),
        ]
        neurons = [NeuronParams(tau=tau, v_th=0.0, mode=FireMode.REAL) for _ in layers]
        return Network(layers, neurons, T, (5,))

    def test_tau_zero_equals_per_timestep_backprop(self):
        # With tau = 0 the temporal term vanishes: gradients equal the sum of
        # independent single-step backprops.
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, (4, 5))
        y = rng.integers(0, 3, 4)
        net = self._toy_net(tau=0.0, T=3)
        outputs, cache = forward_pass(net, x)
        o = aggregate_output(outputs)
        grads = backward_stbp(net, cache, ce_loss_grad(o, y))

        net1 = self._toy_net(tau=0.0, T=1)
        for l, layer in enumerate(net1.layers):
            layer.w_latent[:] = net.layers[l].w_latent
            layer.alpha[:] = net.layers[l].alpha
        total = [np.zeros_like(w) for w in grads.w]
        for _ in range(3):
            outs1, cache1 = forward_pass(net1, x)
            # reuse the T=3 aggregated loss gradient, scaled to one step
            g1 = backward_stbp(net1, cache1, ce_loss_grad(o, y) / 3)
            for l in range(len(total)):
                total[l] += g1.w[l]
        for l in range(len(total)):
            np.testing.assert_allclose(grads.w[l], total[l], atol=1e-12)

    def test_t1_reduces_to_single_step(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, (4, 5))
        y = rng.integers(0, 3, 4)
        net = self._toy_net(tau=0.25, T=1)
        outputs, cache = forward_pass(net, x)
        o = aggregate_output(outputs)
        grads = backward_stbp(net, cache, ce_loss_grad(o, y))
        assert all(np.isfinite(g).all() for g in grads.w)
        # single timestep: output is head membrane W_eff @ spikes; the head
        # weight gradient is the plain outer product rule.
        spikes_in = cache.inputs[0][1]
        g_head_eff = ce_loss_grad(o, y).T @ spikes_in
        head = net.layers[1]
        expect = head.alpha[:, None] * g_head_eff * (np.abs(head.w_latent) <= 1)
        np.testing.assert_allclose(grads.w[1], expect, atol=1e-12)
        # the amplitude's gradient is the per-channel sum of the effective
        # gradient against sign(W)
        expect_alpha = (g_head_eff * binarize_weights(head.w_latent)).sum(axis=1)
        np.testing.assert_allclose(grads.alpha[1], expect_alpha, atol=1e-12)

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, (2, 5))
        net = self._toy_net(tau=0.25, T=2)
        other = self._toy_net(tau=0.25, T=2, seed=9)
        _, cache = forward_pass(net, x)
        with pytest.raises(StateError):
            backward_stbp(other, cache, np.zeros((2, 3)))

    def test_timesteps_changed_after_forward_rejected(self):
        # T has one source, the network: a cache of 2 steps cannot be
        # backpropagated through a network that now runs 3.
        net = self._toy_net(tau=0.25, T=2)
        _, cache = forward_pass(net, np.random.default_rng(8).uniform(0, 1, (2, 5)))
        net.timesteps = 3
        with pytest.raises(StateError):
            backward_stbp(net, cache, np.zeros((2, 3)))

    def test_full_gradient_oracle_three_layer_with_middle_firing(self):
        # Analytic vs central differences on the clipped-identity surrogate
        # forward. Three layers, so a binarized *hidden* layer exercises the
        # firing gate and reset truncation in the backward pass; the second
        # shape is the gradcheck command's 6-4-4-4 network.
        for n_in, classes, hidden, seed, batch in ((5, 3, 6, 4, 4), (6, 4, 4, 3, 6)):
            net = build_network(f"d{hidden} d{hidden}", (n_in,), classes, MODE_LEARNABLE,
                                timesteps=2, seed=seed)
            rng = np.random.default_rng(seed)
            x = rng.uniform(0, 1, (batch, n_in))
            y = rng.integers(0, classes, batch)
            report = gradient_check(net, x, y)
            assert report.passed, f"seed {seed}: max rel err {report.max_rel}"

    def test_corrupted_gradient_detected(self, monkeypatch):
        net = build_network("d4 d4", (6,), 4, MODE_LEARNABLE, timesteps=2, seed=0)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (6, 6))
        y = rng.integers(0, 4, 6)
        backward = training.backward_stbp

        def corrupted(*args):
            grads = backward(*args)
            grads.w[0] *= 1.5
            return grads

        monkeypatch.setattr(training, "backward_stbp", corrupted)
        report = gradient_check(net, x, y)
        assert not report.passed

    def test_gradient_oracle_with_affine(self):
        net = build_network("d6 d6", (5,), 3, MODE_LEARNABLE, timesteps=2, seed=2, affine=True)
        rng = np.random.default_rng(2)
        net.layers[1].affine_gamma[:] = rng.uniform(0.5, 1.5, 6)
        net.layers[1].affine_beta[:] = rng.normal(0, 0.2, 6)
        x = rng.uniform(0, 1, (4, 5))
        y = rng.integers(0, 3, 4)
        report = gradient_check(net, x, y)
        assert report.passed, f"max rel err {report.max_rel}"
        assert report.max_rel_affine > 0.0  # the affine params were swept

    def test_gradient_oracle_positive_threshold_long_unroll(self):
        # v_th > 0 and T = 4 stress the reset-truncated temporal path.
        for seed in range(3):
            net = build_network("d6 d6", (5,), 3, MODE_LEARNABLE, timesteps=4, v_th=0.25,
                                seed=seed)
            rng = np.random.default_rng(seed)
            x = rng.uniform(0, 1, (4, 5))
            y = rng.integers(0, 3, 4)
            report = gradient_check(net, x, y)
            assert report.passed, f"seed {seed}: max rel err {report.max_rel}"

    def test_gradient_oracle_convnet(self):
        # Conv encoder and binarized conv middle layer: checks the conv
        # kernel and input gradients against finite differences.
        for seed in range(4):
            net = build_network("c2 c3s2", (1, 6, 6), 3, MODE_LEARNABLE, timesteps=2,
                                seed=seed)
            rng = np.random.default_rng(seed)
            x = rng.uniform(0, 1, (4, 1, 6, 6))
            y = rng.integers(0, 3, 4)
            report = gradient_check(net, x, y)
            assert report.checked + report.skipped == 156
            assert report.passed, f"seed {seed}: max rel err {report.max_rel}"


class TestSgdStep:
    def test_vanilla_step(self):
        p = np.array([1.0, 2.0])
        v = np.zeros(2)
        sgd_step([p], [np.array([0.5, -0.5])], [v], lr=1.0, momentum=0.0)
        np.testing.assert_array_equal(p, [0.5, 2.5])

    def test_zero_gradient_fixpoint_with_velocity_decay(self):
        p = np.array([1.0])
        v = np.array([2.0])
        sgd_step([p], [np.zeros(1)], [v], lr=0.0, momentum=0.5)
        np.testing.assert_array_equal(p, [1.0])
        np.testing.assert_array_equal(v, [1.0])

    def test_two_steps_match_hand_recurrence(self):
        p = np.array([0.0])
        v = np.zeros(1)
        g1, g2, lr, m = np.array([1.0]), np.array([2.0]), 0.1, 0.9
        sgd_step([p], [g1], [v], lr, m)
        sgd_step([p], [g2], [v], lr, m)
        # v1 = g1; p1 = -lr*g1; v2 = m*g1 + g2; p2 = p1 - lr*v2
        np.testing.assert_allclose(p, [-0.1 * 1.0 - 0.1 * (0.9 * 1.0 + 2.0)])


# Each Gradients field and the layer attribute it trains.
PARAM_ATTRS = {"w": "w_latent", "alpha": "alpha", "gamma": "affine_gamma", "beta": "affine_beta"}


class TestSgdOptimizer:
    def test_zeros_layout_follows_the_trained_parameters(self):
        net = build_network("d6 d6", (5,), 3, MODE_LEARNABLE, timesteps=1, seed=0, affine=True)
        g = Gradients.zeros(net)
        for name, attr in PARAM_ATTRS.items():
            # encoder and head train only w; the middle layer trains all four
            got = [None if a is None else a.shape for a in getattr(g, name)]
            want = [getattr(layer, attr).shape if name == "w" or l == 1 else None
                    for l, layer in enumerate(net.layers)]
            assert got == want, name
        assert all(not a.any() for per_layer in vars(g).values() for a in per_layer
                   if a is not None)

    @pytest.mark.parametrize("build", [
        lambda: build_network("d6 d6", (5,), 3, MODE_LEARNABLE, timesteps=1, seed=0,
                              affine=True),
        lambda: build_network("c2 c3s2", (1, 6, 6), 3, MODE_LEARNABLE, timesteps=1, seed=0,
                              affine=True),
    ], ids=["mlp", "convnet"])
    def test_momentum_across_steps_matches_hand_updates(self, build):
        # Three steps at momentum 0.9, each with its own fixed random
        # gradients: a velocity kept in another parameter's slot, or not
        # kept across steps, changes the result.
        net = build()
        rng = np.random.default_rng(0)
        steps = []
        for _ in range(3):
            g = Gradients.zeros(net)
            for per_layer in vars(g).values():
                for l, a in enumerate(per_layer):
                    if a is not None:
                        per_layer[l] = rng.normal(0.0, 1e-3, a.shape)
            steps.append(g)
        slots = [(name, l) for name, per_layer in vars(steps[0]).items()
                 for l, a in enumerate(per_layer) if a is not None]
        assert {name for name, _ in slots} == set(PARAM_ATTRS)
        lr, m = 0.05, 0.9
        hand = {}
        for name, l in slots:
            p = getattr(net.layers[l], PARAM_ATTRS[name]).copy()
            v = np.zeros_like(p)
            for g in steps:
                sgd_step([p], [getattr(g, name)[l]], [v], lr, m)
            hand[name, l] = p
        opt = SgdOptimizer(net, momentum=m)
        for g in steps:
            opt.step(net, g, lr)
        for (name, l), want in hand.items():
            layer = net.layers[l]
            if layer.binarize:  # the optimizer's clip and floor must not act
                assert np.abs(hand["w", l]).max() <= 1.0
                assert hand["alpha", l].min() >= ALPHA_FLOOR
            np.testing.assert_array_equal(getattr(layer, PARAM_ATTRS[name]), want,
                                          err_msg=f"{name} of layer {l}")


class TestCosineLr:
    def test_start_is_lr0(self):
        assert cosine_lr(0, 100, 0.1) == pytest.approx(0.1)

    def test_end_is_zero(self):
        assert cosine_lr(100, 100, 0.1) == pytest.approx(0.0, abs=1e-18)

    def test_midpoint_is_half(self):
        assert cosine_lr(50, 100, 0.1) == pytest.approx(0.05)

    def test_monotone_decreasing(self):
        vals = [cosine_lr(e, 40, 0.1) for e in range(41)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_epoch_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(5, 4, 0.1)


@pytest.mark.parametrize("kwargs, key", [
    ({"lr0": -0.1}, "lr0"), ({"lr0": np.inf}, "lr0"), ({"lr0": np.nan}, "lr0"),
    ({"momentum": 1.0}, "momentum"), ({"momentum": np.nan}, "momentum"),
    ({"epochs": -2}, "epochs"), ({"batch_size": 0}, "batch_size"), ({"seed": -1}, "seed"),
])
def test_train_config_rejects_out_of_range(kwargs, key):
    with pytest.raises(ValueError, match=f"^{key} must be"):
        TrainConfig(**kwargs)


class TestTrain:
    def test_zero_lr_leaves_network_unchanged(self):
        ds = two_gaussians(n_train=64, n_test=16, seed=0)
        net = build_network("d128 d128", ds.input_shape, 2, MODE_LEARNABLE, timesteps=2, seed=0)
        before = [l.w_latent.copy() for l in net.layers]
        net, _ = train(net, (ds.train_x, ds.train_y),
                       TrainConfig(epochs=1, lr0=0.0, seed=0))
        for b, layer in zip(before, net.layers):
            np.testing.assert_array_equal(b, layer.w_latent)

    def test_separable_toy_reaches_99(self):
        ds = two_gaussians(seed=0)
        net = build_network("d128 d128", ds.input_shape, 2, MODE_REVERB, timesteps=2, seed=0)
        net, metrics = train(net, (ds.train_x, ds.train_y),
                             TrainConfig(epochs=50, lr0=0.03, seed=0))
        assert metrics[-1]["acc"] >= 0.99

    def test_seed_repeatability_bit_identical(self):
        ds = two_gaussians(n_train=128, n_test=16, seed=1)
        final = []
        for _ in range(2):
            net = build_network("d128 d128", ds.input_shape, 2, MODE_LEARNABLE, timesteps=2, seed=7)
            net, _ = train(net, (ds.train_x, ds.train_y),
                           TrainConfig(epochs=3, lr0=0.03, seed=7))
            final.append([l.w_latent.copy() for l in net.layers])
        for a, b in zip(final[0], final[1]):
            np.testing.assert_array_equal(a, b)

    def test_loss_decreases_early_multiple_seeds(self):
        # Moving-average (window 3) of the loss is monotonically decreasing
        # over the first 10 epochs for 3 independent seeds.
        ds = two_gaussians(seed=2)
        for seed in (0, 1, 2):
            net = build_network("d128 d128", ds.input_shape, 2, MODE_LEARNABLE, timesteps=2,
                                seed=seed)
            net, metrics = train(net, (ds.train_x, ds.train_y),
                                 TrainConfig(epochs=10, lr0=0.03, seed=seed))
            losses = [m["loss"] for m in metrics]
            smooth = np.convolve(losses, np.ones(3) / 3, mode="valid")
            assert (np.diff(smooth) < 0).all()

    def test_divergence_raises_training_error(self):
        ds = two_gaussians(n_train=64, n_test=16, seed=3)
        net = build_network("d128 d128", ds.input_shape, 2, MODE_REVERB, timesteps=2, seed=3)
        net.layers[0].w_latent *= 1e308  # force immediate overflow
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError):
                train(net, (ds.train_x, ds.train_y), TrainConfig(epochs=1, seed=3))

    def test_folded_network_is_mode_error(self):
        # Training would move the folded {-1, +1} weights and unit amplitudes
        # off the inference form that the network still claims.
        ds = two_gaussians(n_train=64, n_test=16, seed=0)
        net = build_network("d8 d8", ds.input_shape, 2, MODE_LEARNABLE, timesteps=2, seed=0)
        folded = fold_alpha(net)
        before = [l.w_latent.copy() for l in folded.layers]
        with pytest.raises(ModeError, match="fold_alpha"):
            train(folded, (ds.train_x, ds.train_y), TrainConfig(epochs=1, seed=0))
        for b, layer in zip(before, folded.layers):
            np.testing.assert_array_equal(b, layer.w_latent)

    def test_empty_dataset_rejected(self):
        net = build_network("d128 d128", (4,), 2, MODE_REVERB, timesteps=1, seed=0)
        with pytest.raises(ValueError):
            train(net, (np.zeros((0, 4)), np.zeros(0, dtype=int)), TrainConfig(epochs=1))

    def test_optimizer_reimposes_layer_invariants(self):
        # A huge step may push latent weights outside [-1, 1] and the
        # amplitude below its floor; the optimizer restores both.
        net = build_network("d6 d6", (4,), 2, MODE_LEARNABLE, timesteps=1, seed=0)
        opt = SgdOptimizer(net, momentum=0.0)
        grads = Gradients(
            w=[np.full_like(l.w_latent, -100.0) for l in net.layers],
            alpha=[np.full_like(l.alpha, 100.0) if l.learn_alpha else None
                   for l in net.layers],
            gamma=[None] * len(net.layers),
            beta=[None] * len(net.layers),
        )
        opt.step(net, grads, lr=1.0)
        mid = net.layers[1]
        assert np.abs(mid.w_latent).max() <= 1.0
        assert mid.alpha.min() >= ALPHA_FLOOR


class InlineExecutor:
    """An executor that runs each task in the submitting thread, at submission."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def gradient_bytes(net, x, y) -> list:
    """The bytes of every array of backward_stbp's Gradients on the batch."""
    outputs, cache = forward_pass(net, x)
    grads = backward_stbp(net, cache, ce_loss_grad(aggregate_output(outputs), y))
    return [None if g is None else g.tobytes()
            for f in fields(grads) for g in getattr(grads, f.name)]


def _convnet_bars_batch(seed=0):
    """convnet-bars' network and a training batch of 64 bar images."""
    ds = bar_images(n_train=64, n_test=4, seed=seed)
    net = build_network("c8 c16s2", ds.input_shape, ds.num_classes, MODE_LEARNABLE,
                        timesteps=2, seed=seed)
    return net, ds.train_x, ds.train_y


class TestKernelGradWorker:
    """backward_stbp runs each conv layer's kernel gradient on a worker thread
    and joins the results in submission order (see the training docstring)."""

    def test_worker_moves_no_bit_at_convnet_bars_training_shapes(self, monkeypatch):
        net, x, y = _convnet_bars_batch()
        threaded = gradient_bytes(net, x, y)
        monkeypatch.setattr(training, "_worker", InlineExecutor)
        assert gradient_bytes(net, x, y) == threaded

    def test_kernel_grad_runs_off_the_calling_thread(self, monkeypatch):
        net, x, y = _convnet_bars_batch()
        kernel_grad, threads = training.conv2d_kernel_grad, []

        def recording(*args):
            threads.append(threading.current_thread())
            return kernel_grad(*args)
        monkeypatch.setattr(training, "conv2d_kernel_grad", recording)
        gradient_bytes(net, x, y)
        assert len(threads) == 4  # 2 conv layers x 2 timesteps
        assert threading.current_thread() not in threads

    @pytest.mark.parametrize("failing", [None, "kernel_grad", "alpha_grad"])
    def test_no_task_outlives_the_call(self, monkeypatch, failing):
        """Each task sleeps, so one still queued or running when backward_stbp
        returns or raises would be seen; the first task, or the calling
        thread's first alpha_grad, raises in the failing runs."""
        net, x, y = _convnet_bars_batch()
        error = RuntimeError("planted")
        kernel_grad, worker = training.conv2d_kernel_grad, training._worker()
        futures, calls = [], []

        class Recording:
            def submit(self, *args):
                futures.append(worker.submit(*args))
                return futures[-1]

        def slow_kernel_grad(*args):
            calls.append(args)
            time.sleep(0.02)
            if failing == "kernel_grad" and len(calls) == 1:
                raise error
            return kernel_grad(*args)

        def failing_alpha_grad(*args):
            raise error

        monkeypatch.setattr(training, "_worker", Recording)
        monkeypatch.setattr(training, "conv2d_kernel_grad", slow_kernel_grad)
        if failing == "alpha_grad":
            monkeypatch.setattr(layers, "alpha_grad", failing_alpha_grad)
        if failing is None:
            gradient_bytes(net, x, y)
        else:
            with pytest.raises(RuntimeError) as info:
                gradient_bytes(net, x, y)
            assert info.value is error
        assert futures and all(f.done() for f in futures)

    def test_failed_task_raises_and_training_goes_on(self, monkeypatch):
        net, x, y = _convnet_bars_batch()
        error = ValueError("planted")

        def failing(*args):
            raise error
        monkeypatch.setattr(training, "conv2d_kernel_grad", failing)
        with pytest.raises(ValueError) as info:
            train(net, (x, y), TrainConfig(epochs=1, batch_size=64, lr0=0.02, seed=0))
        assert info.value is error
        monkeypatch.undo()
        _, metrics = train(net, (x, y), TrainConfig(epochs=2, batch_size=32, lr0=0.02, seed=0))
        assert len(metrics) == 2 and all(np.isfinite(m["loss"]) for m in metrics)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_makes_its_own_worker(self):
        """A child forked after a backward pass inherits the executor but not
        its thread; its backward pass must not wait forever on a task."""
        net, x, y = _convnet_bars_batch()
        want = gradient_bytes(net, x, y)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if gradient_bytes(net, x, y) == want else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
            time.sleep(0.01)
        if not done[0]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] and os.waitstatus_to_exitcode(done[1]) == 0

    def test_import_starts_no_thread(self):
        check = ("import sys, threading; import reverb_snn; "
                 "assert threading.active_count() == 1, threading.enumerate(); "
                 "assert 'concurrent.futures' not in sys.modules")
        subprocess.run([sys.executable, "-c", check], check=True,
                       env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
