"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import numpy as np
import pytest

from reverb_snn import events, numerics
from reverb_snn.datasets import rings
from reverb_snn.events import (OpCounter, addition_only_forward,
                               estimate_energy, events_from_spikes)
from reverb_snn.layers import CONV, DENSE, BinaryLayer, binarize_weights
from reverb_snn.network import (MODE_LEARNABLE, MODE_REVERB, MODE_VANILLA,
                                build_network)
from reverb_snn.neuron import FireMode, NeuronParams, fire_real
from reverb_snn.numerics import conv2d, matmul
from reverb_snn.reparam import fold_alpha, verify_equivalence
from reverb_snn.training import (TrainConfig, aggregate_output, cosine_lr,
                                 forward_pass, gradient_check, train)
from reverb_snn.checkpoint import load_checkpoint, save_checkpoint


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_energy_table_reproduction():
    vanilla = estimate_energy(3.54e6, 71.20e6).energy_joules * 1e6
    reverb = estimate_energy(3.54e6, 74.50e6).energy_joules * 1e6
    ok = abs(vanilla - 49.73) <= 0.01 and abs(reverb - 49.99) <= 0.01
    _report(1, ok, f"energy rows {vanilla:.4f} uJ (want 49.73 +/- 0.01), "
                   f"{reverb:.4f} uJ (want 49.99 +/- 0.01)")


def test_criterion_2_reparameterization_equivalence():
    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        for arch, shape in (("d24 d24", (12,)), ("c8 c16s2", (1, 8, 8))):
            for v_th in (0.0, 0.25):
                net = build_network(arch, shape, 3, MODE_LEARNABLE, timesteps=3,
                                    v_th=v_th, seed=seed)
                for layer in net.layers:
                    if layer.binarize:
                        layer.alpha[:] = rng.uniform(0.3, 1.8, layer.alpha.shape)
                folded = fold_alpha(net)
                probes = rng.uniform(0, 1, (100,) + tuple(shape))
                worst = max(worst, verify_equivalence(net, folded, probes))
    ok = worst <= 1e-9

    # dyadic (power-of-two) amplitudes at v_th = 0: bitwise equality
    rng = np.random.default_rng(99)
    net = build_network("d24 d24", (12,), 3, MODE_LEARNABLE, timesteps=3, v_th=0.0, seed=99)
    for layer in net.layers:
        if layer.binarize:
            layer.alpha[:] = rng.choice([0.25, 0.5, 1.0, 2.0, 4.0], layer.alpha.shape)
    folded = fold_alpha(net)
    probes = rng.uniform(0, 1, (100, 12))
    a = aggregate_output(forward_pass(net, probes)[0])
    b = aggregate_output(forward_pass(folded, probes)[0])
    bitwise = np.array_equal(a, b)
    _report(2, ok and bitwise,
            f"max relative output difference {worst:.3e} (limit 1e-9) over "
            f"3 seeds x 2 architectures x v_th in {{0, 0.25}}; "
            f"dyadic bitwise equality: {bitwise}")


def test_criterion_3_gradient_oracle():
    worst = 0.0
    for seed in (0, 1, 2):
        # 6-4-4-4: 12 neurons, T = 2, one binarized firing middle layer
        net = build_network("d4 d4", (6,), 4, MODE_LEARNABLE, timesteps=2, seed=seed)
        rng = np.random.default_rng(seed)
        batch = rng.uniform(0, 1, (8, 6))
        labels = rng.integers(0, 4, 8)
        report = gradient_check(net, batch, labels)
        worst = max(worst, report.max_rel)
    ok = worst <= 1e-3
    _report(3, ok, f"max relative gradient error {worst:.3e} (limit 1e-3) "
                   f"for latent weights and amplitudes")


def _criterion_4_check() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    counter = OpCounter()

    dense = BinaryLayer(w_latent=binarize_weights(rng.uniform(-1, 1, (16, 40))),
                        alpha=np.ones(16), binarize=True, kind=DENSE)
    dense_ok = True
    for _ in range(1000):
        spikes = rng.uniform(-1, 1, 40) * (rng.uniform(0, 1, 40) < 0.3)
        out = addition_only_forward(dense, events_from_spikes(spikes), counter=counter)
        ref = matmul(spikes[None, :], dense.w_latent.T)[0]
        dense_ok &= np.array_equal(out, ref)

    conv = BinaryLayer(w_latent=binarize_weights(rng.uniform(-1, 1, (4, 3, 3, 3))),
                       alpha=np.ones(4), binarize=True, kind=CONV, stride=2, padding=1)
    conv_ok = True
    for _ in range(200):
        spikes = rng.uniform(-1, 1, (3, 7, 7)) * (rng.uniform(0, 1, (3, 7, 7)) < 0.25)
        out = addition_only_forward(conv, events_from_spikes(spikes),
                                    input_shape=spikes.shape, counter=counter)
        conv_ok &= np.array_equal(out, conv2d(spikes, conv.w_latent, 2, 1))

    ok = dense_ok and conv_ok and counter.weight_activation_mults == 0
    return ok, (f"bitwise equality on 1000 dense + 200 conv sparse inputs: "
                f"{dense_ok and conv_ok}; weight-activation multiplies: "
                f"{counter.weight_activation_mults} (must be 0); "
                f"accumulations: {counter.accumulations}")


def test_criterion_4_addition_only_kernel():
    _report(4, *_criterion_4_check())


def test_criterion_4_fails_on_a_multiplying_kernel(monkeypatch):
    # The same kernel on the reduction's multiply path: x * (+-1) is exact,
    # so only the multiply count can tell, and the check must fail on it.
    monkeypatch.setattr(events, "_accumulate",
                        lambda *args, signed, **kw: numerics._accumulate(*args, **kw))
    ok, detail = _criterion_4_check()
    assert not ok and "sparse inputs: True;" in detail


ABLATION = dict(arch="d16 d16 d16", epochs=100, lr0=0.03, batch=64)


def _train_mode(mode, T, seed):
    ds = rings(seed=seed)
    net = build_network(ABLATION["arch"], ds.input_shape, ds.num_classes, mode,
                        timesteps=T, seed=seed)
    cfg = TrainConfig(epochs=ABLATION["epochs"], batch_size=ABLATION["batch"],
                      lr0=ABLATION["lr0"], momentum=0.9, seed=seed)
    net, metrics = train(net, (ds.train_x, ds.train_y), cfg)
    return net, metrics[-1]["acc"]


@pytest.mark.slow
def test_criterion_5_directional_ablation():
    lines = []
    ordered = {2: 0, 4: 0}
    for T in (2, 4):
        for seed in (0, 1, 2):
            accs = {}
            for mode in (MODE_VANILLA, MODE_REVERB, MODE_LEARNABLE):
                _, accs[mode] = _train_mode(mode, T, seed)
            ok = (accs[MODE_LEARNABLE] >= accs[MODE_REVERB] >= accs[MODE_VANILLA])
            ordered[T] += ok
            lines.append(
                f"T={T} seed={seed}: vanilla={accs[MODE_VANILLA]:.4f} "
                f"reverb={accs[MODE_REVERB]:.4f} "
                f"learnable={accs[MODE_LEARNABLE]:.4f} ordered={ok}"
            )
    for line in lines:
        print("  " + line)
    ok = ordered[2] >= 2 and ordered[4] >= 2
    _report(5, ok, f"ordering reverb-learnable >= reverb >= vanilla held for "
                   f"{ordered[2]}/3 seeds at T=2 and {ordered[4]}/3 seeds at T=4 "
                   f"(majority required)")


def test_criterion_6_firing_reset_invariant_suite():
    checks = {}

    real = NeuronParams(v_th=0.5, mode=FireMode.REAL)
    spikes, state = fire_real(np.array([0.5]), real)
    checks["threshold inclusive"] = spikes[0] == 0.5

    checks["hard reset to zero"] = state[0] == 0.0
    spikes2, _ = fire_real(state, real)
    checks["no respike after reset"] = spikes2[0] == 0.0

    rng = np.random.default_rng(0)
    sub = rng.uniform(-1, -1e-9, 64)
    silent, _ = fire_real(sub, NeuronParams(v_th=0.0, mode=FireMode.REAL))
    w = rng.uniform(-1, 1, (8, 64))
    checks["event-driven zero contribution"] = np.array_equal(w @ silent, np.zeros(8))

    w0 = rng.uniform(-2, 2, (5, 9))
    checks["binarize idempotence"] = np.array_equal(
        binarize_weights(binarize_weights(w0)), binarize_weights(w0)
    )
    checks["sign scale invariance"] = all(
        np.array_equal(binarize_weights(c * w0), binarize_weights(w0))
        for c in (0.1, 1.0, 42.0)
    )

    checks["cosine lr endpoints"] = (
        cosine_lr(0, 60, 0.1) == pytest.approx(0.1)
        and cosine_lr(60, 60, 0.1) == pytest.approx(0.0, abs=1e-18)
    )

    bad = [name for name, ok in checks.items() if not ok]
    _report(6, not bad, f"{len(checks)} invariants checked"
                        + (f"; failed: {bad}" if bad else ""))


def test_criterion_7_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    net = build_network("d12 d12", (10,), 3, MODE_LEARNABLE, timesteps=2, v_th=0.25,
                        seed=3)
    for layer in net.layers:
        if layer.binarize:
            layer.alpha[:] = rng.uniform(0.4, 1.6, layer.alpha.shape)

    trained_path = tmp_path / "trained.rvrb"
    save_checkpoint(net, trained_path)
    reloaded = load_checkpoint(trained_path)
    trained_ok = all(
        np.array_equal(a.w_latent, b.w_latent) and np.array_equal(a.alpha, b.alpha)
        for a, b in zip(net.layers, reloaded.layers)
    )
    trained_bytes_ok = True
    save_checkpoint(reloaded, tmp_path / "trained2.rvrb")
    trained_bytes_ok = (tmp_path / "trained2.rvrb").read_bytes() == trained_path.read_bytes()

    folded = fold_alpha(net)
    folded_path = tmp_path / "folded.rvrb"
    save_checkpoint(folded, folded_path)
    refolded = load_checkpoint(folded_path)
    folded_ok = all(
        np.array_equal(a.w_latent, b.w_latent)
        for a, b in zip(folded.layers, refolded.layers)
    )
    purity_ok = all(
        set(np.unique(l.w_latent)) <= {-1.0, 1.0}
        for l in refolded.layers if l.binarize
    )
    # 1-bit packing: the folded middle layer payload shrinks from 8 bytes per
    # weight to 1 bit per weight, minus the per-channel firing-scale vectors
    # the folded form carries instead of the amplitudes.
    n_mid = sum(l.w_latent.size for l in net.layers if l.binarize)
    scale_bytes = sum(8 * n.scale.size for n in folded.neurons if n.scale is not None)
    saving = trained_path.stat().st_size - folded_path.stat().st_size
    packing_ok = saving == n_mid * 8 - (n_mid + 7) // 8 - scale_bytes

    ok = trained_ok and trained_bytes_ok and folded_ok and purity_ok and packing_ok
    _report(7, ok, f"bitwise round-trip trained={trained_ok and trained_bytes_ok}, "
                   f"inference={folded_ok}, payload pure +/-1={purity_ok}, "
                   f"1-bit packed={packing_ok}")
