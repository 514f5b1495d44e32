"""Properties over random networks built from random small layer specs: the
amplitude fold is exact for power-of-two amplitudes, checkpoints round-trip
bit for bit, the event path equals the dense path bit for bit and in its SOP
count, and the backward pass matches finite differences."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from reverb_snn.checkpoint import load_checkpoint, save_checkpoint
from reverb_snn.errors import DimensionError
from reverb_snn.events import evaluate_dense, evaluate_event_driven, event_forward
from reverb_snn.network import MODE_LEARNABLE, MODE_REVERB, MODES, build_network
from reverb_snn.reparam import fold_alpha
from reverb_snn.training import forward_pass, gradient_check
from test_events import _sop_oracle

# tau and a nonzero v_th stay at or above 2**-10 and amplitudes within
# 2**-3..2**3, so no membrane, threshold or spike of a few timesteps of unit
# inputs comes near the subnormal or overflow range, where scaling by a power
# of two stops being exact.
TAUS = st.one_of(st.just(0.0), st.floats(2.0**-10, 1.0))
THRESHOLDS = st.one_of(st.just(0.0), st.floats(2.0**-10, 1.0))


def _map_empties(convs, shape) -> bool:
    """Whether a chain of 3x3 convs, given as (stride, padding), shrinks the
    (C, H, W) map `shape` to nothing."""
    h, w = shape[1:]
    for stride, padding in convs:
        if min(h, w) + 2 * padding < 3:
            return True
        h, w = ((n + 2 * padding - 3) // stride + 1 for n in (h, w))
    return False


@st.composite
def specs(draw, max_side=6):
    """1-3 hidden tokens, convs before dense layers, widths 1-3, stride 1 or 2
    and padding 0 or 1 (each sometimes left to its default), with an input
    shape: (C, H, W) under a conv, else flat. Also whether a conv empties the
    map."""
    n = draw(st.integers(1, 3))
    convs = [(draw(st.integers(1, 2)), draw(st.integers(0, 1)))
             for _ in range(draw(st.integers(0, n)))]
    widths = st.integers(1, 3)
    tokens = [f"c{draw(widths)}" + draw(st.sampled_from(["", "s1"] if s == 1 else ["s2"]))
              + draw(st.sampled_from(["", "p1"] if p == 1 else ["p0"])) for s, p in convs]
    tokens += [f"d{draw(widths)}" for _ in range(n - len(convs))]
    sides = st.integers(1, max_side)
    shape = ((draw(st.integers(1, 2)), draw(sides), draw(sides)) if convs
             else (draw(st.integers(1, 6)),))
    return " ".join(tokens), shape, bool(convs) and _map_empties(convs, shape)


@st.composite
def networks(draw, mode=st.sampled_from(MODES), amplitudes=st.integers(-3, 3),
             spec=specs()):
    """A network from a random spec; binarized layers get per-channel
    amplitudes 2**k, and affine layers a random gamma and beta. A spec whose
    conv empties the map must be a DimensionError."""
    arch, shape, empties = draw(spec)
    args = (arch, shape, draw(st.integers(2, 4)), draw(mode), draw(st.integers(1, 4)),
            draw(TAUS), draw(THRESHOLDS), draw(st.integers(0, 2**16)), draw(st.booleans()))
    if empties:
        with pytest.raises(DimensionError):
            build_network(*args)
        reject()
    net = build_network(*args)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    for layer in net.layers:
        if layer.binarize and layer.learn_alpha:
            k = [draw(amplitudes) for _ in range(layer.out_channels)]
            layer.alpha[:] = np.exp2(k)
        if layer.has_affine:
            layer.affine_gamma[:] = rng.uniform(0.5, 1.5, layer.out_channels)
            layer.affine_beta[:] = rng.normal(0.0, 0.2, layer.out_channels)
    return net, rng.uniform(0.0, 1.0, (4,) + net.input_shape)


def _outputs(net, probes) -> bytes:
    return np.stack(forward_pass(net, probes)[0]).tobytes()


@given(networks(mode=st.just(MODE_LEARNABLE)))
def test_fold_is_bitwise_exact_for_power_of_two_amplitudes(case):
    net, probes = case
    assert _outputs(fold_alpha(net), probes) == _outputs(net, probes)


@given(networks(amplitudes=st.floats(-3.0, 3.0)), st.booleans())
def test_checkpoint_round_trip_is_bitwise(case, folded):
    net, probes = case
    if folded:
        net = fold_alpha(net)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.rvrb", Path(tmp) / "b.rvrb"
        save_checkpoint(net, first)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded, second)
        assert second.read_bytes() == first.read_bytes()
    assert _outputs(loaded, probes) == _outputs(net, probes)


@settings(max_examples=30)
@given(networks(amplitudes=st.floats(-3.0, 3.0)))
def test_folded_event_logits_bitwise_equal_forward_pass(case):
    net, probes = case
    folded = fold_alpha(net)
    dense = np.stack(forward_pass(folded, probes)[0])
    event = np.stack([event_forward(folded, x) for x in probes], axis=1)
    assert event.tobytes() == dense.tobytes()


@settings(max_examples=30)
@given(networks(amplitudes=st.floats(-3.0, 3.0)))
def test_dense_and_event_sops_equal_the_loop_oracle(case):
    net, probes = case
    folded = fold_alpha(net)
    labels = np.arange(len(probes)) % net.num_classes
    _, dense = evaluate_dense(folded, probes, labels)
    _, event, _ = evaluate_event_driven(folded, probes, labels)
    assert dense.sops == event.sops == _sop_oracle(folded, probes)


# Vanilla's binary spike is a step, which finite differences cannot follow.
@settings(max_examples=20)
@given(networks(mode=st.sampled_from([MODE_REVERB, MODE_LEARNABLE]), spec=specs(max_side=3)))
def test_gradient_check_on_nets_of_at_most_12_neurons(case):
    net, probes = case
    assume(sum(math.prod(shape) for shape in net.layer_output_shapes()) <= 12)
    report = gradient_check(net, probes, np.arange(len(probes)) % net.num_classes)
    assert report.passed, f"max rel err {report.max_rel}"
