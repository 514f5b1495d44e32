"""Properties over random networks: the amplitude fold is exact for
power-of-two amplitudes, and checkpoints round-trip bit for bit."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from reverb_snn.checkpoint import load_checkpoint, save_checkpoint
from reverb_snn.network import MODE_LEARNABLE, MODES, build_convnet, build_mlp
from reverb_snn.reparam import fold_alpha
from reverb_snn.training import forward_pass

# tau and a nonzero v_th stay at or above 2**-10 and amplitudes within
# 2**-3..2**3, so no membrane, threshold or spike of a few timesteps of unit
# inputs comes near the subnormal or overflow range, where scaling by a power
# of two stops being exact.
TAUS = st.one_of(st.just(0.0), st.floats(2.0**-10, 1.0))
THRESHOLDS = st.one_of(st.just(0.0), st.floats(2.0**-10, 1.0))


@st.composite
def networks(draw, mode=st.sampled_from(MODES), amplitudes=st.integers(-3, 3)):
    """A random MLP or convnet; binarized layers get per-channel amplitudes
    2**k, and affine layers a random gamma and beta."""
    mode = draw(mode)
    common = dict(mode=mode, timesteps=draw(st.integers(1, 4)), tau=draw(TAUS),
                  v_th=draw(THRESHOLDS), seed=draw(st.integers(0, 2**16)),
                  affine=draw(st.booleans()))
    classes = draw(st.integers(2, 4))
    if draw(st.booleans()):
        net = build_mlp((draw(st.integers(1, 6)),), classes, hidden=draw(st.integers(1, 8)),
                        middle_layers=draw(st.integers(1, 2)), **common)
    else:
        shape = (draw(st.integers(1, 2)), draw(st.integers(3, 6)), draw(st.integers(3, 6)))
        channels = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        net = build_convnet(shape, classes, channels=channels, **common)
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
