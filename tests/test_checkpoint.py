"""Checkpoint round-trips and the 1-bit packed inference payload."""

import struct
import zlib

import numpy as np
import pytest

from reverb_snn.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from reverb_snn.errors import ParseError
from reverb_snn.layers import DENSE
from reverb_snn.network import (MODE_LEARNABLE, MODE_REVERB, MODE_VANILLA,
                                Network, build_network)
from reverb_snn.neuron import FireMode
from reverb_snn.reparam import fold_alpha, verify_equivalence


def assert_networks_bitwise_equal(a, b):
    assert a.timesteps == b.timesteps
    assert a.input_shape == b.input_shape
    assert a.num_classes == b.num_classes
    # The training mode is carried by the layers' flags, one pair per layer.
    assert [(la.binarize, la.learn_alpha) for la in a.layers] == \
           [(lb.binarize, lb.learn_alpha) for lb in b.layers]
    assert a.inference_form == b.inference_form
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la.w_latent, lb.w_latent)
        np.testing.assert_array_equal(la.alpha, lb.alpha)
        assert (la.binarize, la.kind, la.stride, la.padding, la.learn_alpha) == \
               (lb.binarize, lb.kind, lb.stride, lb.padding, lb.learn_alpha)
        if la.has_affine or lb.has_affine:
            np.testing.assert_array_equal(la.affine_gamma, lb.affine_gamma)
            np.testing.assert_array_equal(la.affine_beta, lb.affine_beta)
    for na, nb in zip(a.neurons, b.neurons):
        assert na.mode is nb.mode
        assert na.tau == nb.tau
        np.testing.assert_array_equal(np.atleast_1d(na.v_th), np.atleast_1d(nb.v_th))
        if na.scale is not None or nb.scale is not None:
            np.testing.assert_array_equal(na.scale, nb.scale)


@pytest.mark.parametrize("mode", [MODE_VANILLA, MODE_REVERB, MODE_LEARNABLE])
def test_trained_form_round_trip(tmp_path, mode):
    net = build_network("d128 d128", (9,), 3, mode, timesteps=2, seed=1)
    path = tmp_path / "net.rvrb"
    save_checkpoint(net, path)
    assert_networks_bitwise_equal(net, load_checkpoint(path))


@pytest.mark.parametrize("v_th", [0.0, 0.25])
def test_inference_form_round_trip(tmp_path, v_th):
    rng = np.random.default_rng(2)
    net = build_network("c8 c16s2", (1, 8, 8), 4, MODE_LEARNABLE, timesteps=2, v_th=v_th, seed=2)
    for layer in net.layers:
        if layer.binarize:
            layer.alpha[:] = rng.uniform(0.3, 1.7, layer.alpha.shape)
    folded = fold_alpha(net)
    path = tmp_path / "folded.rvrb"
    save_checkpoint(folded, path)
    loaded = load_checkpoint(path)
    assert_networks_bitwise_equal(folded, loaded)
    # the reloaded network is functionally identical to the original too
    probes = rng.uniform(0, 1, (10, 1, 8, 8))
    assert verify_equivalence(net, loaded, probes) <= 1e-9


def test_inference_payload_is_one_bit_packed(tmp_path):
    net = build_network("d24 d24", (16,), 2, MODE_REVERB, timesteps=2, seed=3)
    folded = fold_alpha(net)
    trained_path = tmp_path / "trained.rvrb"
    folded_path = tmp_path / "folded.rvrb"
    save_checkpoint(net, trained_path)
    save_checkpoint(folded, folded_path)
    mid = net.layers[1].w_latent.size
    # the folded file replaces mid*8 bytes of f64 with ceil(mid/8) packed bytes
    expected_saving = mid * 8 - (mid + 7) // 8
    actual_saving = trained_path.stat().st_size - folded_path.stat().st_size
    assert actual_saving == expected_saving


def test_inference_form_weights_are_sign_only(tmp_path):
    net = build_network("d10 d10", (8,), 2, MODE_LEARNABLE, timesteps=2, seed=4)
    folded = fold_alpha(net)
    path = tmp_path / "x.rvrb"
    save_checkpoint(folded, path)
    loaded = load_checkpoint(path)
    for layer in loaded.layers:
        if layer.binarize:
            assert set(np.unique(layer.w_latent)) <= {-1.0, 1.0}


def test_magic_bytes_present(tmp_path):
    net = build_network("d6 d6", (4,), 2, MODE_REVERB, timesteps=1, seed=0)
    path = tmp_path / "m.rvrb"
    save_checkpoint(net, path)
    assert path.read_bytes()[:4] == MAGIC


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.rvrb"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_truncated_file_reports_offset(tmp_path):
    net = build_network("d6 d6", (4,), 2, MODE_REVERB, timesteps=1, seed=0)
    path = tmp_path / "t.rvrb"
    save_checkpoint(net, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ParseError) as err:
        load_checkpoint(path)
    assert err.value.offset is not None


def test_trailing_garbage_rejected(tmp_path):
    net = build_network("d6 d6", (4,), 2, MODE_REVERB, timesteps=1, seed=0)
    path = tmp_path / "g.rvrb"
    save_checkpoint(net, path)
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(ParseError):
        load_checkpoint(path)


def _reseal(data) -> bytes:
    """`data` with its CRC-32 trailer recomputed over its edited body, so that
    the decoder's own rules see the edit."""
    body = bytes(data[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def test_trailer_is_crc32_of_the_rest(tmp_path):
    net = build_network("d6 d6", (4,), 2, MODE_REVERB, timesteps=1, seed=0)
    path = tmp_path / "c.rvrb"
    save_checkpoint(net, path)
    data = path.read_bytes()
    assert struct.unpack("<4sI", data[:8]) == (MAGIC, VERSION) and VERSION == 3
    assert data[-4:] == struct.pack("<I", zlib.crc32(data[:-4]))


def test_checksum_mismatch_is_parse_error(tmp_path):
    net = build_network("d6 d6", (4,), 2, MODE_REVERB, timesteps=1, seed=0)
    path = tmp_path / "c.rvrb"
    save_checkpoint(net, path)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x80
    path.write_bytes(bytes(data))
    with pytest.raises(ParseError, match="checksum mismatch") as err:
        load_checkpoint(path)
    assert err.value.offset == len(data) - 4


def test_version_1_file_is_unsupported(tmp_path):
    net = build_network("d6 d6", (4,), 2, MODE_REVERB, timesteps=1, seed=0)
    path = tmp_path / "v1.rvrb"
    save_checkpoint(net, path)
    # A version-1 file: the same fields without the trailer.
    data = bytearray(path.read_bytes()[:-4])
    data[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(data))
    with pytest.raises(ParseError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


def test_affine_round_trip(tmp_path):
    net = build_network("d8 d8", (6,), 2, MODE_LEARNABLE, timesteps=2, seed=5, affine=True)
    rng = np.random.default_rng(5)
    net.layers[1].affine_gamma[:] = rng.uniform(0.5, 2.0, 8)
    net.layers[1].affine_beta[:] = rng.normal(0, 0.1, 8)
    path = tmp_path / "aff.rvrb"
    save_checkpoint(net, path)
    assert_networks_bitwise_equal(net, load_checkpoint(path))


def test_mixed_tau_rejected(tmp_path):
    from reverb_snn.errors import StateError
    net = build_network("d6 d6", (4,), 2, MODE_REVERB, timesteps=1, seed=0)
    net.neurons[1].tau = 0.5  # format assumes a network-wide constant
    with pytest.raises(StateError):
        save_checkpoint(net, tmp_path / "x.rvrb")


def test_per_layer_threshold_rejected(tmp_path):
    # One stored v_th would silently reload every layer at the same threshold.
    from reverb_snn.errors import StateError
    net = build_network("d6 d6", (4,), 2, MODE_REVERB, timesteps=1)
    net.neurons[1].v_th = 0.5
    with pytest.raises(StateError):
        save_checkpoint(net, tmp_path / "x.rvrb")


def test_scaled_mode_preserved(tmp_path):
    rng = np.random.default_rng(6)
    net = build_network("d8 d8", (6,), 2, MODE_LEARNABLE, timesteps=2, v_th=0.25, seed=6)
    net.layers[1].alpha[:] = rng.uniform(0.4, 1.6, 8)
    folded = fold_alpha(net)
    path = tmp_path / "s.rvrb"
    save_checkpoint(folded, path)
    loaded = load_checkpoint(path)
    assert loaded.neurons[1].mode is FireMode.REAL
    assert loaded.neurons[1].scale is not None
    np.testing.assert_array_equal(loaded.neurons[1].scale, folded.neurons[1].scale)
    np.testing.assert_array_equal(
        np.atleast_1d(loaded.neurons[1].v_th), np.atleast_1d(folded.neurons[1].v_th)
    )


TINY = {
    "mlp": lambda: build_network("d2 d2", (2,), 2, MODE_LEARNABLE, timesteps=1, affine=True),
    "convnet": lambda: build_network("c1 c2s2", (1, 4, 4), 2, MODE_LEARNABLE, timesteps=1,
                                     affine=True),
}


def _single_bit_flips(arch, form, tmp_path):
    """The saved tiny checkpoint of `arch` in `form`, with each of its bits
    flipped in turn."""
    net = TINY[arch]()
    if form == "folded":
        net = fold_alpha(net)
        assert net.neurons[1].scale is not None
    path = tmp_path / "m.rvrb"
    save_checkpoint(net, path)
    data = path.read_bytes()
    for bit in range(8 * len(data)):
        corrupt = bytearray(data)
        corrupt[bit // 8] ^= 1 << (bit % 8)
        yield corrupt


@pytest.mark.parametrize("arch", TINY)
@pytest.mark.parametrize("form", ["trained", "folded"])
def test_every_single_bit_flip_raises_parse_error(tmp_path, form, arch):
    # The CRC-32 trailer catches a flip anywhere, the trailer included; the
    # magic and version fields are checked first and name themselves.
    flipped = tmp_path / "flipped.rvrb"
    for corrupt in _single_bit_flips(arch, form, tmp_path):
        flipped.write_bytes(bytes(corrupt))
        with pytest.raises(ParseError):
            load_checkpoint(flipped)


@pytest.mark.parametrize("arch", TINY)
@pytest.mark.parametrize("form", ["trained", "folded"])
def test_every_resealed_bit_flip_loads_or_raises_parse_error(tmp_path, form, arch):
    # Behind the trailer, a flip whose CRC is recomputed (a file written
    # wrong, not damaged later) reaches the decoder: corrupt headers, shapes,
    # strides, amplitudes, scales and thresholds must end in a ParseError,
    # never in another error; a network that loads must chain into a dense
    # head of num_classes outputs.
    flipped = tmp_path / "flipped.rvrb"
    for corrupt in _single_bit_flips(arch, form, tmp_path):
        flipped.write_bytes(_reseal(corrupt))
        try:
            with np.errstate(all="ignore"):
                loaded = load_checkpoint(flipped)
        except ParseError:
            continue
        assert isinstance(loaded, Network)
        assert loaded.layer_output_shapes()[-1] == (loaded.num_classes,)
        assert loaded.layers[-1].kind == DENSE


def test_version_2_file_is_unsupported(tmp_path):
    # Format 2 stored the training mode, the class count and each weight's
    # rank; format 3 derives them, and a format-2 file no longer loads.
    net = build_network("d2 d2", (2,), 2, MODE_REVERB, timesteps=1)
    path = tmp_path / "v2.rvrb"
    save_checkpoint(net, path)
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", 2)
    path.write_bytes(_reseal(data))
    with pytest.raises(ParseError, match="unsupported checkpoint version 2"):
        load_checkpoint(path)


@pytest.mark.parametrize("field,value", [("timesteps", 0), ("alpha", -1.0), ("tau", 2.0)])
def test_broken_invariant_is_parse_error(tmp_path, field, value):
    net = build_network("d2 d2", (2,), 2, MODE_LEARNABLE, timesteps=1)
    if field == "timesteps":
        net.timesteps = value
    elif field == "alpha":
        net.layers[1].alpha[0] = value
    else:
        for nrn in net.neurons:
            nrn.tau = value
    path = tmp_path / "b.rvrb"
    save_checkpoint(net, path)
    with pytest.raises(ParseError, match="corrupt checkpoint"):
        load_checkpoint(path)


def test_last_layer_not_dense_is_parse_error(tmp_path):
    # The head fixes the class count, so a file whose last layer is a conv
    # has none: a sealed file written from a network without its dense head.
    net = build_network("c2 c2", (1, 4, 4), 2, MODE_LEARNABLE, timesteps=1)
    del net.layers[-1], net.neurons[-1]
    path = tmp_path / "h.rvrb"
    save_checkpoint(net, path)
    with pytest.raises(ParseError, match="last layer must be a dense"):
        load_checkpoint(path)
