"""Binary checkpoint format.

Layout (all multi-byte integers little-endian, reals 64-bit IEEE-754):

    magic           4s   "RVRB"
    version         u32  (currently 2)
    form            u8   0 = trained, 1 = inference (amplitude-folded)
    mode            u8   0 = vanilla, 1 = reverb, 2 = reverb-learnable
    timesteps       u32
    tau             f64
    v_th            f64  base threshold (folded layers gate at v_th / scale)
    input ndim      u8, then u32 per axis
    num_classes     u32
    layer count     u32
    per layer:
      kind, binarize, learn_alpha, has_affine, neuron_mode   5 x u8
      stride, padding                                        2 x u32
      weight ndim   u8, then u32 per axis
      weights: trained form or real-weight layer -> raw f64;
               inference-form binarized layer    -> 1 bit per weight,
               LSB-first within each byte over row-major order, bit 1 => +1
      alpha         f64 per output channel
      gamma, beta   f64 per output channel (only when has_affine)
      scale         f64 per output channel (only when neuron_mode = scaled)
    crc32           u32  zlib.crc32 of every byte before it

A file whose trailer is not the CRC-32 of the rest is a ParseError before any
field past the version is used; CRC-32 detects every single-bit error and
every burst of up to 32 bits. Round-trips are bitwise lossless: reals are
stored raw and inference-form binarized weights are exactly +/-1, which the
sign bit reproduces.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import DimensionError, ParseError, StateError
from .layers import CONV, DENSE, BinaryLayer
from .network import MODES, Network
from .neuron import FireMode, NeuronParams

MAGIC = b"RVRB"
VERSION = 2
_CRC = struct.Struct("<I")

_KINDS = (DENSE, CONV)
_FIRE_MODES = (FireMode.BINARY, FireMode.REAL, FireMode.SCALED_REAL)


def save_checkpoint(net: Network, path) -> None:
    buf = bytearray()
    tau, v_th = net.neurons[0].tau, net.neurons[0].v_th
    if any((nrn.tau, nrn.v_th) != (tau, v_th) for nrn in net.neurons):
        raise StateError("checkpoint format requires a network-wide tau and v_th")
    buf += struct.pack("<4sIBBIdd", MAGIC, VERSION, int(net.inference_form),
                       MODES.index(net.mode), net.timesteps, tau, v_th)
    buf += struct.pack("<B", len(net.input_shape))
    buf += struct.pack(f"<{len(net.input_shape)}I", *net.input_shape)
    buf += struct.pack("<II", net.num_classes, len(net.layers))
    for layer, nrn in zip(net.layers, net.neurons):
        buf += struct.pack(
            "<5B2I",
            _KINDS.index(layer.kind),
            int(layer.binarize),
            int(layer.learn_alpha),
            int(layer.has_affine),
            _FIRE_MODES.index(nrn.mode),
            layer.stride,
            layer.padding,
        )
        w = layer.w_latent
        buf += struct.pack("<B", w.ndim)
        buf += struct.pack(f"<{w.ndim}I", *w.shape)
        if net.inference_form and layer.binarize:
            if not (np.abs(w) == 1.0).all():
                raise StateError("inference-form binarized weights must be exactly +/-1")
            bits = (w.reshape(-1) > 0).astype(np.uint8)
            buf += np.packbits(bits, bitorder="little").tobytes()
        else:
            buf += w.tobytes()
        buf += layer.alpha.tobytes()
        if layer.has_affine:
            buf += layer.affine_gamma.tobytes()
            buf += layer.affine_beta.tobytes()
        if nrn.mode is FireMode.SCALED_REAL:
            buf += nrn.scale.tobytes()
    buf += _CRC.pack(zlib.crc32(buf))
    Path(path).write_bytes(bytes(buf))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ParseError(
                f"unexpected end of checkpoint: needed {n} bytes", offset=self.pos
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def f64(self, count: int) -> np.ndarray:
        raw = self.take(8 * count)
        return np.frombuffer(raw, dtype="<f8", count=count).astype(np.float64)


def load_checkpoint(path) -> Network:
    data = Path(path).read_bytes()
    r = _Reader(data[: -_CRC.size])
    try:
        net = _decode(r, data[-_CRC.size :])
        if net.layer_output_shapes()[-1:] != [(net.num_classes,)]:  # chain into the head
            raise ValueError(f"num_classes {net.num_classes} is not the head's output count")
    except (ValueError, DimensionError) as exc:  # a decoded value broke an invariant
        raise ParseError(f"corrupt checkpoint: {exc}", offset=r.pos) from exc
    return net


def _decode(r: _Reader, crc: bytes) -> Network:
    magic, version, form, mode_id, timesteps, tau, v_th = r.unpack("4sIBBIdd")
    if magic != MAGIC:
        raise ParseError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != VERSION:
        raise ParseError(f"unsupported checkpoint version {version}", offset=4)
    if crc != _CRC.pack(zlib.crc32(r.data)):
        raise ParseError("checksum mismatch: corrupt checkpoint", offset=len(r.data))
    if mode_id >= len(MODES):
        raise ParseError(f"unknown mode id {mode_id}", offset=9)
    (in_ndim,) = r.unpack("B")
    input_shape = tuple(r.unpack(f"{in_ndim}I"))
    num_classes, n_layers = r.unpack("II")

    layers: list[BinaryLayer] = []
    neurons: list[NeuronParams] = []
    for _ in range(n_layers):
        kind_id, binarize, learn_alpha, has_affine, fire_id, stride, padding = r.unpack("5B2I")
        if kind_id >= len(_KINDS) or fire_id >= len(_FIRE_MODES):
            raise ParseError("corrupt layer header", offset=r.pos)
        (w_ndim,) = r.unpack("B")
        if w_ndim == 0:
            raise ParseError("layer weights have no axes", offset=r.pos - 1)
        w_shape = tuple(r.unpack(f"{w_ndim}I"))
        n_weights = math.prod(w_shape)
        if form and binarize:
            packed = np.frombuffer(r.take((n_weights + 7) // 8), dtype=np.uint8)
            bits = np.unpackbits(packed, count=n_weights, bitorder="little")
            w = np.where(bits == 1, 1.0, -1.0).reshape(w_shape)
        else:
            w = r.f64(n_weights).reshape(w_shape)
        out_channels = w_shape[0]
        alpha = r.f64(out_channels)
        layer = BinaryLayer(
            w_latent=w, alpha=alpha, binarize=bool(binarize), kind=_KINDS[kind_id],
            stride=stride, padding=padding, learn_alpha=bool(learn_alpha),
        )
        if has_affine:
            layer.affine_gamma = r.f64(out_channels)
            layer.affine_beta = r.f64(out_channels)
        fire_mode = _FIRE_MODES[fire_id]
        scale = r.f64(out_channels) if fire_mode is FireMode.SCALED_REAL else None
        neurons.append(NeuronParams(tau=tau, v_th=v_th, mode=fire_mode, scale=scale))
        layers.append(layer)
    if r.pos != len(r.data):
        raise ParseError(f"{len(r.data) - r.pos} trailing bytes", offset=r.pos)
    return Network(
        layers=layers, neurons=neurons, timesteps=timesteps,
        input_shape=input_shape, num_classes=num_classes,
        mode=MODES[mode_id], inference_form=bool(form),
    )
