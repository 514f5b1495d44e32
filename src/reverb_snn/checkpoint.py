"""Binary checkpoint format.

Layout (all multi-byte integers little-endian, reals 64-bit IEEE-754):

    magic           4s   "RVRB"
    version         u32  (currently 3; any other, 2 included, is a ParseError)
    form            u8   0 = trained, 1 = inference (amplitude-folded)
    timesteps       u32
    tau             f64
    v_th            f64  base threshold (scaled layers gate at v_th / scale)
    input ndim      u8, then u32 per axis
    layer count     u32  the last is the dense head: its outputs are the classes
    per layer:
      kind, binarize, learn_alpha, has_affine, fire_mode, has_scale   6 x u8
                    (kind 0 = dense, 1 = conv; fire_mode 0 = binary, 1 = real)
      stride, padding                                                 2 x u32
      weight shape  u32 per axis: 2 for a dense layer, 4 for a conv layer
      weights: trained form or real-weight layer -> raw f64;
               inference-form binarized layer    -> 1 bit per weight,
               LSB-first within each byte over row-major order, bit 1 => +1
      alpha         f64 per output channel
      gamma, beta   f64 per output channel (only when has_affine)
      scale         f64 per output channel (only when has_scale)
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
from .layers import CONV, DENSE, WEIGHT_RANK, BinaryLayer
from .network import Network
from .neuron import FireMode, NeuronParams

MAGIC = b"RVRB"
VERSION = 3
_CRC = struct.Struct("<I")

_KINDS = (DENSE, CONV)
_FIRE_MODES = (FireMode.BINARY, FireMode.REAL)


def save_checkpoint(net: Network, path) -> None:
    buf = bytearray()
    tau, v_th = net.neurons[0].tau, net.neurons[0].v_th
    if any((nrn.tau, nrn.v_th) != (tau, v_th) for nrn in net.neurons):
        raise StateError("checkpoint format requires a network-wide tau and v_th")
    buf += struct.pack("<4sIBIdd", MAGIC, VERSION, int(net.inference_form),
                       net.timesteps, tau, v_th)
    buf += struct.pack("<B", len(net.input_shape))
    buf += struct.pack(f"<{len(net.input_shape)}I", *net.input_shape)
    buf += struct.pack("<I", len(net.layers))
    for layer, nrn in zip(net.layers, net.neurons):
        buf += struct.pack("<6B2I", _KINDS.index(layer.kind), int(layer.binarize),
                           int(layer.learn_alpha), int(layer.has_affine),
                           _FIRE_MODES.index(nrn.mode), int(nrn.scale is not None),
                           layer.stride, layer.padding)
        w = layer.w_latent
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
        if nrn.scale is not None:
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
        net.layer_output_shapes()  # the layers chain from the input into the head
    except (ValueError, DimensionError) as exc:  # a decoded value broke an invariant
        raise ParseError(f"corrupt checkpoint: {exc}", offset=r.pos) from exc
    return net


def _decode(r: _Reader, crc: bytes) -> Network:
    magic, version, form, timesteps, tau, v_th = r.unpack("4sIBIdd")
    if magic != MAGIC:
        raise ParseError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != VERSION:
        raise ParseError(f"unsupported checkpoint version {version}", offset=4)
    if crc != _CRC.pack(zlib.crc32(r.data)):
        raise ParseError("checksum mismatch: corrupt checkpoint", offset=len(r.data))
    (in_ndim,) = r.unpack("B")
    input_shape = tuple(r.unpack(f"{in_ndim}I"))
    (n_layers,) = r.unpack("I")

    layers: list[BinaryLayer] = []
    neurons: list[NeuronParams] = []
    for _ in range(n_layers):
        kind_id, binarize, learn_alpha, has_affine, fire_id, has_scale, stride, padding = \
            r.unpack("6B2I")
        if kind_id >= len(_KINDS) or fire_id >= len(_FIRE_MODES):
            raise ParseError("corrupt layer header", offset=r.pos)
        w_shape = tuple(r.unpack(f"{WEIGHT_RANK[_KINDS[kind_id]]}I"))
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
        scale = r.f64(out_channels) if has_scale else None
        neurons.append(NeuronParams(tau=tau, v_th=v_th, mode=_FIRE_MODES[fire_id], scale=scale))
        layers.append(layer)
    if r.pos != len(r.data):
        raise ParseError(f"{len(r.data) - r.pos} trailing bytes", offset=r.pos)
    return Network(layers=layers, neurons=neurons, timesteps=timesteps,
                   input_shape=input_shape, inference_form=bool(form))
