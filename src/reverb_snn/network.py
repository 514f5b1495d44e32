"""Network container and the built-in desk-scale architectures.

A network is an ordered layer stack with one NeuronParams per layer and a
fixed number of timesteps. Inputs are presented identically at every step
(direct encoding). Three training modes exist:

* vanilla          -- real weights everywhere, binary spikes;
* reverb           -- binary middle weights (alpha pinned at 1), real spikes;
* reverb-learnable -- binary middle weights with learnable per-channel
                      amplitude, real spikes.

The first (rate-encoding) and last (classifier) layers always keep real
weights; only middle layers are ever binarized.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .layers import CONV, DENSE, BinaryLayer
from .neuron import FireMode, NeuronParams
from .numerics import _check_conv_args

MODE_VANILLA = "vanilla"
MODE_REVERB = "reverb"
MODE_LEARNABLE = "reverb-learnable"
MODES = (MODE_VANILLA, MODE_REVERB, MODE_LEARNABLE)

ARCHITECTURES = ("mlp-tiny", "mlp-small", "convnet-small")


@dataclass
class Network:
    """Ordered layer stack. `inference_form` marks an amplitude-folded network
    whose binarized layers hold pure {-1, +1} weights and fire with the
    scaled real-valued rule."""

    layers: list[BinaryLayer]
    neurons: list[NeuronParams]
    timesteps: int
    input_shape: tuple[int, ...]
    num_classes: int
    mode: str = MODE_REVERB
    inference_form: bool = False

    def __post_init__(self):
        if self.timesteps < 1:
            raise ValueError("timesteps must be positive")
        if len(self.layers) != len(self.neurons):
            raise ValueError("one NeuronParams required per layer")

    def layer_output_shapes(self) -> list[tuple[int, ...]]:
        """Per-sample output shape of each layer, propagated from input_shape."""
        return list(itertools.accumulate(self.layers, _output_shape,
                                         initial=tuple(self.input_shape)))[1:]


def _output_shape(shape: tuple[int, ...], layer: BinaryLayer) -> tuple[int, ...]:
    """Per-sample output shape of `layer` on `shape` input; DimensionError if
    the layer cannot take it (conv: `numerics._check_conv_args`)."""
    if layer.kind == CONV:
        return (layer.out_channels,) + _check_conv_args(shape, layer.w_latent, layer.stride,
                                                        layer.padding)
    if math.prod(shape) != layer.w_latent.shape[1]:
        raise DimensionError(
            f"dense layer expects {layer.w_latent.shape[1]} inputs, upstream provides {shape}"
        )
    return (layer.out_channels,)


def _alpha_init(w: np.ndarray, learnable: bool) -> np.ndarray:
    """Per-channel mean |w| minimizes the initial binarization error; plain
    binary layers keep the amplitude pinned at exactly 1."""
    if not learnable:
        return np.ones(w.shape[0], dtype=np.float64)
    flat = np.abs(w.reshape(w.shape[0], -1))
    return np.maximum(flat.mean(axis=1), 1e-2)


def _init_weights(rng: np.random.Generator, shape: tuple, binarize: bool) -> np.ndarray:
    """Real-weight layers get a fan-in-scaled uniform init. Binarized layers
    draw latent weights over the full straight-through window [-1, 1]: their
    effective magnitude comes from alpha, and the wider latent spread keeps
    sign flips and amplitude gradients on comparable scales."""
    if binarize:
        return rng.uniform(-1.0, 1.0, size=shape)
    fan_in = int(np.prod(shape[1:]))
    bound = np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _make_layer(rng, shape, kind, mode, middle, stride=1, padding=0, affine=False) -> BinaryLayer:
    binarize = middle and mode in (MODE_REVERB, MODE_LEARNABLE)
    learn_alpha = binarize and mode == MODE_LEARNABLE
    w = _init_weights(rng, shape, binarize)
    layer = BinaryLayer(
        w_latent=w,
        alpha=_alpha_init(w, learn_alpha) if binarize else np.ones(w.shape[0]),
        binarize=binarize,
        kind=kind,
        stride=stride,
        padding=padding,
        learn_alpha=learn_alpha,
    )
    if affine and middle:
        layer.affine_gamma = np.ones(layer.out_channels, dtype=np.float64)
        layer.affine_beta = np.zeros(layer.out_channels, dtype=np.float64)
    return layer


def _neuron(mode: str, tau: float, v_th: float) -> NeuronParams:
    fire_mode = FireMode.BINARY if mode == MODE_VANILLA else FireMode.REAL
    return NeuronParams(tau=tau, v_th=v_th, mode=fire_mode)


def build_mlp(
    input_shape,
    num_classes: int,
    mode: str,
    timesteps: int,
    tau: float = 0.25,
    v_th: float = 0.0,
    seed: int = 0,
    hidden: int = 128,
    middle_layers: int = 1,
    affine: bool = False,
) -> Network:
    """Encoder dense -> one or more binarized dense middles -> classifier."""
    _check_mode(mode)
    rng = np.random.default_rng(seed)
    n_in = int(np.prod(input_shape))
    layers = [_make_layer(rng, (hidden, n_in), DENSE, mode, middle=False)]
    for _ in range(middle_layers):
        layers.append(_make_layer(rng, (hidden, hidden), DENSE, mode, middle=True, affine=affine))
    layers.append(_make_layer(rng, (num_classes, hidden), DENSE, mode, middle=False))
    neurons = [_neuron(mode, tau, v_th) for _ in layers]
    return Network(layers, neurons, timesteps, tuple(input_shape), num_classes, mode)


def build_convnet(
    input_shape,
    num_classes: int,
    mode: str,
    timesteps: int,
    tau: float = 0.25,
    v_th: float = 0.0,
    seed: int = 0,
    channels: tuple[int, int] = (8, 16),
    affine: bool = False,
) -> Network:
    """Two conv blocks (encoder, binarized) followed by a dense classifier."""
    _check_mode(mode)
    if len(input_shape) != 3:
        raise DimensionError(f"convnet input must be (C, H, W), got {input_shape}")
    rng = np.random.default_rng(seed)
    c_in = input_shape[0]
    c1, c2 = channels
    layers = [
        _make_layer(rng, (c1, c_in, 3, 3), CONV, mode, middle=False, stride=1, padding=1),
        _make_layer(rng, (c2, c1, 3, 3), CONV, mode, middle=True, stride=2, padding=1, affine=affine),
    ]
    fan_in = math.prod(functools.reduce(_output_shape, layers, tuple(input_shape)))
    layers.append(_make_layer(rng, (num_classes, fan_in), DENSE, mode, middle=False))
    neurons = [_neuron(mode, tau, v_th) for _ in layers]
    return Network(layers, neurons, timesteps, tuple(input_shape), num_classes, mode)


def build_network(
    arch: str,
    input_shape,
    num_classes: int,
    mode: str,
    timesteps: int,
    tau: float = 0.25,
    v_th: float = 0.0,
    seed: int = 0,
    affine: bool = False,
) -> Network:
    if arch == "mlp-small":
        return build_mlp(input_shape, num_classes, mode, timesteps, tau, v_th, seed, affine=affine)
    if arch == "mlp-tiny":
        return build_mlp(input_shape, num_classes, mode, timesteps, tau, v_th, seed,
                         hidden=16, middle_layers=2, affine=affine)
    if arch == "convnet-small":
        return build_convnet(input_shape, num_classes, mode, timesteps, tau, v_th, seed, affine=affine)
    raise ValueError(f"unknown architecture {arch!r}; expected one of {ARCHITECTURES}")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
