"""Network container and the one builder, from a layer spec.

A network is an ordered layer stack with one NeuronParams per layer and a
fixed number of timesteps, ending in the dense classifier head. Inputs are
presented identically at every step (direct encoding). Three training modes
exist; the layers' flags and the neurons' firing rules carry them:

* vanilla          -- real weights everywhere, binary spikes;
* reverb           -- binary middle weights (alpha pinned at 1), real spikes;
* reverb-learnable -- binary middle weights with learnable per-channel
                      amplitude, real spikes.

`build_network` takes a spec: space-separated hidden-layer tokens,

* `d<width>`                        -- a dense layer;
* `c<channels>[s<stride>][p<padding>]` -- a 3x3 conv, stride 1 and padding 1
                                       unless given.

Convs come before dense layers. The first token is the (rate-encoding)
encoder and the dense classifier head, `d<num_classes>`, is implied; both
always keep real weights, and only the middle tokens are ever binarized:
`Network.middle_layers` names these layers for every site that asks. A
layer too large to allocate is a DimensionError naming its token.
`ARCHITECTURES` names three specs: mlp-tiny, mlp-small and convnet-small.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParseError
from .layers import CONV, DENSE, BinaryLayer
from .neuron import FireMode, NeuronParams
from .numerics import _check_conv_args

MODE_VANILLA = "vanilla"
MODE_REVERB = "reverb"
MODE_LEARNABLE = "reverb-learnable"
MODES = (MODE_VANILLA, MODE_REVERB, MODE_LEARNABLE)

# Built-in aliases for layer specs (see the module docstring).
ARCHITECTURES = {"mlp-tiny": "d16 d16 d16", "mlp-small": "d128 d128", "convnet-small": "c8 c16s2"}


@dataclass
class Network:
    """Ordered layer stack ending in a dense head. `inference_form` marks an
    amplitude-folded network whose binarized layers hold pure {-1, +1}
    weights and fire real-valued spikes times their firing scale."""

    layers: list[BinaryLayer]
    neurons: list[NeuronParams]
    timesteps: int
    input_shape: tuple[int, ...]
    inference_form: bool = False

    def __post_init__(self):
        if not isinstance(self.timesteps, (int, np.integer)) or self.timesteps < 1:
            raise ValueError(f"timesteps must be an integer >= 1, got {self.timesteps!r}")
        if len(self.layers) != len(self.neurons):
            raise ValueError("one NeuronParams required per layer")
        if not self.layers or self.layers[-1].kind != DENSE:
            raise ValueError("the last layer must be a dense classifier head")
        self.layer_output_shapes()  # DimensionError unless the layers chain into the head

    @property
    def num_classes(self) -> int:
        return self.layers[-1].out_channels

    @property
    def middle_layers(self) -> range:
        """The layers that take spikes, the only ones built binarized, charged as SOPs."""
        return range(1, len(self.layers) - 1)

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


def _make_layer(rng, shape, kind, mode, middle, stride, padding, affine) -> BinaryLayer:
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


def _parse_token(token: str) -> tuple[str, int, int, int] | None:
    """(kind, width, stride, padding) of one spec token; None if it is not one."""
    if token[:1] == "d" and token[1:].isdecimal():
        return DENSE, int(token[1:]), 1, 0
    rest, has_p, padding = token[1:].partition("p")
    channels, has_s, stride = rest.partition("s")
    fields = (channels, stride if has_s else "1", padding if has_p else "1")
    if token[:1] == "c" and all(f.isdecimal() for f in fields):
        return (CONV, *map(int, fields))
    return None


def parse_spec(arch: str) -> list[tuple[str, tuple[str, int, int, int]]]:
    """The hidden layers of `arch`, an alias or a spec, as (token, (kind,
    width, stride, padding)); ParseError naming the first bad token."""
    tokens = ARCHITECTURES.get(arch, arch).split()
    if not tokens:
        raise ParseError(f"architecture {arch!r} has no layers")
    hidden = []
    for token in tokens:
        layer = _parse_token(token)
        if layer is None:
            raise ParseError(f"architecture {arch!r}: unknown token {token!r}; expected "
                             "d<width> or c<channels>[s<stride>][p<padding>]")
        if not (layer[1] and layer[2]):
            raise ParseError(f"architecture {arch!r}: token {token!r} needs a width "
                             "and stride of at least 1")
        if layer[0] == CONV and hidden and hidden[-1][1][0] == DENSE:
            raise ParseError(f"architecture {arch!r}: conv token {token!r} after a dense token")
        hidden.append((token, layer))
    return hidden


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
    """The encoder, middle layers and dense head of `num_classes` that the
    spec or alias `arch` names. Each layer's fan-in is the previous layer's
    output shape, and the weights are drawn layer by layer from one seeded
    stream."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    specs = parse_spec(arch) + [(f"d{num_classes}", (DENSE, num_classes, 1, 0))]
    rng = np.random.default_rng(seed)
    shape, layers = tuple(input_shape), []
    for i, (token, (kind, width, stride, padding)) in enumerate(specs):
        w_shape = (width, shape[0], 3, 3) if kind == CONV else (width, math.prod(shape))
        middle = 0 < i < len(specs) - 1
        try:
            layers.append(_make_layer(rng, w_shape, kind, mode, middle, stride, padding, affine))
        except (MemoryError, ValueError) as exc:  # numpy refuses the array before allocating
            raise DimensionError(f"architecture {arch!r}: token {token!r} needs weights of "
                                 f"shape {w_shape}, which cannot be allocated ({exc})") from None
        shape = _output_shape(shape, layers[-1])
    fire_mode = FireMode.BINARY if mode == MODE_VANILLA else FireMode.REAL
    neurons = [NeuronParams(tau=tau, v_th=v_th, mode=fire_mode) for _ in layers]
    return Network(layers, neurons, timesteps, tuple(input_shape))
