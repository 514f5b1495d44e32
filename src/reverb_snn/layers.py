"""Weight containers and forward/backward rules for binarized connections.

A binarized layer keeps latent real weights W and a strictly positive
per-output-channel amplitude alpha. Its effective weights are

    W_eff = alpha * sign(W),   sign(W) = +1 where W >= 0 else -1,

so every row (dense) or filter (conv) of W_eff has constant magnitude
alpha_c. The sign is non-differentiable; gradients reach W through the
straight-through estimator, which passes them unchanged inside the clip
window [-1, 1] and zeroes them outside. The gradient check replaces sign by
the clipped identity clip(W, -1, 1), whose exact derivative is that same
window mask, so the analytic backward can be validated by finite
differences.

This module alone decides which parameters a layer trains (`_params`:
`training.Gradients` lays out the backward pass's gradients, the optimizer's
velocity and the gradient check by it) and, for the dense pass, which kernel
computes its synaptic current (`_contract`: the fixed-order matmul for dense
layers, conv2d for conv layers; `forward` and `alpha_grad` call it).
`events.event_forward`'s `current` closure and `training.backward_stbp` choose
kernels of their own, which perfbench wraps under the names they import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ModeError
from .numerics import as_f64, conv2d, matmul

DENSE = "dense"
CONV = "conv"
WEIGHT_RANK = {DENSE: 2, CONV: 4}  # weight axes: (out, in) or (C_out, C_in, k, k)

# Lower bound for alpha updates; a vanishing or negative amplitude would
# silently re-binarize the layer with flipped signs.
ALPHA_FLOOR = 1e-4


@dataclass
class BinaryLayer:
    """One connection layer: dense (out, in) or conv (C_out, C_in, k, k) weights.

    `binarize` is False for the rate-encoding first layer and the classifier
    head, which keep real-valued weights. `learn_alpha` marks the learnable
    amplitude variant; plain binary layers keep alpha pinned at 1.
    Optional per-channel affine (gamma, beta) scales the synaptic current;
    it substitutes for batch normalization in deeper toy nets.
    """

    w_latent: np.ndarray
    alpha: np.ndarray
    binarize: bool
    kind: str
    stride: int = 1
    padding: int = 0
    learn_alpha: bool = False
    affine_gamma: np.ndarray | None = None
    affine_beta: np.ndarray | None = None

    def __post_init__(self):
        self.w_latent = as_f64(self.w_latent)
        self.alpha = as_f64(np.atleast_1d(self.alpha))
        if self.kind not in WEIGHT_RANK:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        expected_ndim = WEIGHT_RANK[self.kind]
        if self.w_latent.ndim != expected_ndim or 0 in self.w_latent.shape:
            raise DimensionError(f"{self.kind} layer expects {expected_ndim}-D weights with "
                                 f"no empty axis, got {self.w_latent.shape}")
        if self.alpha.shape != (self.out_channels,):
            raise DimensionError(
                f"alpha must have one entry per output channel "
                f"({self.out_channels}), got {self.alpha.shape}"
            )
        if not (np.isfinite(self.alpha).all() and (self.alpha > 0).all()):
            raise ValueError("alpha entries must be finite and strictly positive")

    @property
    def out_channels(self) -> int:
        return self.w_latent.shape[0]

    @property
    def has_affine(self) -> bool:
        return self.affine_gamma is not None

    @property
    def folded(self) -> bool:
        """The inference form of a binarized layer: alpha all 1, weights all +/-1."""
        return (self.binarize and bool((self.alpha == 1.0).all())
                and bool((np.abs(self.w_latent) == 1.0).all()))


def _params(layer: BinaryLayer):
    """Yield (name, array) for each parameter the layer trains: the latent
    weights "w", the amplitude "alpha" when it is learnable, and the affine
    "gamma" and "beta" when present. The names are Gradients' fields."""
    yield "w", layer.w_latent
    if layer.binarize and layer.learn_alpha:
        yield "alpha", layer.alpha
    if layer.has_affine:
        yield "gamma", layer.affine_gamma
        yield "beta", layer.affine_beta


def _contract(layer: BinaryLayer, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Current of input x through weights w of the layer's shape: x . w^T for
    a dense layer, the layer's strided, padded conv2d for a conv layer."""
    if layer.kind == DENSE:
        return matmul(x, w.T)
    return conv2d(x, w, layer.stride, layer.padding)


def binarize_weights(w: np.ndarray) -> np.ndarray:
    """sign(w) with the zero entry mapped to +1."""
    w = as_f64(w)
    return np.where(w >= 0, 1.0, -1.0)


def latent_transform(w: np.ndarray, surrogate: bool = False) -> np.ndarray:
    """sign(w) in normal operation; clip(w, -1, 1) for the gradient-check
    surrogate, whose exact derivative is the straight-through window."""
    if surrogate:
        return np.clip(as_f64(w), -1.0, 1.0)
    return binarize_weights(w)


def _alpha_over_outputs(layer: BinaryLayer) -> np.ndarray:
    shape = (layer.out_channels,) + (1,) * (layer.w_latent.ndim - 1)
    return layer.alpha.reshape(shape)


def effective_weights(layer: BinaryLayer, surrogate: bool = False) -> np.ndarray:
    """alpha * sign(w_latent), broadcast per output channel."""
    if not layer.binarize:
        raise ModeError("effective_weights is defined only for binarized layers")
    return _alpha_over_outputs(layer) * latent_transform(layer.w_latent, surrogate)


def forward(layer: BinaryLayer, spikes: np.ndarray, surrogate: bool = False) -> np.ndarray:
    """Synaptic current produced by incoming spikes.

    Uses the effective (binarized, amplitude-scaled) weights when the layer
    is binarized and the raw latent weights otherwise. The optional affine
    is applied by the network forward, not here.
    """
    w = effective_weights(layer, surrogate) if layer.binarize else layer.w_latent
    return _contract(layer, spikes, w)


def ste_weight_grad(grad_out_w_b: np.ndarray, w_latent: np.ndarray) -> np.ndarray:
    """Straight-through estimator: pass the gradient where -1 <= w <= 1."""
    grad_out_w_b = as_f64(grad_out_w_b)
    w_latent = as_f64(w_latent)
    if grad_out_w_b.shape != w_latent.shape:
        raise DimensionError(
            f"gradient shape {grad_out_w_b.shape} != weight shape {w_latent.shape}"
        )
    return grad_out_w_b * (np.abs(w_latent) <= 1.0)


def alpha_grad(
    layer: BinaryLayer,
    grad_u: np.ndarray,
    spikes_in: np.ndarray,
    surrogate: bool = False,
) -> np.ndarray:
    """Per-output-channel gradient of the loss w.r.t. alpha.

    dU/dalpha_c is the unit-amplitude synaptic current sign(W) * O restricted
    to channel c, so the gradient is the per-channel sum (over batch and
    spatial positions) of grad_u times that current. Callers accumulate the
    per-timestep results.
    """
    unit_w = latent_transform(layer.w_latent, surrogate)
    unit_current = _contract(layer, spikes_in, unit_w)
    per_channel = unit_current.shape[:2] + (-1,)
    return np.einsum("bcn,bcn->c", as_f64(grad_u).reshape(per_channel),
                     unit_current.reshape(per_channel))


def clip_latent(layer: BinaryLayer) -> BinaryLayer:
    """Clamp latent weights into the straight-through window [-1, 1]."""
    if not layer.binarize:
        raise ModeError("clip_latent applies only to binarized layers")
    np.clip(layer.w_latent, -1.0, 1.0, out=layer.w_latent)
    return layer
