"""Leaky integrate-and-fire dynamics with two firing rules.

The membrane potential of layer l, a plain array, evolves as

    u_new = tau * u_old + current

where `u_old` already has the previous step's reset applied: any neuron that
fired is sitting at the resting potential 0. Firing gates inclusively
(u >= threshold) and hard-resets fired entries to 0. The two rules differ
only in the value a fired neuron emits:

* binary -- 1, the classic spike;
* real   -- the membrane potential u itself or, when the layer carries a
            per-channel firing scale (the inference form produced by
            amplitude folding), scale * u, gated at v_th / scale.

Backward rules: the real-valued spike is differentiable away from the gate,
so its gradient is the fired indicator (the boundary Dirac term is dropped),
times the channel scale when there is one; the binary spike is
non-differentiable and uses a rectangular surrogate window of width 1 around
the threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ModeError
from .numerics import as_f64


class FireMode(enum.Enum):
    BINARY = "binary"
    REAL = "real"


@dataclass
class NeuronParams:
    """Per-layer neuron configuration.

    `v_th` is the layer's scalar base threshold. `scale`, allowed only with
    the real rule, is the per-channel firing amplitude; the gate is then
    derived from both as v_th / scale, so a layer whose amplitude was folded
    out of its membrane decides exactly as the unfolded layer.
    """

    tau: float = 0.25
    v_th: float = 0.0
    mode: FireMode = FireMode.REAL
    scale: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")
        if np.ndim(self.v_th) != 0 or not np.isfinite(self.v_th):
            raise ValueError(f"v_th must be a finite scalar, got {self.v_th!r}")
        if self.scale is not None:
            if self.mode is not FireMode.REAL:
                raise ValueError(f"a firing scale needs the real rule, not {self.mode}")
            self.scale = as_f64(self.scale)
            if (self.scale <= 0).any():
                raise ValueError("firing scale entries must be strictly positive")


def _per_channel(vec: np.ndarray, u: np.ndarray) -> np.ndarray:
    # Vectors (n,) and unbatched conv maps (C, H, W) put channels first;
    # batched (B, n) and (B, C, H, W) put them second.
    axis = 0 if u.ndim in (1, 3) else 1
    if vec.shape[0] != u.shape[axis]:
        raise DimensionError(
            f"per-channel vector of length {vec.shape[0]} does not match "
            f"channel dimension {u.shape[axis]} of shape {u.shape}"
        )
    shape = [1] * u.ndim
    shape[axis] = vec.shape[0]
    return vec.reshape(shape)


def threshold_for(u: np.ndarray, params: NeuronParams):
    """The gate of u: v_th, or v_th / scale per channel with a firing scale."""
    if params.scale is not None:
        return _per_channel(params.v_th / params.scale, u)
    return params.v_th


def membrane_update(u: np.ndarray, current: np.ndarray, params: NeuronParams) -> np.ndarray:
    """Integrate one timestep: tau * u + current (reset already applied)."""
    current = as_f64(current)
    if current.shape != u.shape:
        raise DimensionError(
            f"current shape {current.shape} does not match membrane {u.shape}"
        )
    return params.tau * u + current


def _gate_and_reset(u: np.ndarray, params: NeuronParams, mode: FireMode, emit):
    """(spikes, reset membrane): fired entries emit `emit(u)` and drop to 0."""
    if params.mode is not mode:
        raise ModeError(f"{mode.value} firing rule called in mode {params.mode}")
    fired = u >= threshold_for(u, params)
    return np.where(fired, emit(u), 0.0), np.where(fired, 0.0, u)


def fire_binary(u: np.ndarray, params: NeuronParams):
    return _gate_and_reset(u, params, FireMode.BINARY, lambda u: 1.0)


def fire_real(u: np.ndarray, params: NeuronParams):
    if params.scale is None:
        return _gate_and_reset(u, params, FireMode.REAL, lambda u: u)
    return _gate_and_reset(u, params, FireMode.REAL, lambda u: _per_channel(params.scale, u) * u)


_FIRE = {FireMode.BINARY: fire_binary, FireMode.REAL: fire_real}


def fire(u: np.ndarray, params: NeuronParams):
    """Dispatch to the firing rule selected by params.mode."""
    return _FIRE[params.mode](u, params)


def fire_backward(u: np.ndarray, params: NeuronParams) -> np.ndarray:
    """Elementwise dO/dU of the firing rule at pre-reset potential u."""
    u = as_f64(u)
    v_th = threshold_for(u, params)
    if params.scale is not None:
        return np.where(u >= v_th, _per_channel(params.scale, u), 0.0)
    if params.mode is FireMode.REAL:
        return (u >= v_th).astype(np.float64)
    # Rectangular surrogate for the non-differentiable binary spike.
    return (np.abs(u - v_th) <= 0.5).astype(np.float64)
