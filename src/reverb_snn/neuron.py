"""Leaky integrate-and-fire dynamics with three firing rules.

The membrane potential of layer l evolves as

    u_new = tau * u_old + current

where `u_old` already has the previous step's reset applied: any neuron that
fired is sitting at the resting potential 0. Firing compares inclusively
(u >= v_th) and comes in three flavours:

* binary       -- emit 1, the classic spike;
* real         -- emit the membrane potential itself;
* scaled real  -- emit a per-channel multiple of the membrane potential
                  (the inference form produced by amplitude folding).

All three hard-reset fired entries to 0. Backward rules: the real-valued
spike is differentiable away from the gate, so its gradient is the fired
indicator (the boundary Dirac term is dropped); the scaled rule multiplies
that by the channel scale; the binary spike is non-differentiable and uses a
rectangular surrogate window of width 1 around the threshold.
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
    SCALED_REAL = "scaled-real"


@dataclass
class NeuronParams:
    """Per-layer neuron configuration.

    `v_th` is a scalar for ordinary layers; after amplitude folding it may be
    a per-channel vector (v_th / scale) so gate decisions match the unfolded
    network exactly. `scale` is the per-channel firing amplitude and is only
    consulted in SCALED_REAL mode.
    """

    tau: float = 0.25
    v_th: float | np.ndarray = 0.0
    mode: FireMode = FireMode.REAL
    scale: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")
        if self.mode is FireMode.SCALED_REAL:
            if self.scale is None:
                raise ValueError("SCALED_REAL mode requires a scale vector")
            self.scale = as_f64(self.scale)
            if np.any(self.scale <= 0):
                raise ValueError("firing scale entries must be strictly positive")


@dataclass
class LifState:
    """Membrane potentials of one layer plus the current timestep index."""

    u: np.ndarray
    t: int = 0

    @staticmethod
    def zeros(shape) -> "LifState":
        return LifState(u=np.zeros(shape, dtype=np.float64), t=0)


def channel_axis(u: np.ndarray) -> int:
    """Axis indexing channels: first for unbatched arrays, second for batched.

    Vectors (n,) and unbatched conv maps (C, H, W) put channels first;
    batched (B, n) and (B, C, H, W) put them second.
    """
    return 0 if u.ndim in (1, 3) else 1


def _per_channel(vec: np.ndarray, u: np.ndarray) -> np.ndarray:
    axis = channel_axis(u)
    if vec.shape[0] != u.shape[axis]:
        raise DimensionError(
            f"per-channel vector of length {vec.shape[0]} does not match "
            f"channel dimension {u.shape[axis]} of shape {u.shape}"
        )
    shape = [1] * u.ndim
    shape[axis] = vec.shape[0]
    return vec.reshape(shape)


def _folded_threshold(v_th, scale: np.ndarray):
    """Per-channel gate of a layer whose amplitude `scale` was folded out of
    its membrane: v_th / scale. A zero threshold stays zero."""
    v = np.atleast_1d(v_th)
    return as_f64(v) / scale if np.any(v != 0) else v_th


def threshold_for(u: np.ndarray, params: NeuronParams):
    v = params.v_th
    if isinstance(v, np.ndarray) and v.ndim == 1:
        return _per_channel(v, u)
    return v


def membrane_update(state: LifState, current: np.ndarray, params: NeuronParams) -> LifState:
    """Integrate one timestep: u <- tau * u + current (reset already applied)."""
    current = as_f64(current)
    if current.shape != state.u.shape:
        raise DimensionError(
            f"current shape {current.shape} does not match state {state.u.shape}"
        )
    return LifState(u=params.tau * state.u + current, t=state.t + 1)


def fire_binary(state: LifState, params: NeuronParams):
    if params.mode is not FireMode.BINARY:
        raise ModeError(f"fire_binary called in mode {params.mode}")
    fired = state.u >= threshold_for(state.u, params)
    spikes = fired.astype(np.float64)
    return spikes, LifState(u=np.where(fired, 0.0, state.u), t=state.t)


def fire_real(state: LifState, params: NeuronParams):
    if params.mode is not FireMode.REAL:
        raise ModeError(f"fire_real called in mode {params.mode}")
    fired = state.u >= threshold_for(state.u, params)
    spikes = np.where(fired, state.u, 0.0)
    return spikes, LifState(u=np.where(fired, 0.0, state.u), t=state.t)


def fire_real_scaled(state: LifState, params: NeuronParams):
    if params.mode is not FireMode.SCALED_REAL:
        raise ModeError(f"fire_real_scaled called in mode {params.mode}")
    scale = _per_channel(params.scale, state.u)
    fired = state.u >= threshold_for(state.u, params)
    spikes = np.where(fired, scale * state.u, 0.0)
    return spikes, LifState(u=np.where(fired, 0.0, state.u), t=state.t)


_FIRE = {
    FireMode.BINARY: fire_binary,
    FireMode.REAL: fire_real,
    FireMode.SCALED_REAL: fire_real_scaled,
}


def fire(state: LifState, params: NeuronParams):
    """Dispatch to the firing rule selected by params.mode."""
    return _FIRE[params.mode](state, params)


def fire_backward(u: np.ndarray, params: NeuronParams) -> np.ndarray:
    """Elementwise dO/dU of the firing rule at pre-reset potential u."""
    u = as_f64(u)
    v_th = threshold_for(u, params)
    if params.mode is FireMode.REAL:
        return (u >= v_th).astype(np.float64)
    if params.mode is FireMode.SCALED_REAL:
        scale = _per_channel(params.scale, u)
        return np.where(u >= v_th, scale, 0.0)
    # Rectangular surrogate for the non-differentiable binary spike.
    return (np.abs(u - v_th) <= 0.5).astype(np.float64)
