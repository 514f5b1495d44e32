"""Event-driven, multiplication-free inference kernel and the operation/energy
accounting around it.

A firing layer's nonzero spikes become an EventList; a folded binarized layer
consumes events by pure accumulation: weight +1 adds the spike value, weight
-1 subtracts it. The kernel is the dense kernels' fixed-order reduction
(`numerics._accumulate`) whose term is the spike's bits XOR the weight's
sign bit, with no branch and no multiply: a dense layer has one term per
event, a conv layer scatters its events into a zero map and has one term per
kernel tap, as `conv2d` does. Inference (`event_forward`) runs the dense
pass's LIF loop, so the two paths agree bitwise by construction. Neither
eval keeps backward state, only the layer inputs the sparsity meter reads.

Operation counts follow the synaptic-operation model. A layer's
multiply-accumulates (MACs) per sample are its output size times its fan-in,
dense or conv. A middle layer takes spikes, binarized or not, so each nonzero
input costs one SOP per output it reaches (its fan-out, see `_meter`). The
reduction itself keeps the kernel's OpCounter (`numerics._accumulate`): one
accumulation per nonzero operand per term it reaches, which is that SOP
count exactly, and one weight-activation multiply per term of the multiply
path, which the kernel never takes. The real-weight encoder and classifier
cost one FLOP per MAC, charged once per timestep. Energy uses 12.5 pJ per
FLOP and 77 fJ per SOP. Dense and event evaluation share one loop
(`_evaluate`) and its SOP count, and differ only in how a batch's logits are
computed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DimensionError, ModeError, StateError
from .layers import CONV, DENSE, BinaryLayer
from .network import Network
from .numerics import _accumulate, _conv_terms, _tap_rows_index, as_f64, conv2d, matmul
from .training import _check_batch, _samples_and_labels, _unroll, aggregate_output, forward_pass

FLOP_JOULES = 12.5e-12
SOP_JOULES = 77e-15


@dataclass
class EventList:
    """Nonzero spikes of one layer at one timestep, in ascending flat index
    order over the source layer's row-major output."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        indices = np.asarray(self.indices)
        # An empty list reads as float64; any other dtype must be integer.
        if indices.size and indices.dtype.kind not in "iu":
            raise DimensionError(f"event indices must be integers, got {indices.dtype}")
        self.indices = indices.astype(np.int64, copy=False)
        self.values = as_f64(self.values)
        if self.indices.ndim != 1 or self.indices.shape != self.values.shape:
            raise DimensionError("indices and values must be 1-D and of equal length")
        if not self.values.all():
            raise ValueError("EventList must not contain zero-valued events")
        if (self.indices[1:] <= self.indices[:-1]).any():
            raise ValueError("event indices must be strictly increasing")

    def __len__(self) -> int:
        return int(self.indices.size)


def events_from_spikes(spikes: np.ndarray) -> EventList:
    """Extract the nonzero entries of one sample's spike tensor, row-major."""
    flat = as_f64(spikes).reshape(-1)
    idx = np.nonzero(flat)[0]
    return EventList(indices=idx, values=flat[idx])


@dataclass
class OpCounter:
    """Instruction-level audit of the inference path."""

    weight_activation_mults: int = 0
    accumulations: int = 0


def addition_only_forward(layer: BinaryLayer, events: EventList,
                          input_shape=None, counter: OpCounter | None = None) -> np.ndarray:
    """Synaptic currents of a folded binarized layer, by accumulation only.

    Every event (j, o) adds +o to outputs wired with weight +1 and -o to
    outputs wired with -1. Requires the layer to be folded: binarized, unit
    amplitude, weights exactly in {-1, +1}. Result equals the dense reference
    kernel bitwise (single sample, no batch axis).
    """
    if not layer.binarize:
        raise ModeError("addition-only path requires a binarized layer")
    if not (layer.alpha == 1.0).all():
        raise ModeError("layer amplitude not folded (alpha != 1)")
    w = layer.w_latent
    if not (np.abs(w) == 1.0).all():
        raise ModeError("layer weights are not pure {-1,+1}; fold the network first")

    if layer.kind == CONV and (input_shape is None or len(input_shape) != 3):
        raise DimensionError("conv event kernel needs the (C, H, W) input shape")
    n_in = w.shape[1] if layer.kind == DENSE else int(np.prod(input_shape))
    idx = events.indices
    if idx.size and not (idx[0] >= 0 and idx[-1] < n_in):
        raise DimensionError(f"event indices {idx[0]}..{idx[-1]} outside layer input {n_in}")

    if layer.kind == DENSE:
        values, rows = events.values[:, None], w.T
        return _accumulate(w.shape[:1], len(events),
                           lambda lo, hi: (values[lo:hi], rows[idx[lo:hi]]),
                           signed=True, counter=counter).copy()

    spikes = np.zeros((1,) + tuple(input_shape), dtype=np.float64)
    spikes.flat[idx] = events.values
    terms = _conv_terms(spikes, w, layer.stride, layer.padding)
    return _accumulate(*terms, signed=True, counter=counter)[:, 0].copy()


@dataclass
class SparsityMeter:
    """Accumulates nonzero-spike counts per middle layer over a dataset pass.

    Sparsity of layer l is (nonzero input spikes) / (input neuron-timestep
    opportunities); the network mean weights each layer by its addition
    count A. `sops` sums each nonzero input's fan-out (see `_meter`).
    """

    nonzero: dict = field(default_factory=dict, init=False)
    total: dict = field(default_factory=dict, init=False)
    sops: int = field(default=0, init=False)
    fan_out: dict = field(default_factory=dict, init=False, repr=False)

    def record(self, layer_id: int, spikes_in: np.ndarray) -> None:
        x = np.asarray(spikes_in)
        fan_out = self.fan_out.get(layer_id, 0)
        if isinstance(fan_out, np.ndarray):  # per (H, W) position, over batch and channels
            counts = (x != 0).reshape(-1, fan_out.size).sum(axis=0)
            nonzero = int(counts.sum())
            self.sops += int(np.vdot(counts, fan_out))
        else:
            nonzero = int(np.count_nonzero(x))
            self.sops += nonzero * fan_out
        self.nonzero[layer_id] = self.nonzero.get(layer_id, 0) + nonzero
        self.total[layer_id] = self.total.get(layer_id, 0) + x.size

    def per_layer(self) -> dict[int, float]:
        if not self.total:
            raise StateError("no forward pass recorded")
        return {l: self.nonzero[l] / self.total[l] for l in sorted(self.total)}

    def mean(self, additions: dict[int, int]) -> float:
        per = self.per_layer()
        num = sum(per[l] * additions[l] for l in per)
        den = sum(additions[l] for l in per)
        return num / den


def _layer_macs(net: Network) -> list[int]:
    """Multiply-accumulates per sample of each layer: output size times fan-in."""
    return [math.prod(shape) * math.prod(layer.w_latent.shape[1:])
            for layer, shape in zip(net.layers, net.layer_output_shapes())]


def layer_additions(net: Network) -> dict[int, int]:
    """Equivalent dense-network addition count A per middle (SOP) layer."""
    macs = _layer_macs(net)
    return {l: macs[l] for l in range(1, len(macs) - 1)}


def count_flops(net: Network) -> int:
    """Multiply-accumulates of the real-weight encoder and classifier, charged
    once per timestep presentation."""
    macs = _layer_macs(net)
    return (macs[0] + macs[-1]) * net.timesteps


@dataclass
class EnergyReport:
    flops: float
    sops: float
    sparsity: float
    sparsity_per_layer: dict
    timesteps: int
    energy_joules: float

    def as_dict(self) -> dict:
        per_layer = {str(k): v for k, v in self.sparsity_per_layer.items()}
        return dict(asdict(self), sparsity_per_layer=per_layer)


def estimate_energy(flops: float, sops: float, sparsity: float = 0.0,
                    sparsity_per_layer: dict | None = None,
                    timesteps: int = 0) -> EnergyReport:
    """Energy in joules: flops * 12.5 pJ + sops * 77 fJ."""
    if flops < 0 or sops < 0:
        raise ValueError("operation counts must be non-negative")
    return EnergyReport(
        flops=flops,
        sops=sops,
        sparsity=sparsity,
        sparsity_per_layer=sparsity_per_layer or {},
        timesteps=timesteps,
        energy_joules=flops * FLOP_JOULES + sops * SOP_JOULES,
    )


def _meter(net: Network) -> SparsityMeter:
    """A SparsityMeter that knows each middle layer's fan-out: a dense layer's
    output width, or a conv layer's C_out times the taps that meet each (H, W)
    input position (`numerics._tap_rows_index`; none on zero padding)."""
    meter = SparsityMeter()
    shapes = [tuple(net.input_shape)] + net.layer_output_shapes()
    for l, layer in enumerate(net.layers[1:-1], 1):
        meter.fan_out[l] = layer.out_channels
        if layer.kind == CONV:
            (h, w), p = shapes[l][1:], layer.padding
            k, hp, wp = layer.w_latent.shape[2], h + 2 * p, w + 2 * p
            index = _tap_rows_index((1, 1, hp, wp), k, layer.stride, shapes[l + 1][1:])
            taps = np.bincount(index, minlength=hp * wp).reshape(hp, wp)
            meter.fan_out[l] *= taps[p : p + h, p : p + w].ravel()
    return meter


def _record_sparsity(meter: SparsityMeter, inputs: list) -> None:
    """Record the middle layers' inputs of a ForwardCache.inputs list."""
    for step in inputs:
        for l in range(1, len(step) - 1):
            meter.record(l, step[l])


def event_forward(net: Network, sample: np.ndarray, *, counter: OpCounter | None = None,
                  meter: SparsityMeter | None = None) -> list[np.ndarray]:
    """Run one sample through an inference-form network, using the
    addition-only kernel for every folded binarized layer.

    Returns the per-timestep outputs of the last layer. The encoder and
    classifier keep their real weights and run through the dense kernels;
    middle layers of a vanilla network (never binarized) do too, but their
    inputs are still recorded, sparsity and SOPs, since binary spikes make
    them addition-only as well.
    """
    batch = as_f64(sample)[None]
    _check_batch(net, batch)
    last = len(net.layers) - 1

    def current(l, x):
        layer = net.layers[l]
        if 0 < l < last and layer.binarize:
            events = events_from_spikes(x[0])
            return addition_only_forward(layer, events, x.shape[1:], counter)[None]
        if layer.kind == DENSE:
            return matmul(x, layer.w_latent.T)
        return conv2d(x, layer.w_latent, layer.stride, layer.padding)

    outputs, cache = _unroll(net, batch, current, for_backward=False)
    if meter is not None:
        _record_sparsity(meter, cache.inputs)
    return [o[0] for o in outputs]


def _evaluate(net: Network, x, y, batch_size: int, logits):
    """Top-1 accuracy and a per-image EnergyReport. `logits(xb, meter)` gives a
    batch's timestep-averaged outputs and records its middle layers' inputs in
    `meter`, which counts their SOPs."""
    x, y = _samples_and_labels(net, x, y)
    if not len(x):
        raise StateError("no samples to evaluate")
    meter = _meter(net)
    correct = 0
    for start in range(0, len(x), batch_size):
        o = logits(x[start : start + batch_size], meter)
        correct += int((o.argmax(axis=1) == y[start : start + batch_size]).sum())
    # A network with no middle layer records nothing: it has no SOP layer.
    additions = layer_additions(net)
    sparsity = meter.mean(additions) if additions else 0.0
    report = estimate_energy(count_flops(net), meter.sops / len(x), sparsity,
                             meter.per_layer() if additions else {}, net.timesteps)
    return correct / len(x), report


def evaluate_event_driven(net: Network, x, y):
    """Top-1 accuracy plus a measured per-image EnergyReport over a test set,
    and the addition-only kernel's OpCounter. On binarized middle layers the
    SOPs equal the accumulations the kernel performed."""
    if not net.inference_form:
        raise ModeError("event-driven evaluation requires an inference-form network")
    counter = OpCounter()

    def logits(xb, meter):
        return aggregate_output(event_forward(net, xb[0], counter=counter, meter=meter))[None]

    acc, report = _evaluate(net, x, y, 1, logits)
    return acc, report, counter


def evaluate_dense(net: Network, x, y):
    """Dense-path evaluation, in batches of 256 samples, of either form:
    accuracy plus the same EnergyReport as `evaluate_event_driven`."""

    def logits(xb, meter):
        outputs, cache = forward_pass(net, xb, for_backward=False)
        _record_sparsity(meter, cache.inputs)
        return aggregate_output(outputs)

    return _evaluate(net, x, y, 256, logits)
