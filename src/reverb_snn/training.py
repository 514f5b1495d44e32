"""Training loop: unrolled forward, timestep-averaged cross-entropy, and
backpropagation through both layer depth and time.

The backward pass composes, per layer and timestep, the spatial path
(loss -> spike -> membrane) with the temporal path (loss -> next-step
membrane -> this-step membrane). The temporal factor dU^{t+1}/dU^t is tau on
entries that did not fire at t and 0 on entries that were reset, i.e. the
reset truncates gradient flow through time. Weight gradients accumulate over
all timesteps; binarized layers route them through the straight-through
window, and learnable amplitudes receive the per-channel sum of
grad_u * (sign(W) . O). A pass that runs no backward (eval, the fold check,
gradient_check's probes) keeps no membranes or currents (see ForwardCache).

Each conv layer's kernel gradient (one einsum, which releases the GIL) runs
on a persistent worker thread, made by the first backward pass through a
conv layer, while the calling thread goes on with the rest, which never
reads it; each thread pads into scratch slots of its own (see `numerics`).
After the loop the results are added to the weight gradients in submission
order (descending t, then l), so each layer sums the same terms in the same
order as a serial pass and no bit moves. No task outlives its
`backward_stbp` call. Dense layers' einsums stay inline: a task's round trip
(about 36 us) costs more than they do.

Optimization is plain SGD with classical momentum and a cosine learning-rate
schedule decaying to zero.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, fields

import numpy as np

from . import layers as L
from .errors import DimensionError, ModeError, StateError, TrainingError
from .network import Network
from .neuron import _per_channel, fire, fire_backward, membrane_update, threshold_for
from .numerics import as_f64, conv2d_input_grad, conv2d_kernel_grad


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 128
    lr0: float = 0.1
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        integer = lambda v: isinstance(v, (int, np.integer))  # noqa: E731
        rules = (("epochs", integer, "an integer"), ("epochs", lambda v: v >= 0, ">= 0"),
                 ("seed", integer, "an integer"), ("seed", lambda v: v >= 0, ">= 0"),
                 ("batch_size", integer, "an integer"), ("batch_size", lambda v: v >= 1, ">= 1"),
                 ("lr0", lambda v: np.isfinite(v) and v >= 0, "finite and >= 0"),
                 ("momentum", lambda v: 0.0 <= v < 1.0, "in [0, 1)"))
        for name, ok, rule in rules:
            if not ok(getattr(self, name)):
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class ForwardCache:
    """Per-timestep, per-layer activations of one pass: the inputs, which
    backward and the eval's sparsity meter read, and only `for_backward` the
    membranes and raw currents, which only backward reads (else empty)."""

    net_ref: Network
    surrogate: bool
    inputs: list          # [t][l] layer input exactly as fed (flattened for dense)
    u_pre: list           # [t][l] membrane after integration, before fire/reset
    raw_current: list     # [t][l] pre-affine synaptic current (None without affine)


def _check_batch(net: Network, batch: np.ndarray) -> None:
    """The network-input rule: a leading sample axis over net.input_shape samples."""
    if tuple(batch.shape[1:]) != tuple(net.input_shape):
        raise DimensionError(f"input {batch.shape} is not a batch of {net.input_shape} samples")


def _samples_and_labels(net: Network, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Finite features as float64 and 1-D integer labels: one label per sample, a
    batch for `net` (checked first, the clearer fault), labels in [0, net.num_classes)."""
    x, y = as_f64(x), np.asarray(y)
    if y.ndim != 1 or not np.issubdtype(y.dtype, np.integer):
        raise DimensionError(f"labels must be a 1-D integer array, got {y.dtype} {y.shape}")
    if len(x) != len(y):
        raise DimensionError(f"{len(x)} samples but {len(y)} labels")
    _check_batch(net, x)
    if not np.isfinite(x).all():
        raise DimensionError("features must be finite, not NaN or inf")
    outside = sorted(set(y[(y < 0) | (y >= net.num_classes)].tolist()))
    if outside:
        raise DimensionError(f"labels {outside} outside [0, {net.num_classes})")
    return x, y


def _unroll(net: Network, batch: np.ndarray, current_fn, surrogate: bool = False, *,
            for_backward: bool = True):
    """The LIF loop shared by the dense and event paths, and the one place
    that reads their input, as float64, and checks it (`_check_batch`).

    For each of the network's `timesteps` (the only source of T) and each
    layer, `current_fn(l, x)` gives the synaptic current of layer l from
    its batched input x; the loop applies the optional per-channel affine,
    integrates, and fires every layer but the non-firing head. Returns the
    per-timestep outputs and the ForwardCache; the loop drops each current
    and membrane once used, so a pass not `for_backward` frees them at once.
    """
    batch = as_f64(batch)
    _check_batch(net, batch)
    membranes: list[np.ndarray | None] = [None] * len(net.layers)
    cache = ForwardCache(net, surrogate, [], [], [])
    outputs = []
    for _ in range(net.timesteps):
        x = batch
        cache.inputs.append([])
        if for_backward:
            cache.u_pre.append([])
            cache.raw_current.append([])
        for l, (layer, nrn) in enumerate(zip(net.layers, net.neurons)):
            if layer.kind == L.DENSE and x.ndim > 2:
                x = x.reshape(x.shape[0], -1)
            cache.inputs[-1].append(x)
            current = current_fn(l, x)
            if for_backward:
                cache.raw_current[-1].append(current if layer.has_affine else None)
            if layer.has_affine:
                current = _per_channel(layer.affine_gamma, current) * current \
                    + _per_channel(layer.affine_beta, current)
            u = membranes[l] if membranes[l] is not None else np.zeros(current.shape)
            u = membrane_update(u, current, nrn)
            del current
            if for_backward:
                cache.u_pre[-1].append(u)
            if l == len(net.layers) - 1:
                x = membranes[l] = u
            else:
                x, membranes[l] = fire(u, nrn)
            del u
        outputs.append(x)
    return outputs, cache


def forward_pass(net: Network, batch: np.ndarray, *, surrogate: bool = False,
                 for_backward: bool = True):
    """Run the network for its T = net.timesteps steps under direct encoding.

    The static input is presented identically at every timestep. Every layer
    except the last integrates and fires; the classifier head is a non-firing
    integrator whose per-timestep output is its membrane potential, so the
    averaged logits stay real-valued and trainable (a spike gate on the
    logits would zero their gradient whenever a class unit went silent).
    Returns the list of per-timestep outputs and the activation cache
    consumed by backward_stbp when `for_backward` (see ForwardCache).
    """
    return _unroll(net, batch, lambda l, x: L.forward(net.layers[l], x, surrogate),
                   surrogate, for_backward=for_backward)


def aggregate_output(outputs: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean over the per-timestep outputs (1/T sum_t O^t)."""
    if not outputs:
        raise ValueError("aggregate_output requires at least one timestep output")
    return np.mean(np.stack(outputs, axis=0), axis=0)


def _log_softmax(o_out: np.ndarray, labels) -> np.ndarray:
    """log softmax over o_out's classes; IndexError unless each integer label
    names one of them."""
    o_out, labels = as_f64(o_out), np.asarray(labels)
    if (labels < 0).any() or (labels >= o_out.shape[1]).any():
        raise IndexError(f"labels out of range for {o_out.shape[1]} classes")
    z = o_out - o_out.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def ce_loss(o_out: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of softmax(o_out) against integer labels."""
    logp = _log_softmax(o_out, labels)
    return float(-logp[np.arange(len(labels)), labels].mean())


def ce_loss_grad(o_out: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean CE)/d(o_out): (softmax - onehot) / batch."""
    p = np.exp(_log_softmax(o_out, labels))
    p[np.arange(len(labels)), labels] -= 1.0
    return p / len(labels)


@dataclass
class Gradients:
    """Per-layer state laid out by `layers._params`: for each layer, one
    array per parameter it trains, None for the rest. Backward's gradients
    and the optimizer's velocity take this layout; the gradient check reads
    it."""

    w: list[np.ndarray]
    alpha: list[np.ndarray | None]
    gamma: list[np.ndarray | None]
    beta: list[np.ndarray | None]

    @classmethod
    def zeros(cls, net: Network) -> Gradients:
        """A zeroed array shaped like each parameter of `net`."""
        grads = cls(**{f.name: [None] * len(net.layers) for f in fields(cls)})
        for l, layer in enumerate(net.layers):
            for name, p in L._params(layer):
                getattr(grads, name)[l] = np.zeros_like(p)
        return grads


def backward_stbp(net: Network, cache: ForwardCache, loss_grad: np.ndarray) -> Gradients:
    """Backpropagate through time and depth from d(loss)/d(aggregated output).

    Implements both summands of the chain rule per layer and step: the
    spatial term dL/dO * dO/dU and the temporal term
    dL/dU^{t+1} * dU^{t+1}/dU^t with the reset-truncated factor
    tau * (1 - fired).
    """
    if cache.net_ref is not net:
        raise StateError("cache was produced by a different network")
    T = net.timesteps
    if not cache.u_pre:
        raise StateError("cache comes from a pass that kept no backward state")
    if len(cache.u_pre) != T:
        raise StateError(f"cache holds {len(cache.u_pre)} timesteps, the network runs {T}")
    nl = len(net.layers)
    surrogate = cache.surrogate

    grads = Gradients.zeros(net)
    # dL/dO^t for the output layer: the mean over timesteps spreads loss_grad/T.
    g_out_t = as_f64(loss_grad) / T
    g_u_next: list[np.ndarray | None] = [None] * nl

    pending = []  # (l, future of layer l's conv kernel gradient), in submission order
    try:
        for t in reversed(range(T)):
            g_spike = None  # gradient flowing into layer l's output at this timestep
            for l in reversed(range(nl)):
                layer, nrn = net.layers[l], net.neurons[l]
                u_pre = cache.u_pre[t][l]

                if l == nl - 1:
                    # Non-firing head: output is the membrane itself, and with no
                    # reset the temporal factor is plain tau.
                    g_u, kept = g_out_t, True
                else:
                    kept = ~(u_pre >= threshold_for(u_pre, nrn))  # not reset at this step
                    g_u = g_spike * fire_backward(u_pre, nrn)
                if g_u_next[l] is not None:
                    g_u = g_u + g_u_next[l] * (nrn.tau * kept)
                g_u_next[l] = g_u

                if layer.has_affine:
                    raw = cache.raw_current[t][l]
                    grads.gamma[l] += _sum_per_channel(g_u * raw)
                    grads.beta[l] += _sum_per_channel(g_u)
                    g_c = _per_channel(layer.affine_gamma, g_u) * g_u
                else:
                    g_c = g_u

                x_in = cache.inputs[t][l]
                if layer.kind == L.DENSE:
                    _add_weight_grad(grads, l, layer, np.einsum("bi,bj->ij", g_c, x_in))
                else:
                    pending.append((l, _worker().submit(
                        conv2d_kernel_grad, x_in, g_c, layer.stride, layer.padding,
                        layer.w_latent.shape[2])))
                if grads.alpha[l] is not None:
                    grads.alpha[l] += L.alpha_grad(layer, g_c, x_in, surrogate)

                if l > 0:
                    w = L.effective_weights(layer, surrogate) if layer.binarize \
                        else layer.w_latent
                    if layer.kind == L.DENSE:
                        g_x = np.einsum("bi,ij->bj", g_c, w)
                    else:
                        g_x = conv2d_input_grad(g_c, w, layer.stride, layer.padding,
                                                x_in.shape[2:])
                    g_spike = g_x.reshape(cache.u_pre[t][l - 1].shape)
        for l, task in pending:
            _add_weight_grad(grads, l, net.layers[l], task.result())
    finally:  # after a failure: drop the tasks not begun, wait for the one running
        for _, task in pending:
            if not task.cancel():
                task.exception()
    return grads


def _add_weight_grad(grads: Gradients, l: int, layer: L.BinaryLayer, g_w_eff) -> None:
    """Accumulate layer l's weight gradient, through the amplitude and the
    straight-through window on a binarized layer."""
    if layer.binarize:
        g_w_eff = L.ste_weight_grad(L._alpha_over_outputs(layer) * g_w_eff, layer.w_latent)
    grads.w[l] += g_w_eff


@functools.cache
def _worker():
    """The thread that runs conv kernel gradients (see the module docstring)."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="kernel-grad")


if hasattr(os, "register_at_fork"):  # a forked child inherits the worker but not its thread
    os.register_at_fork(after_in_child=_worker.cache_clear)


def _sum_per_channel(arr: np.ndarray) -> np.ndarray:
    axes = (0,) + tuple(range(2, arr.ndim))
    return arr.sum(axis=axes)


def sgd_step(params, grads, velocity, lr: float, momentum: float) -> None:
    """Classical momentum update, in place: v <- m*v + g; p <- p - lr*v."""
    for p, g, v in zip(params, grads, velocity):
        v *= momentum
        v += g
        p -= lr * v


class SgdOptimizer:
    """Momentum SGD over all network parameters, re-imposing the layer
    invariants (latent clip window, positive amplitude floor) after each step."""

    def __init__(self, net: Network, momentum: float = 0.9):
        self.momentum = momentum
        self.velocity = Gradients.zeros(net)

    def step(self, net: Network, grads: Gradients, lr: float) -> None:
        slots = [(p, getattr(grads, name)[l], getattr(self.velocity, name)[l])
                 for l, layer in enumerate(net.layers) for name, p in L._params(layer)]
        sgd_step(*zip(*slots), lr, self.momentum)
        for layer in net.layers:
            if layer.binarize:
                L.clip_latent(layer)
                np.maximum(layer.alpha, L.ALPHA_FLOOR, out=layer.alpha)


def cosine_lr(epoch: int, total_epochs: int, lr0: float) -> float:
    """lr0 * 0.5 * (1 + cos(pi * epoch / total)): lr0 at 0, zero at the end."""
    if not 0 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs}]")
    if total_epochs == 0:
        return lr0
    return lr0 * 0.5 * (1.0 + np.cos(np.pi * epoch / total_epochs))


def train(net: Network, data, cfg: TrainConfig):
    """Run the full training loop; returns (net, per-epoch metric records).

    Deterministic given cfg.seed: the only randomness is the epoch shuffle.
    Raises TrainingError (with the epoch index) if the loss goes non-finite,
    and ModeError for an amplitude-folded network.
    """
    if net.inference_form:
        raise ModeError("network is amplitude-folded: train it before fold_alpha")
    x, y = _samples_and_labels(net, *data)
    if len(x) == 0:
        raise ValueError("training dataset is empty")
    rng = np.random.default_rng(cfg.seed)
    opt = SgdOptimizer(net, cfg.momentum)
    metrics = []
    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, cfg.epochs, cfg.lr0)
        order = rng.permutation(len(x))
        losses = []
        correct = 0
        for start in range(0, len(x), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = x[idx], y[idx]
            outputs, cache = forward_pass(net, xb)
            o = aggregate_output(outputs)
            loss = ce_loss(o, yb)
            if not np.isfinite(loss):
                raise TrainingError("loss diverged to non-finite value", epoch=epoch)
            losses.append(loss)
            correct += int((o.argmax(axis=1) == yb).sum())
            grads = backward_stbp(net, cache, ce_loss_grad(o, yb))
            opt.step(net, grads, lr)
        metrics.append({
            "epoch": epoch,
            "lr": float(lr),
            "loss": float(np.mean(losses)),
            "acc": correct / len(x),
        })
    return net, metrics


GRADCHECK_EPS = 1e-6         # central-difference step
GRADCHECK_MARGIN = 1e-4      # skip latent weights this close to 0 or +/-1
GRADCHECK_TOLERANCE = 1e-3   # the largest relative error that passes


@dataclass
class GradCheckReport:
    max_rel_w: float
    max_rel_alpha: float
    checked: int
    skipped: int
    tolerance: float
    max_rel_affine: float = 0.0

    @property
    def max_rel(self) -> float:
        return max(self.max_rel_w, self.max_rel_alpha, self.max_rel_affine)

    @property
    def passed(self) -> bool:
        return self.max_rel <= self.tolerance


def gradient_check(net: Network, batch, labels) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Both sides run the surrogate forward in which sign(w) is replaced by
    clip(w, -1, 1); its exact derivative is the straight-through window, so
    the analytic backward is unbiased for it. Latent entries within
    GRADCHECK_MARGIN of the binarization boundaries (0 and +/-1) are
    skipped.
    """
    batch, labels = _samples_and_labels(net, batch, labels)

    def loss_now() -> float:
        outputs, _ = forward_pass(net, batch, surrogate=True, for_backward=False)
        return ce_loss(aggregate_output(outputs), labels)

    outputs, cache = forward_pass(net, batch, surrogate=True)
    o = aggregate_output(outputs)
    grads = backward_stbp(net, cache, ce_loss_grad(o, labels))
    worst = dict.fromkeys(vars(grads), 0.0)
    checked = skipped = 0
    for l, layer in enumerate(net.layers):
        for name, param in L._params(layer):
            flat, analytic = param.reshape(-1), getattr(grads, name)[l].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                if name == "w" and layer.binarize and \
                        min(abs(orig), abs(abs(orig) - 1.0)) <= GRADCHECK_MARGIN:
                    skipped += 1
                    continue
                flat[i] = orig + GRADCHECK_EPS
                lp = loss_now()
                flat[i] = orig - GRADCHECK_EPS
                lm = loss_now()
                flat[i] = orig
                fd = (lp - lm) / (2 * GRADCHECK_EPS)
                err = abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd), 1e-6)
                worst[name] = max(worst[name], err)
                checked += 1
    return GradCheckReport(worst["w"], worst["alpha"], checked, skipped, GRADCHECK_TOLERANCE,
                           max(worst["gamma"], worst["beta"]))
