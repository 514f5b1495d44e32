"""Post-training re-parameterization: strip the learned amplitude out of each
binarized layer's weights and re-apply it in the firing function.

The folded network fires with the same real-valued rule; each folded layer
only gains a per-channel firing scale (`NeuronParams.scale`).

A binarized layer computes u = tau*u + alpha_c * (sign(W) . o). Because
alpha_c > 0 is attached to the layer's own output channel c, the whole
membrane trajectory of that channel is linear in alpha_c between resets, so
dividing it out is exact: the folded layer integrates the pure-sign current
(additions only), gates at the rescaled threshold v_th / alpha_c (the gate
u >= v_th is equivalent to u/alpha_c >= v_th/alpha_c), and multiplies the
emitted spike by alpha_c at fire time. The emitted values -- and therefore
everything downstream -- are unchanged; with power-of-two amplitudes the
equality is exact even in floating point.

Note the amplitude must stay attached to the channel it scales. Folding a
per-output-channel amplitude into the *previous* layer's firing function is
only exact when the amplitude is constant, because diag(alpha) . W . o is
not W . diag(s) . o for any s; re-applying it at the owning layer's own
firing keeps the transformation exact for every threshold.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

from .layers import binarize_weights
from .network import Network
from .training import aggregate_output, forward_pass


def fold_alpha(net: Network) -> Network:
    """Return the inference-form network with pure {-1,+1} binarized weights.

    Binarized layers with a non-unit amplitude move it into their firing
    scale, whose gate is then v_th / scale per channel. Layers already at
    alpha == 1 are left untouched, so refolding a folded network is a no-op.
    """
    folded = copy.deepcopy(net)
    for l, layer in enumerate(folded.layers):
        if not layer.binarize:
            continue
        layer.w_latent = binarize_weights(layer.w_latent)
        if (layer.alpha == 1.0).all():
            continue
        scale = layer.alpha.copy()
        layer.alpha = np.ones_like(scale)
        if layer.has_affine:
            # Membrane rescaling u -> u/alpha divides the additive shift too;
            # the multiplicative gamma commutes and stays put.
            layer.affine_beta = layer.affine_beta / scale
        folded.neurons[l] = dataclasses.replace(folded.neurons[l], scale=scale)
    folded.inference_form = True
    return folded


def verify_equivalence(net: Network, inf_net: Network, probes: np.ndarray) -> float:
    """Max aggregated-output difference between the two networks over a probe
    batch, relative to the output magnitude (floored at 1)."""
    a = aggregate_output(forward_pass(net, probes, for_backward=False)[0])
    b = aggregate_output(forward_pass(inf_net, probes, for_backward=False)[0])
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))
