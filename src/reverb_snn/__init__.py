"""Spiking neural network engine with real-valued spike activations and
binary weights: surrogate-gradient training through time, amplitude folding
for inference, an addition-only event-driven kernel, and FLOP/SOP energy
accounting."""

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_config, parse_config_text
from .datasets import Dataset, load_dataset
from .errors import (DimensionError, EngineError, ModeError, ParseError,
                     StateError, TrainingError)
from .events import (EnergyReport, EventList, OpCounter, SparsityMeter,
                     addition_only_forward, count_flops,
                     estimate_energy, evaluate_dense, evaluate_event_driven,
                     event_forward, events_from_spikes, layer_additions)
from .layers import (BinaryLayer, alpha_grad, binarize_weights, clip_latent,
                     effective_weights, ste_weight_grad)
from .network import ARCHITECTURES, MODES, Network, build_network
from .neuron import (FireMode, NeuronParams, fire, fire_backward, fire_binary,
                     fire_real, membrane_update)
from .numerics import conv2d, matmul
from .reparam import fold_alpha, verify_equivalence
from .training import (ForwardCache, Gradients, SgdOptimizer, TrainConfig,
                       aggregate_output, backward_stbp, ce_loss, ce_loss_grad,
                       cosine_lr, forward_pass, gradient_check, sgd_step, train)

__version__ = "0.1.0"
