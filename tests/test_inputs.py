"""The network-input rule and the label rule (one label per sample, each a
class of the network), at every entry point that takes samples."""

import numpy as np
import pytest

from reverb_snn.errors import DimensionError
from reverb_snn.events import evaluate_dense, evaluate_event_driven, event_forward
from reverb_snn.network import MODE_LEARNABLE, build_network
from reverb_snn.reparam import fold_alpha, verify_equivalence
from reverb_snn.training import TrainConfig, forward_pass, gradient_check, train


def _labels(x):
    return np.zeros(len(x), dtype=int)


# Each takes the trained network, its folded form and the input. event_forward
# takes one sample, so it gets the input's first entry.
ENTRY_POINTS = {
    "forward_pass": lambda net, folded, x: forward_pass(net, x),
    "event_forward": lambda net, folded, x: event_forward(folded, x[0]),
    "verify_equivalence": lambda net, folded, x: verify_equivalence(net, folded, x),
    "evaluate_dense": lambda net, folded, x: evaluate_dense(net, x, _labels(x)),
    "evaluate_event_driven": lambda net, folded, x: evaluate_event_driven(folded, x, _labels(x)),
}


@pytest.mark.parametrize("arch, shape", [("mlp-tiny", (8,)), ("convnet-small", (1, 8, 8))])
@pytest.mark.parametrize("bad", ["wrong sample shape", "no batch axis"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_input_that_is_not_a_batch_of_samples_is_dimension_error(entry, bad, arch, shape):
    net = build_network(arch, shape, 2, MODE_LEARNABLE, 2, seed=0)
    if bad == "wrong sample shape":
        x = np.full((3,) + shape[:-1] + (shape[-1] + 1,), 0.5)
    else:
        x = np.full(shape, 0.5)
    with pytest.raises(DimensionError):
        ENTRY_POINTS[entry](net, fold_alpha(net), x)


# The entry points that take labels; each takes the trained network.
LABELLED_ENTRY_POINTS = {
    "evaluate_dense": lambda net, x, y: evaluate_dense(net, x, y),
    "evaluate_event_driven": lambda net, x, y: evaluate_event_driven(fold_alpha(net), x, y),
    "train": lambda net, x, y: train(net, (x, y), TrainConfig(epochs=1, seed=0)),
    "gradient_check": lambda net, x, y: gradient_check(net, x, y),
}


@pytest.mark.parametrize("entry", LABELLED_ENTRY_POINTS)
def test_fewer_labels_than_samples_is_dimension_error(entry):
    net = build_network("mlp-tiny", (8,), 2, MODE_LEARNABLE, 2, seed=0)
    rng = np.random.default_rng(0)
    x, y = rng.uniform(0, 1, (20, 8)), rng.integers(0, 2, 10)
    with pytest.raises(DimensionError, match="20 samples but 10 labels"):
        LABELLED_ENTRY_POINTS[entry](net, x, y)


@pytest.mark.parametrize("entry", LABELLED_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [2, 5, -1])
def test_label_outside_the_classes_is_dimension_error(entry, bad):
    net = build_network("mlp-tiny", (8,), 2, MODE_LEARNABLE, 2, seed=0)
    rng = np.random.default_rng(0)
    x, y = rng.uniform(0, 1, (4, 8)), np.array([0, 1, bad, 1])
    with pytest.raises(DimensionError, match=rf"labels \[{bad}\] outside \[0, 2\)"):
        LABELLED_ENTRY_POINTS[entry](net, x, y)


@pytest.mark.parametrize("entry", LABELLED_ENTRY_POINTS)
@pytest.mark.parametrize("bad", ["2-D", "non-integer"])
def test_labels_that_are_not_a_1d_integer_array_are_dimension_error(entry, bad):
    # A (4, 1) label column broadcasts against the predictions, and y + 0.5
    # matches no class: neither can be scored.
    net = build_network("mlp-tiny", (8,), 2, MODE_LEARNABLE, 2, seed=0)
    rng = np.random.default_rng(0)
    x, y = rng.uniform(0, 1, (4, 8)), np.array([0, 1, 0, 1])
    y = y[:, None] if bad == "2-D" else y + 0.5
    with pytest.raises(DimensionError, match="labels must be a 1-D integer array"):
        LABELLED_ENTRY_POINTS[entry](net, x, y)
