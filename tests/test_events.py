"""Event-driven kernel, sparsity accounting, and the energy model."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reverb_snn import events as events_module
from reverb_snn import numerics

from reverb_snn.errors import DimensionError, ModeError, StateError
from reverb_snn.events import (EventList, OpCounter, SparsityMeter,
                               addition_only_forward, count_flops,
                               estimate_energy, evaluate_dense, evaluate_event_driven,
                               event_forward, events_from_spikes,
                               layer_additions)
from reverb_snn.layers import CONV, DENSE, BinaryLayer, binarize_weights
from reverb_snn.network import MODE_LEARNABLE, MODE_REVERB, MODES, Network, build_network
from reverb_snn.neuron import NeuronParams
from reverb_snn.numerics import conv2d, matmul
from reverb_snn.reparam import fold_alpha
from reverb_snn.training import forward_pass


def sign_dense(rng, n_out, n_in):
    return BinaryLayer(
        w_latent=binarize_weights(rng.uniform(-1, 1, (n_out, n_in))),
        alpha=np.ones(n_out), binarize=True, kind=DENSE,
    )


INT64 = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), -1, 0, 2**63 - 1])


@st.composite
def event_lists(draw):
    """Index lists over the whole int64 range, its ends drawn often, half of
    them strictly increasing, and values that include +-0.0, NaN and +-inf."""
    indices = draw(st.lists(INT64, max_size=6)
                   | st.lists(INT64, max_size=6, unique=True).map(sorted))
    values = draw(st.lists(st.floats() | st.sampled_from([0.0, -0.0]),
                           min_size=len(indices), max_size=len(indices)))
    return indices, values


class TestEventList:
    @pytest.mark.parametrize("value", [0.0, -0.0])
    def test_rejects_zero_values(self, value):
        with pytest.raises(ValueError):
            EventList(indices=[0, 1], values=[1.0, value])

    # The last pair's difference does not fit in int64.
    @pytest.mark.parametrize("indices", [[1, 1], [2, 1], [2**63 - 1, -(2**63)]])
    def test_rejects_duplicate_or_decreasing_indices(self, indices):
        with pytest.raises(ValueError):
            EventList(indices=indices, values=[0.5, 0.5])

    def test_accepts_int64_extremes_in_order(self):
        ev = EventList(indices=[-(2**63), 2**63 - 1], values=[0.5, 0.5])
        assert ev.indices.tolist() == [-(2**63), 2**63 - 1]

    @pytest.mark.parametrize("indices, values", [(3, 0.5), ([[0, 1]], [[0.5, 0.5]])])
    def test_non_1d_indices_are_dimension_error(self, indices, values):
        with pytest.raises(DimensionError):
            EventList(indices=indices, values=values)

    @pytest.mark.parametrize("indices", [[0.5, 1.7], [0.0, 1.0], [True, False]])
    def test_non_integer_indices_are_dimension_error(self, indices):
        with pytest.raises(DimensionError):
            EventList(indices=indices, values=[1.0, 2.0])

    def test_empty_list_is_accepted_though_it_reads_as_float(self):
        assert len(EventList(indices=[], values=[])) == 0

    @given(event_lists())
    def test_accepts_exactly_nonzero_values_at_increasing_indices(self, pairs):
        indices, values = pairs
        valid = (all(v != 0 for v in values)
                 and all(a < b for a, b in zip(indices, indices[1:])))
        if not valid:
            with pytest.raises(ValueError):
                EventList(indices=indices, values=values)
            return
        ev = EventList(indices=indices, values=values)
        assert ev.indices.tolist() == indices
        np.testing.assert_array_equal(ev.values, values)

    def test_from_spikes_drops_zeros_keeps_order(self):
        ev = events_from_spikes(np.array([0.0, 0.7, 0.0, -0.2]))
        np.testing.assert_array_equal(ev.indices, [1, 3])
        np.testing.assert_array_equal(ev.values, [0.7, -0.2])

    def test_from_spikes_row_major_on_conv_maps(self):
        spikes = np.zeros((2, 2, 2))
        spikes[0, 1, 1] = 0.5
        spikes[1, 0, 0] = 0.25
        ev = events_from_spikes(spikes)
        np.testing.assert_array_equal(ev.indices, [3, 4])


class TestAdditionOnlyForward:
    def test_empty_event_list_silence(self):
        rng = np.random.default_rng(0)
        layer = sign_dense(rng, 5, 8)
        counter = OpCounter()
        out = addition_only_forward(layer, events_from_spikes(np.zeros(8)), counter=counter)
        np.testing.assert_array_equal(out, np.zeros(5))
        assert counter.accumulations == 0

    def test_single_event_hand_case(self):
        layer = BinaryLayer(w_latent=np.array([[1.0], [-1.0]]),
                            alpha=np.ones(2), binarize=True, kind=DENSE)
        out = addition_only_forward(layer, events_from_spikes(np.array([0.7])))
        np.testing.assert_array_equal(out, [0.7, -0.7])

    def test_bitwise_equal_to_dense_reference(self):
        rng = np.random.default_rng(1)
        layer = sign_dense(rng, 12, 30)
        for _ in range(300):
            spikes = rng.uniform(-1, 1, 30) * (rng.uniform(0, 1, 30) < 0.3)
            out = addition_only_forward(layer, events_from_spikes(spikes))
            ref = matmul(spikes[None, :], layer.w_latent.T)[0]
            np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (1, 2), (3, 1)])
    def test_conv_bitwise_equal_to_dense_reference(self, stride, padding):
        rng = np.random.default_rng(2)
        w = binarize_weights(rng.uniform(-1, 1, (4, 3, 3, 3)))
        layer = BinaryLayer(w_latent=w, alpha=np.ones(4), binarize=True,
                            kind=CONV, stride=stride, padding=padding)
        for _ in range(30):
            spikes = rng.uniform(-1, 1, (3, 7, 7)) * (rng.uniform(0, 1, (3, 7, 7)) < 0.25)
            out = addition_only_forward(layer, events_from_spikes(spikes),
                                        input_shape=spikes.shape)
            np.testing.assert_array_equal(out, conv2d(spikes, w, stride, padding))

    def test_rejects_unfolded_alpha(self):
        rng = np.random.default_rng(3)
        layer = sign_dense(rng, 3, 4)
        layer.alpha[:] = 0.5
        with pytest.raises(ModeError):
            addition_only_forward(layer, events_from_spikes(np.ones(4)))

    def test_rejects_non_sign_weights(self):
        layer = BinaryLayer(w_latent=np.array([[0.5, -1.0]]), alpha=np.ones(1),
                            binarize=True, kind=DENSE)
        with pytest.raises(ModeError):
            addition_only_forward(layer, events_from_spikes(np.ones(2)))

    def test_no_weight_activation_multiplications(self):
        rng = np.random.default_rng(4)
        layer = sign_dense(rng, 6, 10)
        counter = OpCounter()
        spikes = rng.uniform(0, 1, 10)
        addition_only_forward(layer, events_from_spikes(spikes), counter=counter)
        assert counter.weight_activation_mults == 0
        assert counter.accumulations == 10 * 6

    def test_sop_charge_matches_s_t_a_for_dense(self):
        # one SOP per event-connection: over a pass this is s*T*A exactly.
        rng = np.random.default_rng(5)
        layer = sign_dense(rng, 7, 20)
        counter = OpCounter()
        total_events = 0
        for _ in range(10):
            spikes = rng.uniform(0, 1, 20) * (rng.uniform(0, 1, 20) < 0.4)
            ev = events_from_spikes(spikes)
            total_events += len(ev)
            addition_only_forward(layer, ev, counter=counter)
        assert counter.accumulations == total_events * 7

    def test_multiply_path_is_counted_as_multiplies(self, monkeypatch):
        # The audit can fail: a kernel that multiplies by its +-1 weights
        # keeps every output bit (x * +-1 is exact) and every accumulation,
        # but `_accumulate` counts each product it forms.
        rng = np.random.default_rng(12)
        dense = sign_dense(rng, 16, 16)
        conv = BinaryLayer(w_latent=binarize_weights(rng.uniform(-1, 1, (16, 8, 3, 3))),
                           alpha=np.ones(16), binarize=True, kind=CONV, stride=2, padding=1)
        dense_spikes = np.zeros(16)
        dense_spikes[::2] = rng.uniform(0.1, 1, 8)
        calls = [(dense, dense_spikes, 8 * 16),
                 (conv, _sparse_spikes(rng, (8, 8, 8), 0.6), 8 * 3 * 3 * 16 * 4 * 4)]
        adding = [OpCounter(), OpCounter()]
        refs = [addition_only_forward(layer, events_from_spikes(spikes), spikes.shape, c)
                for (layer, spikes, _), c in zip(calls, adding)]
        monkeypatch.setattr(events_module, "_accumulate",
                            lambda *args, signed, **kw: numerics._accumulate(*args, **kw))
        for (layer, spikes, products), ref, added in zip(calls, refs, adding):
            counter = OpCounter()
            out = addition_only_forward(layer, events_from_spikes(spikes), spikes.shape, counter)
            assert out.tobytes() == ref.tobytes()
            assert counter.accumulations == added.accumulations > 0
            assert added.weight_activation_mults == 0
            assert counter.weight_activation_mults == products

    def test_conv_event_index_outside_input_is_dimension_error(self):
        layer = BinaryLayer(w_latent=np.ones((2, 1, 3, 3)), alpha=np.ones(2),
                            binarize=True, kind=CONV, padding=1)
        for indices in ([5, 30], [-1, 5]):
            with pytest.raises(DimensionError):
                addition_only_forward(layer, EventList(indices=indices, values=[0.5, 0.5]),
                                      input_shape=(1, 4, 4))

    def test_dense_event_index_outside_input_is_dimension_error(self):
        layer = sign_dense(np.random.default_rng(6), 3, 4)
        for indices in ([1, 4], [-1, 2]):
            with pytest.raises(DimensionError):
                addition_only_forward(layer, EventList(indices=indices, values=[0.5, 0.5]))

    def test_conv_input_channels_disagreeing_with_kernels_rejected(self):
        layer = BinaryLayer(w_latent=np.ones((2, 3, 3, 3)), alpha=np.ones(2),
                            binarize=True, kind=CONV, padding=1)
        with pytest.raises(DimensionError):
            addition_only_forward(layer, EventList(indices=[0], values=[0.5]),
                                  input_shape=(2, 5, 5))


def _sparse_spikes(rng, shape, density):
    return rng.uniform(-1, 1, shape) * (rng.uniform(0, 1, shape) < density)


class TestEventKernelProperties:
    """The event kernel against the fixed-order dense kernels, bit for bit,
    with `accumulations` counted independently of the kernel."""

    @given(seed=st.integers(0, 2**32 - 1), n_out=st.integers(1, 12),
           n_in=st.integers(1, 40), density=st.floats(0.0, 1.0))
    def test_dense_bitwise_and_counted(self, seed, n_out, n_in, density):
        rng = np.random.default_rng(seed)
        layer = sign_dense(rng, n_out, n_in)
        spikes = _sparse_spikes(rng, n_in, density)
        counter = OpCounter()
        out = addition_only_forward(layer, events_from_spikes(spikes), counter=counter)
        ref = matmul(spikes[None, :], layer.w_latent.T)[0]
        assert out.tobytes() == ref.tobytes()
        assert counter.accumulations == n_out * np.count_nonzero(spikes)

    @given(seed=st.integers(0, 2**32 - 1), c_in=st.integers(1, 3), c_out=st.integers(1, 4),
           k=st.integers(1, 3), h=st.integers(1, 8), w=st.integers(1, 8),
           stride=st.integers(1, 3), padding=st.integers(0, 2), density=st.floats(0.0, 1.0))
    def test_conv_bitwise_and_counted(self, seed, c_in, c_out, k, h, w, stride, padding,
                                      density):
        h, w = max(h, k - 2 * padding), max(w, k - 2 * padding)
        rng = np.random.default_rng(seed)
        kernels = binarize_weights(rng.uniform(-1, 1, (c_out, c_in, k, k)))
        layer = BinaryLayer(w_latent=kernels, alpha=np.ones(c_out), binarize=True,
                            kind=CONV, stride=stride, padding=padding)
        spikes = _sparse_spikes(rng, (c_in, h, w), density)
        counter = OpCounter()
        out = addition_only_forward(layer, events_from_spikes(spikes),
                                    input_shape=spikes.shape, counter=counter)
        ref = conv2d(spikes, kernels, stride, padding)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
        h_out, w_out = ref.shape[1:]
        landings = 0
        for _, y, x in zip(*np.nonzero(spikes)):
            for ky in range(k):
                for kx in range(k):
                    oy, ry = divmod(y + padding - ky, stride)
                    ox, rx = divmod(x + padding - kx, stride)
                    landings += not ry and not rx and 0 <= oy < h_out and 0 <= ox < w_out
        assert type(counter.accumulations) is int
        assert counter.accumulations == c_out * landings


def _dense_event_oracle(w, spikes):
    """Sign-select loop: each event, in ascending input order, adds +v or -v
    to every output; returns the currents and the number of terms added."""
    out = np.zeros(w.shape[0])
    terms = 0
    for j in np.flatnonzero(spikes):
        for o in range(w.shape[0]):
            out[o] += spikes[j] if w[o, j] > 0 else -spikes[j]
            terms += 1
    return out, terms


def _conv_event_oracle(w, spikes, stride, padding):
    """Sign-select loop over every output and its (c_in, ky, kx) taps in
    ascending order, adding only nonzero inputs; returns the currents and the
    number of terms added."""
    c_out, c_in, k, _ = w.shape
    xp = np.pad(spikes, ((0, 0), (padding, padding), (padding, padding)))
    h_out = (xp.shape[1] - k) // stride + 1
    w_out = (xp.shape[2] - k) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    terms = 0
    for co in range(c_out):
        for oy in range(h_out):
            for ox in range(w_out):
                for ci in range(c_in):
                    for ky in range(k):
                        for kx in range(k):
                            v = xp[ci, oy * stride + ky, ox * stride + kx]
                            if v != 0.0:
                                out[co, oy, ox] += v if w[co, ci, ky, kx] > 0 else -v
                                terms += 1
    return out, terms


# One term per block, blocks of a few terms with a short last block, and the
# shipped size (numerics._BLOCK elements).
BLOCKS = (1, 2, 3, 7, numerics._BLOCK)


class TestEventKernelBlocks:
    """Both event branches against sign-select loop oracles under every block
    size: the same bits and the same accumulation count. Outputs range over
    both sides of numerics._BINCOUNT (256 elements), the largest output whose
    blocks are added with one np.bincount call."""

    @given(block=st.sampled_from(BLOCKS), seed=st.integers(0, 2**32 - 1),
           n_out=st.one_of(st.integers(1, 12), st.sampled_from([255, 256, 257, 300])),
           n_in=st.integers(1, 40), density=st.floats(0.0, 1.0))
    def test_dense(self, block, seed, n_out, n_in, density):
        rng = np.random.default_rng(seed)
        layer = sign_dense(rng, n_out, n_in)
        spikes = _sparse_spikes(rng, n_in, density)
        counter = OpCounter()
        with mock.patch.object(numerics, "_BLOCK", block):
            out = addition_only_forward(layer, events_from_spikes(spikes), counter=counter)
        want, terms = _dense_event_oracle(layer.w_latent, spikes)
        assert out.tobytes() == want.tobytes()
        assert counter.accumulations == terms

    @given(block=st.sampled_from(BLOCKS), seed=st.integers(0, 2**32 - 1),
           c_in=st.integers(1, 3), c_out=st.integers(1, 16), k=st.integers(1, 3),
           h=st.integers(1, 8), w=st.integers(1, 8), stride=st.integers(1, 3),
           padding=st.integers(0, 2), density=st.floats(0.0, 1.0))
    def test_conv(self, block, seed, c_in, c_out, k, h, w, stride, padding, density):
        h, w = max(h, k - 2 * padding), max(w, k - 2 * padding)
        rng = np.random.default_rng(seed)
        kernels = binarize_weights(rng.uniform(-1, 1, (c_out, c_in, k, k)))
        layer = BinaryLayer(w_latent=kernels, alpha=np.ones(c_out), binarize=True,
                            kind=CONV, stride=stride, padding=padding)
        spikes = _sparse_spikes(rng, (c_in, h, w), density)
        counter = OpCounter()
        with mock.patch.object(numerics, "_BLOCK", block):
            out = addition_only_forward(layer, events_from_spikes(spikes),
                                        input_shape=spikes.shape, counter=counter)
        want, terms = _conv_event_oracle(kernels, spikes, stride, padding)
        assert out.shape == want.shape and out.tobytes() == want.tobytes()
        assert counter.accumulations == terms


class TestResultsOwnTheirMemory:
    """Both event branches reduce through numerics' scratch store; each result
    must be a fresh array that later calls leave alone. The outputs exceed
    numerics._BINCOUNT, so the reduction's sum is scratch."""

    @staticmethod
    def _dense(rng):
        layer = sign_dense(rng, 300, 40)
        return addition_only_forward(layer, events_from_spikes(_sparse_spikes(rng, 40, 0.5)))

    @staticmethod
    def _conv(rng):
        kernels = binarize_weights(rng.uniform(-1, 1, (16, 8, 3, 3)))
        layer = BinaryLayer(w_latent=kernels, alpha=np.ones(16), binarize=True, kind=CONV,
                            stride=1, padding=1)
        spikes = _sparse_spikes(rng, (8, 8, 8), 0.5)
        return addition_only_forward(layer, events_from_spikes(spikes), input_shape=spikes.shape)

    @pytest.mark.parametrize("branch", ["_dense", "_conv"])
    def test_result_survives_later_calls(self, branch):
        rng = np.random.default_rng(9)
        first = getattr(self, branch)(rng)
        kept = first.copy()
        second = getattr(self, branch)(rng)
        assert not np.shares_memory(first, second)
        self._dense(rng), self._conv(rng)
        matmul(rng.uniform(-1, 1, (4, 40)), rng.uniform(-1, 1, (40, 300)))
        for buf in vars(numerics._SLOTS).values():  # the calling thread's
            assert not np.shares_memory(first, buf) and not np.shares_memory(second, buf)
        assert first.tobytes() == kept.tobytes()


def _mlp(hidden):
    """A 3-input, 2-class MLP with the given hidden layers."""
    return build_network(hidden, (3,), 2, MODE_REVERB, timesteps=1, seed=0)


class TestSparsityMeter:
    def test_all_silent_gives_zero(self):
        m = SparsityMeter(_mlp("d4 d4"))
        m.record(1, np.zeros((2, 4)))
        assert m.per_layer() == {1: 0.0}
        assert m.sops == 0

    def test_all_firing_gives_one(self):
        m = SparsityMeter(_mlp("d4 d4"))
        m.record(1, np.ones((2, 4)))
        assert m.per_layer() == {1: 1.0}
        assert m.sops == 2 * 4 * 4  # each input reaches the layer's 4 outputs

    def test_weighted_mean(self):
        m = SparsityMeter(_mlp("d4 d8 d2"))  # middle layers 4->8 and 8->2
        assert m.additions == {1: 32, 2: 16}
        m.record(1, np.array([[1.0, 0.0, 1.0, 0.0]]))  # s = 0.5
        m.record(2, np.array([[1.0] * 6 + [0.0] * 2]))  # s = 0.75
        assert m.mean() == pytest.approx((0.5 * 32 + 0.75 * 16) / 48)

    def test_empty_records_rejected(self):
        m = SparsityMeter(_mlp("d4 d8 d2"))
        with pytest.raises(StateError):
            m.per_layer()
        m.record(1, np.ones((1, 4)))  # layer 2 still unrecorded
        with pytest.raises(StateError):
            m.mean()

    @pytest.mark.parametrize("layer_id", [0, 2, 3])
    def test_layer_outside_the_meter_rejected(self, layer_id):
        # Layer 0 is the encoder and 2 the head of a three-layer net: not metered.
        with pytest.raises(DimensionError, match=f"layer {layer_id} "):
            SparsityMeter(_mlp("d4 d4")).record(layer_id, np.ones((1, 4)))

    def test_no_middle_layer_meters_nothing(self):
        m = SparsityMeter(_mlp("d4"))  # encoder and head only
        assert m.per_layer() == {}
        assert m.mean() == 0.0
        assert m.sops == 0


class TestOperationCounts:
    def test_dense_additions_closed_form(self):
        net = build_network("d16 d16", (10,), 3, MODE_REVERB, timesteps=2, seed=0)
        # middle layer is 16 -> 16
        assert layer_additions(net) == {1: 16 * 16}

    def test_conv_additions_match_loop_enumeration(self):
        net = build_network("c8 c16s2", (1, 8, 8), 4, MODE_REVERB, timesteps=2, seed=0)
        mid = net.layers[1]
        c_out, c_in, k, _ = mid.w_latent.shape
        # enumerate output positions x kernel taps, the equivalent dense count
        h_out = w_out = 4
        count = 0
        for _ in range(c_out):
            for _ in range(h_out):
                for _ in range(w_out):
                    for _ in range(c_in):
                        for _ in range(k):
                            for _ in range(k):
                                count += 1
        assert layer_additions(net) == {1: count}

    def test_flops_encoder_and_head_per_timestep(self):
        net = build_network("d16 d16", (10,), 3, MODE_REVERB, timesteps=2, seed=0)
        per_step = 10 * 16 + 16 * 3
        assert count_flops(net) == per_step * 2
        assert count_flops(build_network("d16 d16", (10,), 3, MODE_REVERB, timesteps=5,
                                         seed=0)) == per_step * 5

    def test_one_layer_network_charges_its_head_once(self):
        """A network that is only a 3->2 dense head has no middle layer: its 6
        MACs are FLOPs, charged once per timestep, and no layer takes SOPs."""
        head = BinaryLayer(w_latent=np.ones((2, 3)), alpha=np.ones(2), binarize=False,
                           kind=DENSE)
        net = Network([head], [NeuronParams()], 2, (3,), inference_form=True)
        assert count_flops(net) == 12
        assert layer_additions(net) == {}
        x, y = np.full((4, 3), 0.5), np.array([0, 1, 0, 1])
        assert evaluate_dense(net, x, y)[1].flops == 12
        assert evaluate_event_driven(net, x, y)[1].flops == 12


def _tiny_net(mode, conv, stride, padding, seed):
    """A folded tiny MLP, or a tiny convnet whose middle conv has the given
    stride and padding, with random amplitudes on its binarized layers."""
    if not conv:
        net = build_network("d6 d6 d6", (5,), 2, mode, timesteps=2, seed=seed)
    else:
        net = build_network(f"c2 c3s{stride}p{padding}", (1, 6, 6), 2, mode, timesteps=2,
                            seed=seed)
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        if layer.learn_alpha:
            layer.alpha[:] = rng.uniform(0.3, 1.5, layer.alpha.shape)
    return fold_alpha(net)


def _sop_oracle(net, x):
    """SOPs per sample by loops: every (output, tap or input) pair of a middle
    layer whose input is nonzero, over the inputs `forward_pass` feeds it."""
    _, cache = forward_pass(net, x)
    terms = 0
    for step in cache.inputs:
        for l in range(1, len(net.layers) - 1):
            layer = net.layers[l]
            for spikes in step[l]:
                if layer.kind == DENSE:
                    terms += _dense_event_oracle(layer.w_latent, spikes)[1]
                else:
                    terms += _conv_event_oracle(layer.w_latent, spikes, layer.stride,
                                                layer.padding)[1]
    return terms / len(x)


class TestOneSopCount:
    """Dense and event eval report one SOP count: each nonzero middle-layer
    input costs one SOP per output it reaches."""

    @given(mode=st.sampled_from(MODES), conv=st.booleans(), stride=st.integers(1, 2),
           padding=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
    def test_both_paths_equal_the_loop_oracle(self, mode, conv, stride, padding, seed):
        net = _tiny_net(mode, conv, stride, padding, seed)
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, (4,) + net.input_shape)
        y = rng.integers(0, 2, 4)
        _, dense = evaluate_dense(net, x, y)
        _, event, counter = evaluate_event_driven(net, x, y)
        assert dense.sops == event.sops == _sop_oracle(net, x)
        assert dense.sparsity_per_layer == event.sparsity_per_layer
        meter = SparsityMeter(net)  # the public meter, fed sample by sample
        for sample in x:
            event_forward(net, sample, meter=meter)
        assert meter.sops / len(x) == event.sops
        assert meter.per_layer() == event.sparsity_per_layer
        if mode != "vanilla":
            assert event.sops == counter.accumulations / len(x)


class TestEstimateEnergy:
    def test_published_vanilla_row(self):
        report = estimate_energy(3.54e6, 71.20e6)
        assert report.energy_joules * 1e6 == pytest.approx(49.73, abs=0.01)

    def test_published_reverb_row(self):
        report = estimate_energy(3.54e6, 74.50e6)
        assert report.energy_joules * 1e6 == pytest.approx(49.99, abs=0.01)

    def test_zero_counts_zero_energy(self):
        assert estimate_energy(0, 0).energy_joules == 0.0

    def test_energy_identity_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            f, s = rng.uniform(0, 1e8, 2)
            r = estimate_energy(f, s)
            assert r.energy_joules == f * 12.5e-12 + s * 77e-15

    @pytest.mark.parametrize("flops, sops", [(-1, 0), (0, -1), (np.nan, 0), (0, np.nan)])
    def test_negative_counts_rejected(self, flops, sops):
        with pytest.raises(ValueError):
            estimate_energy(flops, sops)


class TestEventForward:
    def test_folded_event_path_bitwise_equals_dense_forward(self):
        rng = np.random.default_rng(7)
        net = build_network("d12 d12", (6,), 3, MODE_LEARNABLE, timesteps=3, seed=7)
        for layer in net.layers:
            if layer.binarize:
                layer.alpha[:] = rng.uniform(0.3, 1.5, layer.alpha.shape)
        folded = fold_alpha(net)
        x = rng.uniform(0, 1, (5, 6))
        dense_outs, _ = forward_pass(folded, x)
        for i in range(5):
            ev_outs = event_forward(folded, x[i])
            for t in range(3):
                np.testing.assert_array_equal(ev_outs[t], dense_outs[t][i])

    def test_convnet_event_path_bitwise(self):
        rng = np.random.default_rng(8)
        net = build_network("c8 c16s2", (1, 8, 8), 4, MODE_LEARNABLE, timesteps=2, seed=8)
        for layer in net.layers:
            if layer.binarize:
                layer.alpha[:] = rng.uniform(0.3, 1.5, layer.alpha.shape)
        folded = fold_alpha(net)
        x = rng.uniform(0, 1, (3, 1, 8, 8))
        dense_outs, _ = forward_pass(folded, x)
        for i in range(3):
            ev_outs = event_forward(folded, x[i])
            for t in range(2):
                np.testing.assert_array_equal(ev_outs[t], dense_outs[t][i])

    def test_evaluate_event_driven_audit_and_report(self):
        rng = np.random.default_rng(9)
        net = build_network("d12 d12", (6,), 2, MODE_REVERB, timesteps=2, seed=9)
        folded = fold_alpha(net)
        x = rng.uniform(0, 1, (16, 6))
        y = rng.integers(0, 2, 16)
        acc, report, counter = evaluate_event_driven(folded, x, y)
        assert 0.0 <= acc <= 1.0
        assert counter.weight_activation_mults == 0
        assert report.energy_joules == report.flops * 12.5e-12 + report.sops * 77e-15
        assert 0.0 <= report.sparsity <= 1.0

    def test_network_without_middle_layer_evaluates(self):
        # Encoder straight into the head: no SOP layer, so nothing to record.
        rng = np.random.default_rng(10)
        net = build_network("d128", (8,), 2, MODE_REVERB, timesteps=2, seed=10)
        x = rng.uniform(0, 1, (12, 8))
        y = rng.integers(0, 2, 12)
        acc_dense, dense = evaluate_dense(net, x, y)
        acc_event, event, counter = evaluate_event_driven(fold_alpha(net), x, y)
        assert acc_dense == acc_event
        assert counter.accumulations == 0
        for report in (dense, event):
            assert report.sops == 0 and report.sparsity == 0.0
            assert report.sparsity_per_layer == {}
            assert report.flops == count_flops(net) > 0

    def test_dense_only_network_event_sops_equal_dense_estimate(self):
        # For dense layers the accumulations the event kernel performs are
        # s * T * A, and both paths count them the same way.
        rng = np.random.default_rng(12)
        net = fold_alpha(build_network("d16 d16 d16", (8,), 2, MODE_LEARNABLE, timesteps=3,
                                       seed=12))
        x, y = rng.uniform(0, 1, (40, 8)), rng.integers(0, 2, 40)
        _, event, counter = evaluate_event_driven(net, x, y)
        _, dense = evaluate_dense(net, x, y)
        assert counter.accumulations > 0
        assert event.sops == dense.sops == counter.accumulations / len(x)

    @pytest.mark.parametrize("arch", ["d128", "d128 d128"])
    def test_empty_sample_set_is_state_error(self, arch):
        net = build_network(arch, (8,), 2, MODE_REVERB, timesteps=2, seed=0)
        x, y = np.zeros((0, 8)), np.zeros(0, dtype=int)
        with pytest.raises(StateError):
            evaluate_dense(net, x, y)
        with pytest.raises(StateError):
            evaluate_event_driven(fold_alpha(net), x, y)

    def test_requires_inference_form(self):
        net = build_network("d128 d128", (6,), 2, MODE_REVERB, timesteps=2, seed=0)
        with pytest.raises(ModeError):
            evaluate_event_driven(net, np.zeros((2, 6)), np.zeros(2, dtype=int))


class TestSparsityComparison:
    def test_vanilla_vs_reverb_sparsity_reported(self):
        # Both baselines report a sane middle-layer sparsity on a trained
        # desk run; the two values are printed for comparison (the direction
        # at full scale is not reproducible at desk scale).
        from reverb_snn.datasets import rings
        from reverb_snn.events import evaluate_dense
        from reverb_snn.training import TrainConfig, train

        ds = rings(seed=0)
        sparsities = {}
        for mode in (MODE_REVERB, "vanilla"):
            net = build_network("d16 d16", ds.input_shape, 2, mode, timesteps=2, seed=0)
            net, _ = train(net, (ds.train_x, ds.train_y),
                           TrainConfig(epochs=25, lr0=0.03, batch_size=64, seed=0))
            _, report = evaluate_dense(net, ds.test_x, ds.test_y)
            sparsities[mode] = report.sparsity
        print(f"middle-layer sparsity: vanilla={sparsities['vanilla']:.4f} "
              f"reverb={sparsities[MODE_REVERB]:.4f}")
        for s in sparsities.values():
            assert 0.0 < s <= 1.0
