"""Membrane dynamics and the two firing rules, the real one with and without
a firing scale."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reverb_snn.errors import DimensionError, ModeError
from reverb_snn.neuron import (FireMode, NeuronParams, fire,
                               fire_backward, fire_binary, fire_real,
                               membrane_update)


def binary_params(tau=0.25, v_th=0.0):
    return NeuronParams(tau=tau, v_th=v_th, mode=FireMode.BINARY)


def real_params(tau=0.25, v_th=0.0):
    return NeuronParams(tau=tau, v_th=v_th, mode=FireMode.REAL)


def scaled_params(scale, tau=0.25, v_th=0.0):
    return NeuronParams(tau=tau, v_th=v_th, mode=FireMode.REAL,
                        scale=np.asarray(scale, dtype=np.float64))


class TestMembraneUpdate:
    def test_zero_initial_potential(self):
        state = np.zeros(3)
        new = membrane_update(state, np.array([1.0, -2.0, 0.5]), real_params(tau=0.7))
        np.testing.assert_array_equal(new, [1.0, -2.0, 0.5])

    def test_leak_then_integrate(self):
        state = np.array([1.0])
        new = membrane_update(state, np.array([0.5]), real_params(tau=0.25))
        np.testing.assert_allclose(new, [0.75])

    def test_tau_zero_is_memoryless(self):
        state = np.array([123.0])
        new = membrane_update(state, np.array([0.5]), real_params(tau=0.0))
        np.testing.assert_array_equal(new, [0.5])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            membrane_update(np.zeros(3), np.zeros(2), real_params())

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, ">f8"])
    def test_membrane_other_than_float64_rejected(self, dtype):
        # The in-place add would round a float32 sum to float32, and the
        # result is the membrane that `fire` gates.
        with pytest.raises(TypeError, match="float64"):
            membrane_update(np.zeros(2, dtype=dtype), np.ones(2), real_params())


class TestFireBinary:
    def test_threshold_inclusive(self):
        spikes, _ = fire_binary(np.array([0.5]), binary_params(v_th=0.5))
        np.testing.assert_array_equal(spikes, [1.0])

    def test_below_threshold_no_spike_no_reset(self):
        state = np.array([0.5 - 1e-12])
        spikes, new = fire_binary(state, binary_params(v_th=0.5))
        np.testing.assert_array_equal(spikes, [0.0])
        np.testing.assert_array_equal(new, state)

    def test_mixed_fire_and_reset(self):
        spikes, new = fire_binary(np.array([0.5, -0.3]), binary_params(v_th=0.0))
        np.testing.assert_array_equal(spikes, [1.0, 0.0])
        np.testing.assert_array_equal(new, [0.0, -0.3])

    def test_wrong_mode(self):
        with pytest.raises(ModeError):
            fire_binary(np.zeros(1), real_params())


class TestFireReal:
    def test_emits_membrane_value(self):
        spikes, new = fire_real(np.array([0.7, -0.2]), real_params(v_th=0.0))
        np.testing.assert_array_equal(spikes, [0.7, 0.0])
        np.testing.assert_array_equal(new, [0.0, -0.2])

    def test_silent_below_threshold(self):
        state = np.array([-0.5, -0.1])
        spikes, new = fire_real(state, real_params(v_th=0.0))
        np.testing.assert_array_equal(spikes, [0.0, 0.0])
        np.testing.assert_array_equal(new, state)

    def test_zero_magnitude_spike_at_boundary(self):
        # u == v_th == 0 fires a zero-valued spike; downstream effect is nil.
        spikes, new = fire_real(np.array([0.0]), real_params(v_th=0.0))
        np.testing.assert_array_equal(spikes, [0.0])
        np.testing.assert_array_equal(new, [0.0])

    def test_reset_idempotence(self):
        # After firing, re-evaluating without new input gives no second spike.
        params = real_params(v_th=0.4)
        spikes, state = fire_real(np.array([0.9]), params)
        np.testing.assert_array_equal(spikes, [0.9])
        spikes2, _ = fire_real(state, params)
        np.testing.assert_array_equal(spikes2, [0.0])

    def test_matches_binary_scaled_on_two_level_inputs(self):
        # Inputs restricted to {0, v_th}: real firing == v_th * binary firing.
        v_th = 0.5
        u = np.array([0.0, v_th, 0.0, v_th])
        real_spikes, _ = fire_real(u.copy(), real_params(v_th=v_th))
        bin_spikes, _ = fire_binary(u.copy(), binary_params(v_th=v_th))
        np.testing.assert_array_equal(real_spikes, v_th * bin_spikes)


class TestFireRealScaled:
    def test_unit_scale_equals_fire_real(self):
        u = np.array([0.7, -0.2, 0.0])
        real_spikes, _ = fire_real(u.copy(), real_params())
        scaled_spikes, _ = fire_real(u.copy(), scaled_params(np.ones(3)))
        np.testing.assert_array_equal(real_spikes, scaled_spikes)

    def test_scales_emitted_value(self):
        spikes, new = fire_real(np.array([2.0]), scaled_params([0.5]))
        np.testing.assert_array_equal(spikes, [1.0])
        np.testing.assert_array_equal(new, [0.0])

    def test_gating_precedes_scaling(self):
        spikes, _ = fire_real(
            np.array([-1.0]), scaled_params([100.0], v_th=0.0)
        )
        np.testing.assert_array_equal(spikes, [0.0])

    def test_channel_broadcast_on_conv_maps(self):
        u = np.ones((2, 3, 3))
        u[1] = 2.0
        spikes, _ = fire_real(u, scaled_params([2.0, 0.5]))
        np.testing.assert_array_equal(spikes[0], 2.0 * np.ones((3, 3)))
        np.testing.assert_array_equal(spikes[1], np.ones((3, 3)))

    def test_scale_length_mismatch(self):
        with pytest.raises(DimensionError):
            fire_real(np.zeros(3), scaled_params([1.0, 1.0]))

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            scaled_params([0.0])

    @pytest.mark.parametrize("scale", [[np.inf], [np.nan], [np.inf, np.nan], [1.0, np.inf]])
    def test_non_finite_scale_rejected(self, scale):
        # inf * +0.0 is NaN: a silent neuron of an infinite channel would emit it.
        with pytest.raises(ValueError, match="finite"):
            scaled_params(scale)

    def test_scale_on_the_binary_rule_rejected(self):
        with pytest.raises(ValueError, match="real rule"):
            NeuronParams(mode=FireMode.BINARY, scale=np.array([2.0, 2.0]))

    def test_real_rule_with_scale_emits_scale_times_u(self):
        params = NeuronParams(mode=FireMode.REAL, scale=np.array([2.0, 2.0]))
        spikes, new = fire(np.array([1.5, -1.0]), params)
        np.testing.assert_array_equal(spikes, [3.0, 0.0])
        np.testing.assert_array_equal(new, [0.0, -1.0])


class TestFireBackward:
    def test_real_gradient_is_fired_indicator(self):
        g = fire_backward(np.array([0.7, -0.2]), real_params(v_th=0.0))
        np.testing.assert_array_equal(g, [1.0, 0.0])

    def test_scaled_gradient_is_scale_on_fired(self):
        g = fire_backward(np.array([2.0]), scaled_params([0.5]))
        np.testing.assert_array_equal(g, [0.5])

    def test_binary_window_center(self):
        g = fire_backward(np.array([0.3]), binary_params(v_th=0.3))
        np.testing.assert_array_equal(g, [1.0])

    def test_binary_window_edges(self):
        params = binary_params(v_th=0.0)
        np.testing.assert_array_equal(
            fire_backward(np.array([0.5, -0.5, 0.51, -0.51]), params),
            [1.0, 1.0, 0.0, 0.0],
        )

    def test_real_matches_finite_differences_away_from_gate(self):
        # d(fire_real)/du via central differences at |u - v_th| > 1e-3.
        rng = np.random.default_rng(4)
        params = real_params(v_th=0.0)
        u = rng.uniform(-2, 2, 200)
        u = u[np.abs(u) > 1e-3]
        h = 1e-7

        def f(v):
            spikes, _ = fire_real(v, params)
            return spikes

        fd = (f(u + h) - f(u - h)) / (2 * h)
        np.testing.assert_allclose(fire_backward(u, params), fd, rtol=1e-6, atol=1e-6)


class TestEventDrivenInvariance:
    def test_subthreshold_contributes_exactly_zero(self):
        rng = np.random.default_rng(8)
        u = rng.uniform(-1, -1e-6, 50)
        spikes, _ = fire_real(u, real_params(v_th=0.0))
        w = rng.uniform(-1, 1, (10, 50))
        np.testing.assert_array_equal(w @ spikes, np.zeros(10))

    def test_dispatch_matches_mode(self):
        u = np.array([0.4])
        for params, ref in [
            (binary_params(), fire_binary),
            (real_params(), fire_real),
            (scaled_params([2.0]), fire_real),
        ]:
            got, _ = fire(u.copy(), params)
            want, _ = ref(u.copy(), params)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, ">f8"])
    @pytest.mark.parametrize("params", [binary_params(), real_params(), scaled_params([2.0, 2.0])])
    def test_membrane_other_than_float64_rejected(self, dtype, params):
        # The gate reads the membrane's bits as float64's: any other dtype
        # would fire on garbage, so it is refused.
        with pytest.raises(TypeError, match="float64"):
            fire(np.array([1, -1], dtype=dtype), params)


class TestParamsValidation:
    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            NeuronParams(tau=1.5)
        with pytest.raises(ValueError):
            NeuronParams(tau=-0.1)

    @pytest.mark.parametrize("v_th", [np.inf, -np.inf, np.nan])
    def test_non_finite_threshold_rejected(self, v_th):
        with pytest.raises(ValueError, match="v_th must be a finite scalar"):
            NeuronParams(v_th=v_th)

    def test_vector_threshold_rejected(self):
        # v_th is the scalar base threshold; a folded layer's per-channel
        # gate is derived from its scale, never stored.
        with pytest.raises(ValueError):
            NeuronParams(v_th=np.array([0.0, 0.5]))


# Unbatched and batched dense vectors and conv maps; channels are the first
# axis unbatched and the second batched.
_SHAPES = {(4,): 0, (2, 4): 1, (3, 2, 2): 0, (2, 3, 2, 2): 1}


# Every kind of float64 a membrane can hold: ordinary values, both zeros,
# subnormals, the extremes, both infinities and NaN of either sign.
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, np.finfo(float).max,
            -np.finfo(float).max, np.inf, -np.inf, np.nan, -np.nan]
_MEMBRANE = st.floats(-2.0, 2.0) | st.sampled_from(_SPECIAL) | st.floats()


def _array(draw, elements, shape):
    n = int(np.prod(shape))
    return np.array(draw(st.lists(elements, min_size=n, max_size=n)),
                    dtype=np.float64).reshape(shape)


@st.composite
@np.errstate(all="ignore")  # v_th / scale and scale * u may overflow
def _fire_cases(draw):
    mode = draw(st.sampled_from(list(FireMode)))
    scaled = mode is FireMode.REAL and draw(st.booleans())
    shape = draw(st.sampled_from(list(_SHAPES)))
    axis = _SHAPES[shape]
    v_th = draw(st.sampled_from([0.0, -0.0, 0.25, -0.5, 5e-324])
                | st.floats(allow_nan=False, allow_infinity=False))
    chan = [1] * len(shape)
    chan[axis] = shape[axis]
    scale, theta = None, np.float64(v_th)
    if scaled:
        # Finite positive scales, subnormal to huge: per-channel gates.
        scale = _array(draw, st.floats(0.1, 4.0) | st.floats(0.0, exclude_min=True,
                                                            allow_infinity=False),
                       (shape[axis],))
        theta = (v_th / scale).reshape(chan)
    u = _array(draw, _MEMBRANE, shape)
    at_gate = np.array(draw(st.lists(st.booleans(), min_size=u.size,
                                     max_size=u.size))).reshape(shape)
    u = np.where(at_gate, np.broadcast_to(theta, shape), u)
    if mode is FireMode.BINARY:
        value = np.ones(shape)
    elif not scaled:
        value = u
    else:
        value = scale.reshape(chan) * u
    return u, NeuronParams(v_th=v_th, mode=mode, scale=scale), theta, value


@given(_fire_cases())
@np.errstate(all="ignore")
def test_fire_gates_emits_and_resets_per_rule(case):
    # The np.where references: the rules' bits with -0.0, subnormals,
    # infinities and NaN (which never fires) in the membrane.
    u, params, theta, value = case
    spikes, reset = fire(u.copy(), params)
    fired = u >= theta
    assert spikes.tobytes() == np.where(fired, value, 0.0).tobytes()
    assert reset.tobytes() == np.where(fired, 0.0, u).tobytes()


@given(shape=st.sampled_from(list(_SHAPES)), tau=st.floats(0.0, 1.0), data=st.data())
@np.errstate(all="ignore")  # inf - inf, overflow: the same on both sides
def test_membrane_update_is_tau_u_plus_current(shape, tau, data):
    u, current = (_array(data.draw, _MEMBRANE, shape) for _ in range(2))
    got = membrane_update(u, current, real_params(tau=tau))
    assert got.tobytes() == (tau * u + current).tobytes()
