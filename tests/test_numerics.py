"""Dense kernels against brute-force loop oracles.

The oracles add their products one at a time into +0.0, in ascending k for
matmul and ascending (c_in, ky, kx) for conv2d, which is the kernels'
accumulation contract, so kernel and oracle must agree bitwise.
"""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from reverb_snn import numerics
from reverb_snn.errors import DimensionError
from reverb_snn.events import OpCounter, addition_only_forward, events_from_spikes
from reverb_snn.layers import CONV, BinaryLayer, binarize_weights
from reverb_snn.numerics import (conv2d, conv2d_input_grad, conv2d_kernel_grad,
                                 conv_output_size, matmul)

# Block sizes (elements) the block properties run under: one term per block,
# blocks of a few terms with a short last block, and the shipped size.
BLOCKS = (1, 2, 3, 7, numerics._BLOCK)


def matmul_oracle(a, b):
    """Triple-loop reference product."""
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for kk in range(k):
                out[i, j] += a[i, kk] * b[kk, j]
    return out


def conv2d_oracle(x, w, stride, padding):
    """Direct six-loop convolution (cross-correlation) reference."""
    c_in, h, win = x.shape
    c_out, _, k, _ = w.shape
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (win + 2 * padding - k) // stride + 1
    xp = np.zeros((c_in, h + 2 * padding, win + 2 * padding))
    xp[:, padding : padding + h, padding : padding + win] = x
    out = np.zeros((c_out, h_out, w_out))
    for co in range(c_out):
        for oy in range(h_out):
            for ox in range(w_out):
                for ci in range(c_in):
                    for ky in range(k):
                        for kx in range(k):
                            out[co, oy, ox] += (
                                xp[ci, oy * stride + ky, ox * stride + kx]
                                * w[co, ci, ky, kx]
                            )
    return out


class TestMatmul:
    def test_identity_right(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(a, np.eye(2)), a)

    def test_identity_left(self):
        b = np.array([[5.0], [7.0]])
        np.testing.assert_array_equal(matmul(np.eye(2), b), b)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (3, 4))
        b = rng.uniform(-1, 1, (4, 2))
        np.testing.assert_array_equal(matmul(a, b), matmul_oracle(a, b))

    def test_oracle_agreement_random_shapes(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m, k, n = rng.integers(1, 9, 3)
            a = rng.uniform(-1, 1, (m, k))
            b = rng.uniform(-1, 1, (k, n))
            np.testing.assert_array_equal(matmul(a, b), matmul_oracle(a, b))

    @given(m=st.integers(1, 6), k=st.integers(1, 9), n=st.integers(1, 6),
           density=st.sampled_from([0.0, 0.4, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_oracle_bitwise_property(self, m, k, n, density, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (m, k)) * (rng.random((m, k)) < density)
        b = rng.uniform(-1, 1, (k, n))
        np.testing.assert_array_equal(matmul(a, b), matmul_oracle(a, b))

    @given(block=st.sampled_from(BLOCKS), m=st.integers(1, 6), k=st.integers(1, 9),
           n=st.integers(1, 6), density=st.sampled_from([0.0, 0.4, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_block_size_leaves_bits_unchanged(self, block, m, k, n, density, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (m, k)) * (rng.random((m, k)) < density)
        b = rng.uniform(-1, 1, (k, n))
        with mock.patch.object(numerics, "_BLOCK", block):
            got = matmul(a, b)
        assert got.flags.c_contiguous
        assert got.tobytes() == matmul_oracle(a, b).tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, (6, 17))
        b = rng.uniform(-1, 1, (17, 5))
        np.testing.assert_array_equal(matmul(a, b), matmul(a, b))


class TestConv2d:
    def test_zero_kernels_zero_output(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (2, 5, 5))
        out = conv2d(x, np.zeros((3, 2, 3, 3)), 1, 1)
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_unit_1x1_kernel_sums_channels(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (3, 4, 4))
        out = conv2d(x, np.ones((1, 3, 1, 1)), 1, 0)
        np.testing.assert_allclose(out[0], x.sum(axis=0), atol=1e-12)

    def test_matches_six_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (2, 5, 5))
        w = rng.uniform(-1, 1, (3, 2, 3, 3))
        np.testing.assert_array_equal(conv2d(x, w, 1, 0), conv2d_oracle(x, w, 1, 0))

    def test_oracle_agreement_stride_padding_grid(self):
        rng = np.random.default_rng(7)
        for stride in (1, 2):
            for padding in (0, 1, 2):
                x = rng.uniform(-1, 1, (2, 6, 7))
                w = rng.uniform(-1, 1, (3, 2, 3, 3))
                got = conv2d(x, w, stride, padding)
                want = conv2d_oracle(x, w, stride, padding)
                np.testing.assert_array_equal(got, want)

    @given(batch=st.integers(1, 4), c_in=st.integers(1, 3), c_out=st.integers(1, 3),
           h=st.integers(1, 7), w=st.integers(1, 7), k=st.integers(1, 3),
           stride=st.integers(1, 3), padding=st.integers(0, 2),
           density=st.sampled_from([0.0, 0.4, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_oracle_bitwise_property(self, batch, c_in, c_out, h, w, k, stride, padding,
                                     density, seed):
        # Density 0.0 makes the whole input silent, 0.4 a sparse one.
        assume(k <= h + 2 * padding and k <= w + 2 * padding)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (batch, c_in, h, w)) * (rng.random((batch, c_in, h, w)) < density)
        kern = rng.uniform(-1, 1, (c_out, c_in, k, k))
        got = conv2d(x, kern, stride, padding)
        assert got.flags.c_contiguous
        want = np.stack([conv2d_oracle(xi, kern, stride, padding) for xi in x])
        np.testing.assert_array_equal(got, want)

    @given(block=st.sampled_from(BLOCKS), batch=st.integers(1, 4), c_in=st.integers(1, 3),
           c_out=st.integers(1, 3), h=st.integers(1, 7), w=st.integers(1, 7),
           k=st.integers(1, 3), stride=st.integers(1, 3), padding=st.integers(0, 2),
           density=st.sampled_from([0.0, 0.4, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_block_size_leaves_bits_unchanged(self, block, batch, c_in, c_out, h, w, k,
                                              stride, padding, density, seed):
        assume(k <= h + 2 * padding and k <= w + 2 * padding)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (batch, c_in, h, w)) * (rng.random((batch, c_in, h, w)) < density)
        kern = rng.uniform(-1, 1, (c_out, c_in, k, k))
        with mock.patch.object(numerics, "_BLOCK", block):
            got = conv2d(x, kern, stride, padding)
        want = np.stack([conv2d_oracle(xi, kern, stride, padding) for xi in x])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_output_shape_formula(self):
        rng = np.random.default_rng(9)
        for h, w, k, stride, padding in [
            (5, 5, 3, 1, 0), (6, 8, 3, 2, 1), (7, 7, 1, 1, 0),
            (8, 8, 5, 2, 2), (9, 4, 3, 3, 1), (4, 4, 4, 1, 0),
        ]:
            x = rng.uniform(-1, 1, (1, h, w))
            kern = rng.uniform(-1, 1, (2, 1, k, k))
            out = conv2d(x, kern, stride, padding)
            assert out.shape == (
                2,
                conv_output_size(h, k, stride, padding),
                conv_output_size(w, k, stride, padding),
            )

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, (4, 2, 5, 5))
        w = rng.uniform(-1, 1, (3, 2, 3, 3))
        batched = conv2d(x, w, 2, 1)
        for i in range(4):
            single = conv2d(x[i], w, 2, 1)
            assert single.flags.c_contiguous
            np.testing.assert_array_equal(batched[i], single)

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(DimensionError):
            conv2d(np.zeros((1, 3, 3)), np.zeros((1, 1, 5, 5)), 1, 0)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            conv2d(np.zeros((2, 5, 5)), np.zeros((1, 3, 3, 3)), 1, 0)

    @pytest.mark.parametrize("stride, padding", [(0, 0), (1, -1)])
    def test_bad_stride_or_padding(self, stride, padding):
        with pytest.raises(DimensionError):
            conv2d(np.zeros((2, 1, 5, 5)), np.zeros((1, 1, 3, 3)), stride, padding)

    @pytest.mark.parametrize("inp", [[[1.0]], np.ones((1, 1)), np.ones((1, 1, 1, 1, 1))],
                             ids=["2-D list", "2-D array", "5-D array"])
    def test_input_of_wrong_rank(self, inp):
        with pytest.raises(DimensionError, match="must be 3-D or 4-D"):
            conv2d(inp, np.ones((1, 1, 1, 1)))


def conv2d_grads_oracle(x, kern, g, stride, padding):
    """Input and kernel gradients of conv2d from its definition: every output
    position (i, j) meets padded input position (i*stride + ky, j*stride + kx)
    through tap (ky, kx), for every sample, input and output channel."""
    k = kern.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gxp, gk = np.zeros_like(xp), np.zeros_like(kern)
    for i in range(g.shape[2]):
        for j in range(g.shape[3]):
            for ky in range(k):
                for kx in range(k):
                    y, xx = i * stride + ky, j * stride + kx
                    gxp[:, :, y, xx] += g[:, :, i, j] @ kern[:, :, ky, kx]
                    gk[:, :, ky, kx] += g[:, :, i, j].T @ xp[:, :, y, xx]
    return gxp[:, :, padding : padding + x.shape[2], padding : padding + x.shape[3]], gk


class TestConv2dGradients:
    @given(batch=st.integers(1, 4), c_in=st.integers(1, 3), c_out=st.integers(1, 3),
           h=st.integers(1, 7), w=st.integers(1, 7), k=st.integers(1, 3),
           stride=st.integers(1, 3), padding=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_gradients_match_loop_oracle(self, batch, c_in, c_out, h, w, k, stride, padding,
                                         seed):
        # Within 1e-12 of each element's sum of |terms|: the gradients have
        # no ordering contract, so cancellation may leave any relative error
        # on an element near zero.
        assume(k <= h + 2 * padding and k <= w + 2 * padding)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (batch, c_in, h, w))
        kern = rng.uniform(-1, 1, (c_out, c_in, k, k))
        g = rng.uniform(-1, 1, conv2d(x, kern, stride, padding).shape)
        gx = conv2d_input_grad(g, kern, stride, padding, (h, w))
        gk = conv2d_kernel_grad(x, g, stride, padding, k)
        want_x, want_k = conv2d_grads_oracle(x, kern, g, stride, padding)
        scale_x, scale_k = conv2d_grads_oracle(np.abs(x), np.abs(kern), np.abs(g), stride,
                                               padding)
        assert gx.shape == x.shape and gk.shape == kern.shape
        assert np.all(np.abs(gx - want_x) <= 1e-12 * scale_x)
        assert np.all(np.abs(gk - want_k) <= 1e-12 * scale_k)

    def test_gradients_are_adjoint_to_the_forward(self):
        # <conv2d(x, K), g> = <x, input_grad(g)> = <K, kernel_grad(x, g)>
        rng = np.random.default_rng(17)
        for stride in (1, 2):
            for padding in (0, 1, 2):
                x = rng.uniform(-1, 1, (2, 2, 6, 7))
                kern = rng.uniform(-1, 1, (3, 2, 3, 3))
                y = conv2d(x, kern, stride, padding)
                g = rng.uniform(-1, 1, y.shape)
                forward = np.sum(y * g)
                gx = conv2d_input_grad(g, kern, stride, padding, x.shape[2:])
                gk = conv2d_kernel_grad(x, g, stride, padding, 3)
                assert gx.shape == x.shape and gk.shape == kern.shape
                assert np.sum(x * gx) == pytest.approx(forward, rel=1e-12)
                assert np.sum(kern * gk) == pytest.approx(forward, rel=1e-12)


def term_loop_matmul(a, b):
    """a @ b with its terms added one at a time into +0.0: the outer product
    of column kk of a and row kk of b, for ascending kk."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for kk in range(a.shape[1]):
        out += a[:, kk, None] * b[kk]
    return out


def term_loop_conv(x, kern, stride, padding):
    """conv2d of the (B, C_in, H, W) batch `x` with its terms added one at a
    time into +0.0: each tap's strided patch times the tap's weights, in
    ascending (c_in, ky, kx) order."""
    c_out, c_in, k, _ = kern.shape
    ho, wo = (conv_output_size(e, k, stride, padding) for e in x.shape[2:])
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((len(x), c_out, ho, wo))
    for c in range(c_in):
        for ky in range(k):
            for kx in range(k):
                patch = xp[:, c, ky : ky + stride * (ho - 1) + 1 : stride,
                           kx : kx + stride * (wo - 1) + 1 : stride]
                out += patch[:, None] * kern[:, c, ky, kx, None, None]
    return out


def _sparse(rng, shape, density, zero):
    """Uniform(-1, 1) entries, each kept with probability `density` and
    otherwise `zero` (+0.0 or -0.0)."""
    return np.where(rng.random(shape) < density, rng.uniform(-1, 1, shape), zero)


def _assert_bitwise(got, want):
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# Output sizes around numerics._BINCOUNT, the cut between the one-call path
# and the per-term loop of _accumulate.
WIDTHS = (1, 2, 63, 64, 85, 86, 128, 255, 256, 257, 300)
ZEROS = st.sampled_from([0.0, -0.0])
DENSITIES = st.sampled_from([0.0, 0.4, 1.0])


class TestOneCallPath:
    """`_accumulate` adds each block into an output of at most
    numerics._BINCOUNT elements with one np.bincount, into a larger one term
    by term; both must give the bits of a term-by-term loop. Blocks of a few
    terms make a small output carry its sum across many blocks. The event
    branches cross the cut in tests/test_events.py::TestEventKernelBlocks."""

    @given(block=st.sampled_from(BLOCKS), m=st.integers(0, 3), k=st.integers(0, 300),
           n=st.sampled_from(WIDTHS), density=DENSITIES, zero=ZEROS,
           seed=st.integers(0, 2**32 - 1))
    def test_matmul_matches_term_loop(self, block, m, k, n, density, zero, seed):
        rng = np.random.default_rng(seed)
        a, b = _sparse(rng, (m, k), density, zero), rng.uniform(-1, 1, (k, n))
        with mock.patch.object(numerics, "_BLOCK", block):
            _assert_bitwise(matmul(a, b), term_loop_matmul(a, b))

    @given(block=st.sampled_from(BLOCKS), batch=st.integers(0, 2), c_in=st.integers(1, 3),
           c_out=st.integers(1, 6), h=st.integers(1, 8), w=st.integers(1, 8),
           k=st.integers(1, 3), stride=st.integers(1, 3), padding=st.integers(0, 2),
           density=DENSITIES, zero=ZEROS, seed=st.integers(0, 2**32 - 1))
    def test_conv2d_matches_term_loop(self, block, batch, c_in, c_out, h, w, k, stride,
                                      padding, density, zero, seed):
        assume(k <= h + 2 * padding and k <= w + 2 * padding)
        rng = np.random.default_rng(seed)
        x = _sparse(rng, (batch, c_in, h, w), density, zero)
        kern = rng.uniform(-1, 1, (c_out, c_in, k, k))
        with mock.patch.object(numerics, "_BLOCK", block):
            _assert_bitwise(conv2d(x, kern, stride, padding),
                            term_loop_conv(x, kern, stride, padding))

    def test_small_output_carries_its_sum_across_blocks(self):
        rng = np.random.default_rng(4)
        a, b = rng.uniform(-1, 1, (1, 300)), rng.uniform(-1, 1, (300, 256))
        assert 256 <= numerics._BINCOUNT and 300 * 256 > numerics._BLOCK
        _assert_bitwise(matmul(a, b), term_loop_matmul(a, b))

    @pytest.mark.parametrize("size", [4, 256, 257])
    @pytest.mark.parametrize("signed", [False, True])
    def test_blocks_of_negative_zero_terms_sum_to_positive_zero(self, size, signed):
        # 300 terms: two blocks of a 256-element output, one of the others.
        def block(lo, hi):
            return np.zeros((hi - lo, 1)), -np.ones((hi - lo, size))

        got = numerics._accumulate((size,), 300, block, signed=signed)
        _assert_bitwise(got, np.zeros(size))
        _assert_bitwise(matmul(np.full((1, 300), -0.0), np.ones((300, size))),
                        np.zeros((1, size)))

    @given(block=st.sampled_from(BLOCKS), count=st.integers(1, 40),
           n=st.sampled_from(WIDTHS), row=st.sampled_from([1, 3]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    @np.errstate(all="ignore")  # inf - inf: the same on both sides
    def test_signed_term_is_negate_then_copy(self, block, count, n, row, seed, data):
        # The sign select's reference: negate the block, then copy +x where
        # w > 0. Its terms are reduced by the same _accumulate, as x * 1.0,
        # which keeps every bit, so only the term is compared; x holds
        # -0.0, subnormals, infinities and NaN of either sign.
        x = np.array(data.draw(st.lists(
            st.floats() | st.sampled_from([-0.0, 5e-324, -np.inf, np.nan, -np.nan]),
            min_size=count * row, max_size=count * row))).reshape(count, 1, row)
        w = np.random.default_rng(seed).choice([-1.0, 1.0], (count, n, 1))
        terms = np.negative(np.broadcast_to(x, (count, n, row)))
        np.copyto(terms, x, where=w > 0)
        with mock.patch.object(numerics, "_BLOCK", block):
            got = numerics._accumulate((n, row), count, lambda lo, hi: (x[lo:hi], w[lo:hi]),
                                       signed=True).copy()
            want = numerics._accumulate((n, row), count,
                                        lambda lo, hi: (terms[lo:hi], 1.0)).copy()
        _assert_bitwise(got, want)

    def test_empty_output_stays_float64(self):
        _assert_bitwise(matmul(np.zeros((0, 3)), np.ones((3, 2))), np.zeros((0, 2)))
        _assert_bitwise(matmul(np.zeros((2, 0)), np.ones((0, 3))), np.zeros((2, 3)))
        _assert_bitwise(conv2d(np.zeros((0, 1, 4, 4)), np.ones((2, 1, 3, 3)), 1, 1),
                        np.zeros((0, 2, 4, 4)))
        _assert_bitwise(numerics._accumulate((0,), 5, lambda lo, hi: (np.ones((hi - lo, 1)),
                                                                      np.ones((hi - lo, 0)))),
                        np.zeros(0))
        _assert_bitwise(conv2d_input_grad(np.zeros((0, 2, 4, 4)), np.ones((2, 1, 3, 3)), 1, 1,
                                          (4, 4)), np.zeros((0, 1, 4, 4)))


def input_grad_row_adds(g, kern, stride, padding, input_hw):
    """conv2d_input_grad as per-tap row adds: each tap's share added into its
    tap's row (numerics._windows) of the zeroed, padded gradient, one tap at a
    time in ascending tap order."""
    h, w = input_hw
    c_out, c_in, k, _ = kern.shape
    gxp = np.zeros((g.shape[0], c_in, h + 2 * padding, w + 2 * padding))
    rows, offsets = numerics._windows(gxp, k, stride, g.shape[2:])
    g_t = np.ascontiguousarray(g.transpose(1, 0, 2, 3))
    shares = np.einsum("obhw,ot->tbhw", g_t, kern.reshape(c_out, -1))
    for offset, share in zip(offsets, shares):
        rows[offset] += share
    return gxp[:, :, padding : padding + h, padding : padding + w]


class TestInputGradBincount:
    @given(batch=st.integers(1, 4), c_in=st.integers(1, 3), c_out=st.integers(1, 3),
           h=st.integers(1, 7), w=st.integers(1, 7), k=st.integers(1, 3),
           stride=st.integers(1, 3), padding=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_tap_row_adds(self, batch, c_in, c_out, h, w, k, stride, padding,
                                      seed):
        assume(k <= h + 2 * padding and k <= w + 2 * padding)
        rng = np.random.default_rng(seed)
        kern = rng.uniform(-1, 1, (c_out, c_in, k, k))
        out_hw = tuple(conv_output_size(e, k, stride, padding) for e in (h, w))
        g = rng.uniform(-1, 1, (batch, c_out) + out_hw)
        _assert_bitwise(conv2d_input_grad(g, kern, stride, padding, (h, w)),
                        input_grad_row_adds(g, kern, stride, padding, (h, w)))

    def test_results_own_their_memory_and_caches_stay_intact_and_bounded(self):
        # The cached indices are writeable (np.bincount copies a read-only
        # one on every call), so check that no call writes them or returns
        # memory that a later call reuses.
        rng = np.random.default_rng(8)
        kern = rng.uniform(-1, 1, (16, 8, 3, 3))
        g = rng.uniform(-1, 1, (4, 16, 4, 4))
        first = conv2d_input_grad(g, kern, 2, 1, (8, 8))
        second = conv2d_input_grad(g, kern, 2, 1, (8, 8))
        key = ((4, 8, 10, 10), 3, 2, (4, 4))
        index = numerics._tap_rows_index(*key)
        assert not np.shares_memory(second, first)
        assert not np.shares_memory(second, index)
        a, b = rng.uniform(-1, 1, (1, 72)), rng.uniform(-1, 1, (72, 4))
        head = matmul(a, b)
        bins = numerics._bins(72, 4)
        assert not np.shares_memory(head, bins)
        assert not np.shares_memory(head, matmul(a, b))
        first[...], head[...] = np.nan, np.nan
        _assert_bitwise(conv2d_input_grad(g, kern, 2, 1, (8, 8)), second)
        np.testing.assert_array_equal(index, numerics._tap_rows_index.__wrapped__(*key))
        np.testing.assert_array_equal(bins, np.tile(np.arange(4), 72))
        for cache in (numerics._tap_rows_index, numerics._bins):
            assert cache.cache_info().maxsize is not None


def _block_bytes(out_size: int, count: int) -> int:
    """Bytes of the largest block of terms of a `count`-term reduction into
    `out_size` elements: as many whole terms as fit in numerics._BLOCK
    elements, at least one, at most all of them."""
    return 8 * out_size * min(count, max(1, numerics._BLOCK // out_size))


# numpy's two 64 KiB iteration buffers, which a buffered broadcast multiply
# allocates on every call.
ITERATION_BUFFERS = 2 * 8 * np.getbufsize()


def _conv_case(batch):
    """conv2d of a (batch, 8, 8, 8) batch by 16x8x3x3 kernels, stride 2,
    padding 1: convnet-bars' second conv. Its rows ((batch, 4, 4) per
    output channel) run under the row-sized ufunc buffer at the training
    batch of 64, and under numpy's default at 256."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (batch, 8, 8, 8))
    kern = rng.uniform(-1, 1, (16, 8, 3, 3))
    padded = 8 * batch * 8 * 10 * 10
    out = 8 * batch * 16 * 4 * 4
    block = _block_bytes(out // 8, 72)
    # A block's gathered patches are C_out times smaller than its terms.
    return ((lambda: conv2d(x, kern, 2, 1)), padded + kern.nbytes, out, block,
            out + block // 16, 0)


def _matmul_case(m, k, n):
    rng = np.random.default_rng(1)
    a = rng.uniform(-1, 1, (m, k))
    b = rng.uniform(-1, 1, (k, n))
    out = 8 * m * n
    # A block's operands are views of a's transposed copy and of b.
    return (lambda: matmul(a, b)), a.nbytes + b.nbytes, out, _block_bytes(out // 8, k), out, 0


def _event_conv_case():
    rng = np.random.default_rng(2)
    w = binarize_weights(rng.uniform(-1, 1, (16, 8, 3, 3)))
    layer = BinaryLayer(w_latent=w, alpha=np.ones(16), binarize=True, kind=CONV,
                        stride=2, padding=1)
    spikes = rng.uniform(0, 1, (8, 8, 8)) * (rng.random((8, 8, 8)) < 0.6)
    events = events_from_spikes(spikes)
    # The events scattered into a sample, and its padded copy.
    sample = 8 * 8 * 8 * 8
    operands = sample + 8 * 8 * 10 * 10 + w.nbytes
    out = 8 * 16 * 4 * 4
    block = _block_bytes(out // 8, 72)
    # With a counter, as eval calls it: the landings are counted from the
    # blocks the reduction gathers, not from a second gather. The output has
    # at most numerics._BINCOUNT elements, so its term block and
    # np.bincount's sum are fresh, as well as the copy returned.
    # Its blocks keep numpy's default buffering, iteration buffers and all
    # (see the numerics module docstring).
    return ((lambda: addition_only_forward(layer, events, spikes.shape, OpCounter())),
            operands, out, block, sample + 2 * out + block + block // 16, ITERATION_BUFFERS)


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


TRANSIENT_CASES = {
    "conv2d-b256": lambda: _conv_case(256),
    "conv2d-b64": lambda: _conv_case(64),
    "matmul-256x256x4": lambda: _matmul_case(256, 256, 4),
    "matmul-256x16x16": lambda: _matmul_case(256, 16, 16),
    "event-conv-one-sample": _event_conv_case,
}


@pytest.mark.parametrize("case", TRANSIENT_CASES.values(), ids=TRANSIENT_CASES.keys())
def test_transient_memory_is_operands_output_and_one_block(case):
    """A first call, into an empty scratch store, allocates at most: its
    operands as it reads them (conv: the zero-padded input), twice its output
    (the sum and the C-contiguous result), twice one block (a block's terms
    and the inputs gathered for them, never more than its terms) and 64 KiB
    for index arrays and small objects. Gathering every tap's patch at once,
    or building every term of a reduction at once, exceeds it.

    A repeat call at the same shape finds the padded input, the transposed
    operand and, for an output of more than numerics._BINCOUNT elements, the
    sum and the term block in scratch. So it allocates at most its fresh
    arrays (the result, a block's gathered inputs, the event kernel's
    scattered sample, and a smaller output's np.bincount sum and term block)
    and 64 KiB for index arrays and small objects. A large output's term
    block allocated per call exceeds that, and so do numpy's two 64 KiB
    iteration buffers on the batched matmul. Only the one-sample event call,
    which keeps numpy's buffering, is allowed those buffers."""
    call, operands, out, block, fresh, buffers = case()
    with mock.patch.dict(vars(numerics._SLOTS), clear=True):
        first, repeat = _peak_bytes(call), _peak_bytes(call)
    assert first <= operands + 2 * out + 2 * block + 64 * 1024
    assert repeat <= fresh + buffers + 64 * 1024


def test_large_reduction_allocates_only_its_gathered_blocks():
    """The reduction of convnet-bars' second conv at the training batch of
    64, repeated, allocates one block's gathered patches (C_out times
    smaller than its terms) and 64 KiB for index arrays and small objects:
    its rows are short, so a broadcast multiply at numpy's default buffer
    size would copy every block through two 64 KiB iteration buffers."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (64, 8, 8, 8))
    kern = rng.uniform(-1, 1, (16, 8, 3, 3))

    def reduce():
        numerics._accumulate(*numerics._conv_terms(x, kern, 2, 1))
    reduce()
    assert _peak_bytes(reduce) <= _block_bytes(16 * 64 * 4 * 4, 72) // 16 + 64 * 1024


# Outputs of more than numerics._BINCOUNT elements, whose sum is scratch, at
# the shapes where the returned transpose of that sum is already C-contiguous:
# matmul with m == 1 or n == 1, and conv2d of one (C_in, H, W) sample. The
# batched conv is the eval batch of 256.
ALIAS_CASES = {
    "matmul-1xk@kxn": lambda rng: matmul(rng.uniform(-1, 1, (1, 16)),
                                         rng.uniform(-1, 1, (16, 300))),
    "matmul-mxk@kx1": lambda rng: matmul(rng.uniform(-1, 1, (300, 16)),
                                         rng.uniform(-1, 1, (16, 1))),
    "conv2d-b1": lambda rng: conv2d(rng.uniform(-1, 1, (8, 8, 8)),
                                    rng.uniform(-1, 1, (16, 8, 3, 3)), 1, 1),
    "conv2d-b256": lambda rng: conv2d(rng.uniform(-1, 1, (256, 1, 8, 8)),
                                      rng.uniform(-1, 1, (8, 1, 3, 3)), 1, 1),
}


def _assert_owns_its_memory(result):
    for buf in vars(numerics._SLOTS).values():  # the calling thread's
        assert not np.shares_memory(result, buf)


@st.composite
def kernel_calls(draw):
    """A matmul or conv2d call of a drawn shape on either side of
    numerics._BINCOUNT, with the term-by-term loop's result."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        m, n = draw(st.sampled_from([1, 2, 300])), draw(st.sampled_from([1, 3, 256, 300]))
        a = rng.uniform(-1, 1, (m, draw(st.integers(0, 12))))
        b = rng.uniform(-1, 1, (a.shape[1], n))
        return (lambda: matmul(a, b)), term_loop_matmul(a, b)
    k, stride, padding = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 1))
    h = draw(st.integers(max(1, k - 2 * padding), 8))
    x = rng.uniform(-1, 1, (draw(st.integers(1, 3)), draw(st.integers(1, 3)), h, h))
    kern = rng.uniform(-1, 1, (draw(st.sampled_from([1, 4, 16])), x.shape[1], k, k))
    want = term_loop_conv(x, kern, stride, padding)
    if len(x) == 1 and draw(st.booleans()):  # one (C_in, H, W) sample
        return (lambda: conv2d(x[0], kern, stride, padding)), want[0]
    return (lambda: conv2d(x, kern, stride, padding)), want


class TestResultsOwnTheirMemory:
    """The kernels keep their transients in numerics' scratch store; every
    result must still be a fresh array that no later call writes."""

    @pytest.mark.parametrize("call", ALIAS_CASES.values(), ids=ALIAS_CASES.keys())
    def test_result_survives_later_calls(self, call):
        rng = np.random.default_rng(5)
        first = call(rng)
        kept = first.copy()
        second = call(rng)
        assert not np.shares_memory(first, second)
        for other in ALIAS_CASES.values():
            other(rng)
        _assert_owns_its_memory(first)
        _assert_owns_its_memory(second)
        _assert_bitwise(first, kept)

    @given(st.lists(kernel_calls(), min_size=2, max_size=6))
    def test_interleaved_calls_match_term_loops(self, calls):
        results = [call() for call, _ in calls]
        for got, (_, want) in zip(results, calls):
            _assert_owns_its_memory(got)
            _assert_bitwise(got, want)


def _training_shape_calls():
    """The kernel calls of convnet-bars' training batch of 64: both convs
    forward, the head's matmul and both convs' kernel gradients."""
    rng = np.random.default_rng(13)
    x1, x2 = rng.uniform(0, 1, (64, 1, 8, 8)), rng.uniform(0, 1, (64, 8, 8, 8))
    g1, g2 = rng.uniform(-1, 1, (64, 8, 8, 8)), rng.uniform(-1, 1, (64, 16, 4, 4))
    k1, k2 = rng.uniform(-1, 1, (8, 1, 3, 3)), rng.uniform(-1, 1, (16, 8, 3, 3))
    xh, head = rng.uniform(0, 1, (64, 256)), rng.uniform(-1, 1, (256, 4))
    forwards = [lambda: conv2d(x1, k1, 1, 1), lambda: conv2d(x2, k2, 2, 1),
                lambda: matmul(xh, head)]
    grads = [lambda: conv2d_kernel_grad(x1, g1, 1, 1, 3),
             lambda: conv2d_kernel_grad(x2, g2, 2, 1, 3)]
    return forwards, grads


def _on_two_threads(mine, theirs, rounds=20):
    """Runs `theirs` round-robin for `rounds` rounds on a second thread while
    this thread runs `mine` round-robin until that thread ends, with a 10 us
    switch interval; per thread, the (call index, result bytes) of every call."""
    here, there = [], []

    def run_theirs():
        for i in range(rounds * len(theirs)):
            there.append((i % len(theirs), theirs[i % len(theirs)]().tobytes()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        thread = threading.Thread(target=run_theirs)
        thread.start()
        deadline = time.monotonic() + 60
        while (thread.is_alive() or len(here) < len(mine)) and time.monotonic() < deadline:
            i = len(here) % len(mine)
            here.append((i, mine[i]().tobytes()))
        thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    return here, there


class TestKernelGradBesideTheOtherKernels:
    """training.backward_stbp runs conv2d_kernel_grad on a worker thread while
    the calling thread runs the other kernels. Each thread takes scratch slots
    of its own (see the numerics module docstring), so every kernel may run
    beside the others on any thread."""

    def test_kernel_on_a_second_thread_takes_slots_of_its_own(self):
        rng = np.random.default_rng(12)
        x, g = rng.uniform(0, 1, (64, 8, 8, 8)), rng.uniform(-1, 1, (64, 16, 4, 4))
        kern = rng.uniform(-1, 1, (16, 8, 3, 3))
        theirs = {}

        def run():
            conv2d_kernel_grad(x, g, 2, 1, 3)
            conv2d(x[:2], kern, 2, 1)  # 512 outputs: a scratch sum
            theirs.update(vars(numerics._SLOTS))

        with mock.patch.dict(vars(numerics._SLOTS), clear=True):
            conv2d(x[:32], kern, 2, 1)
            mine = dict(vars(numerics._SLOTS))
            kept = {slot: buf.tobytes() for slot, buf in mine.items()}
            thread = threading.Thread(target=run)
            thread.start()
            thread.join(timeout=60)
            assert vars(numerics._SLOTS) == mine  # the same buffers
        assert not thread.is_alive()
        assert set(theirs) == {"padded", "sum", "terms"}
        assert {slot: buf.tobytes() for slot, buf in mine.items()} == kept
        for buf in theirs.values():
            assert not any(np.shares_memory(buf, other) for other in mine.values())

    def test_kernel_grads_on_a_second_thread_match_serial_calls(self):
        """20 kernel gradients of convnet-bars' two convs at the training
        batch run on a second thread while this one runs the forward convs and
        the head's matmul; every result on both threads is byte-equal to a
        serial call's."""
        forwards, grads = _training_shape_calls()
        serial_forwards = [call().tobytes() for call in forwards]
        serial_grads = [call().tobytes() for call in grads]
        here, there = _on_two_threads(forwards, grads, rounds=10)
        assert len(there) == 20
        assert all(got == serial_grads[i] for i, got in there)
        assert all(got == serial_forwards[i] for i, got in here)

    def test_every_kernel_on_two_threads_matches_serial_calls(self):
        """Both threads run the forward convs, the head's matmul and both
        kernel gradients at the training batch, each taking scratch slots,
        for 20 rounds on the second thread; every result is byte-equal to a
        serial call's."""
        forwards, grads = _training_shape_calls()
        calls = forwards + grads
        serial = [call().tobytes() for call in calls]
        here, there = _on_two_threads(calls, calls[::-1], rounds=20)
        assert len(there) == 20 * len(calls)
        assert all(got == serial[i] for i, got in here)
        assert all(got == serial[-1 - i] for i, got in there)


class TestBufferRuleLeavesNoTrace:
    """A larger output's blocks run under numpy's ufunc buffer sized to the
    term row (see the numerics module docstring). The setting must be the
    caller's again whenever a kernel returns or raises, and no result may
    depend on the caller's own setting."""

    CALLER_SIZES = (16, 8192, 65536)

    def test_importing_the_engine_leaves_the_buffer_size(self):
        check = ("import numpy as np; size = np.getbufsize(); import reverb_snn; "
                 "assert np.getbufsize() == size, np.getbufsize()")
        subprocess.run([sys.executable, "-c", check], check=True,
                       env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))

    @pytest.mark.parametrize("bufsize", CALLER_SIZES)
    def test_kernels_return_with_the_callers_buffer_size(self, bufsize):
        rng = np.random.default_rng(11)
        layer = BinaryLayer(w_latent=binarize_weights(rng.uniform(-1, 1, (16, 8, 3, 3))),
                            alpha=np.ones(16), binarize=True, kind=CONV, stride=2, padding=1)
        spikes = rng.uniform(0, 1, (8, 8, 8)) * (rng.random((8, 8, 8)) < 0.6)
        calls = [
            lambda: matmul(rng.uniform(-1, 1, (256, 16)), rng.uniform(-1, 1, (16, 16))),
            lambda: matmul(rng.uniform(-1, 1, (1, 16)), rng.uniform(-1, 1, (16, 16))),
            lambda: conv2d(rng.uniform(-1, 1, (64, 8, 8, 8)), layer.w_latent, 2, 1),
            lambda: conv2d(rng.uniform(-1, 1, (8, 8, 8)), layer.w_latent, 2, 1),
            lambda: addition_only_forward(layer, events_from_spikes(spikes), spikes.shape,
                                          OpCounter()),
        ]
        with np.errstate():  # restores the buffer size on exit
            np.setbufsize(bufsize)
            for call in calls:
                call()
                assert np.getbufsize() == bufsize

    def test_a_raising_block_leaves_the_callers_buffer_size(self):
        seen = []

        def block(lo, hi):
            seen.append(np.getbufsize())
            raise RuntimeError("block failed")

        before = np.getbufsize()
        # A (16, 256) output: rows of 256 elements, inside the rule.
        with pytest.raises(RuntimeError, match="block failed"):
            numerics._accumulate((16, 256), 4, block)
        assert seen == [256]
        assert np.getbufsize() == before

    @given(kernel_calls(), st.sampled_from(CALLER_SIZES))
    def test_results_do_not_depend_on_the_callers_buffer_size(self, case, bufsize):
        call, want = case
        with np.errstate():
            np.setbufsize(bufsize)
            got = call()
            assert np.getbufsize() == bufsize
        _assert_bitwise(got, want)
