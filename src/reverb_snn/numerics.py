"""Dense tensor kernels with a fixed accumulation order.

Everything is float64 and row-major. `matmul` and `conv2d` reduce through
`_accumulate`, the one fixed-order reduction of the package; the event kernel
in `events.py` runs the same reduction with a sign-select term, so its
results can be checked for bitwise equality against these kernels. The conv
reduction runs channel-major, which changes no output's term order and no bit.

The backward helpers (`*_grad`) have no ordering contract; they only need to
be deterministic, which numpy's einsum (optimize left off) guarantees.
`_tap` is the one place that maps a kernel offset to the input positions it
meets, for the forward and both gradients.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _accumulate(shape, pairs, signed: bool = False) -> np.ndarray:
    """Add one term per (x, w) pair into a zeroed `shape` array, strictly in
    the order `pairs` yields them.

    This order is the accumulation contract: ascending k for matmul,
    ascending (c_in, ky, kx) for conv2d, and the same order over an event
    list, so repeated runs and the event kernel agree bitwise. The term is
    x * w for real weights; with `signed`, w holds folded {-1, +1} weights and
    the term is the sign select +x / -x, with no multiply. Adding an exact
    zero term changes nothing in IEEE-754, so skipping silent inputs keeps
    the result bitwise equal.
    """
    out = np.zeros(shape, dtype=np.float64)
    for x, w in pairs:
        out += np.where(w > 0, x, -x) if signed else x * w
    return out


def matmul(a, b) -> np.ndarray:
    """Matrix product of (m, k) by (k, n) accumulating over k in ascending order."""
    a = as_f64(a)
    b = as_f64(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    return _accumulate((a.shape[0], b.shape[1]), zip(a.T[:, :, None], b))


def conv_output_size(extent: int, kernel: int, stride: int, padding: int) -> int:
    return (extent + 2 * padding - kernel) // stride + 1


def _check_conv_args(c_in, h, w, kernels, stride, padding):
    if kernels.ndim != 4 or kernels.shape[2] != kernels.shape[3]:
        raise DimensionError(f"kernels must be (C_out, C_in, k, k), got {kernels.shape}")
    if kernels.shape[1] != c_in:
        raise DimensionError(
            f"kernel input channels {kernels.shape[1]} != input channels {c_in}"
        )
    if stride < 1:
        raise DimensionError(f"stride must be >= 1, got {stride}")
    k = kernels.shape[2]
    if k > h + 2 * padding or k > w + 2 * padding:
        raise DimensionError(
            f"kernel size {k} exceeds padded input {h + 2 * padding}x{w + 2 * padding}"
        )


def _tap(ky: int, kx: int, stride: int, out_hw) -> tuple:
    """Index of the (..., H_out, W_out) positions of a padded input that
    kernel offset (ky, kx) meets."""
    h_out, w_out = out_hw
    return (..., slice(ky, ky + stride * h_out, stride), slice(kx, kx + stride * w_out, stride))


def pad_spatial(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two trailing (spatial) axes of a (..., H, W) array."""
    if padding == 0:
        return x
    shape = x.shape[:-2] + (x.shape[-2] + 2 * padding, x.shape[-1] + 2 * padding)
    out = np.zeros(shape, dtype=x.dtype)
    out[..., padding : padding + x.shape[-2], padding : padding + x.shape[-1]] = x
    return out


def _conv_pairs(x: np.ndarray, kernels: np.ndarray, stride: int, padding: int):
    """Channel-major output shape (C_out, B, H_out, W_out) and (contiguous
    (B, H_out, W_out) patch, weight column) pairs of the conv of the
    (B, C_in, H, W) batch `x`, in ascending (c_in, ky, kx) order."""
    batch, c_in, h, w = x.shape
    _check_conv_args(c_in, h, w, kernels, stride, padding)
    c_out, _, k, _ = kernels.shape
    out_hw = (conv_output_size(h, k, stride, padding), conv_output_size(w, k, stride, padding))
    xp = pad_spatial(x, padding).transpose(1, 0, 2, 3)
    columns = kernels.transpose(1, 2, 3, 0).reshape(-1, c_out, 1, 1, 1)
    patches = (np.ascontiguousarray(xp[c][_tap(ky, kx, stride, out_hw)])
               for c in range(c_in) for ky in range(k) for kx in range(k))
    return (c_out, batch) + out_hw, zip(patches, columns)


def conv2d(inp, kernels, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Cross-correlation with zero padding.

    `inp` is (C_in, H, W) or batched (B, C_in, H, W); `kernels` is
    (C_out, C_in, k, k). Output spatial size is
    floor((H + 2*padding - k) / stride) + 1. Each output element accumulates
    its k*k*C_in products in ascending (c_in, ky, kx) order; the channel-major
    sum (see `_conv_pairs`) is transposed once into a C-contiguous result.
    """
    x = as_f64(inp)
    kernels = as_f64(kernels)
    squeeze = x.ndim == 3
    if squeeze:
        x = x[None]
    if x.ndim != 4:
        raise DimensionError(f"conv2d input must be 3-D or 4-D, got {inp.shape}")
    out = _accumulate(*_conv_pairs(x, kernels, stride, padding)).transpose(1, 0, 2, 3)
    return np.ascontiguousarray(out[0] if squeeze else out)


def conv2d_input_grad(grad_out, kernels, stride: int, padding: int, input_hw) -> np.ndarray:
    """Gradient of conv2d w.r.t. its input (transposed correlation)."""
    g = as_f64(grad_out)
    kernels = as_f64(kernels)
    h, w = input_hw
    c_in, k = kernels.shape[1], kernels.shape[2]
    gxp = np.zeros((g.shape[0], c_in, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    for ky in range(k):
        for kx in range(k):
            gxp[_tap(ky, kx, stride, g.shape[2:])] += np.einsum(
                "bohw,oc->bchw", g, kernels[:, :, ky, kx])
    return gxp[:, :, padding : padding + h, padding : padding + w]


def conv2d_kernel_grad(inp, grad_out, stride: int, padding: int, k: int) -> np.ndarray:
    """Gradient of conv2d w.r.t. its kernels, summed over the batch."""
    x = as_f64(inp)
    g = as_f64(grad_out)
    xp = pad_spatial(x, padding)
    gk = np.zeros((g.shape[1], x.shape[1], k, k), dtype=np.float64)
    for ky in range(k):
        for kx in range(k):
            gk[:, :, ky, kx] = np.einsum("bohw,bchw->oc", g, xp[_tap(ky, kx, stride, g.shape[2:])])
    return gk
