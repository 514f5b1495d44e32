"""Dense tensor kernels with a fixed accumulation order.

Everything is float64 and row-major. `matmul` and `conv2d` reduce through
`_accumulate`, the one fixed-order reduction of the package; the event kernel
in `events.py` runs the same reduction with a sign-select term, so its
results can be checked for bitwise equality against these kernels. It builds
each block of consecutive terms with one call and adds the block in ascending
term order: an output of at most `_BINCOUNT` elements (one sample, a
classifier head) in one `np.bincount` call, a larger one term by term. Either
way every bit is that of a term-by-term loop. Both kernels put the batch on
the terms' inner axis ((n, m) for matmul, (C_out, B, H_out, W_out) for the
conv) and transpose the sum once, which changes no output's term order.

The backward helpers (`*_grad`) have no ordering contract; they only need to
be deterministic, which numpy's einsum (optimize left off) and np.bincount
guarantee. `_windows` is the one map from a kernel tap to the input positions
it meets, as rows of one strided view of the padded batch; the forward, the
conv event branch and both conv gradients read or write those rows.

Arrays that do not leave a kernel call live in scratch slots (`_scratch`):
`_accumulate`'s sum and term block for an output larger than `_BINCOUNT`,
`matmul`'s transposed left operand and the conv's zero-padded input. Each
slot is one flat float64 buffer, grown to the largest request, never shrunk,
and viewed in the shape of each call; it starts on a 64-byte cache line.
Each thread has slots of its own (`_SLOTS`, freed when it ends), so every
kernel is safe on any thread. Allocated and freed on every call, these
arrays made a kernel's speed depend on the process's heap layout: where
glibc placed them (the same rings-tiny eval ran x0.85-0.91 as fast at 16-48
bytes from a cache line) and whether freeing them gave pages back to the
system, to be faulted in on the next call. The slots retain what the largest
call of each needed: 576 KiB for the rings-tiny recipe's batch-256 eval, and
4.1 MiB for convnet-bars' (its padded 8-channel input 1.6 MiB, the encoder's
sum and one-term block 1 MiB each, the head's transposed operand 512 KiB);
training's kernel-gradient worker keeps one padded slot, 400 KiB at
convnet-bars' training batch of 64. Two rules make the reuse safe:
- no kernel calls a kernel while it holds a slot: no `block` callback of
  `_accumulate` re-enters one;
- every array a kernel returns is a fresh allocation, never a view of a slot;
  `_accumulate`'s sum may be one, so every caller copies it out.

A larger output's term block is a broadcast multiply (or sign select) of
(terms, 1, row) by (terms, n, 1), the row being the output's size over its
first axis. When numpy's ufunc buffer (8,192 elements by default) holds
several rows, its iterator copies the operands through two such buffers to
lengthen the inner loop. On rows of 128 to 4,095 elements the copy costs
more than it saves (a four-tap block of conv 8->16 s2 at batch 64, rows of
1,024: 84-106 us against 21-28 us; numpy 2.4, 2-vCPU Xeon), so
`_accumulate` sizes the buffer to the row for those blocks and restores the
caller's size in a `finally`. Only elementwise work runs under it (gathers,
the multiply or select, the in-place adds, count_nonzero), so no bit moves:
no order-sensitive reduction (sum, einsum, bincount) and no caller code.
It is never set at import. Shorter rows and outputs of at most `_BINCOUNT`
elements (the per-sample event path) keep numpy's buffering: the copy wins
there (a 16-element buffer took the event conv's (72, 1, 16) x (72, 16, 1)
block from 38 to 104 us). Rows of 4,096 or more are not copied anyway.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .errors import DimensionError

# Most elements one block of terms holds (512 KiB of float64), though a block
# always holds at least one whole term. A block is transient memory on top of
# the output; once a term has this many elements, its one call already costs
# far more than the call overhead a bigger block would save, so large outputs
# get one term per block.
_BLOCK = 1 << 16
# Largest output whose blocks are added with one np.bincount call: the
# measured crossover. On a 2-vCPU Xeon, at 9-256 terms per block, the one
# call ran 1.0-1.3x faster than the per-term loop at 256 elements (10-70x at
# 4) and 0.85-0.92x as fast at 384.
_BINCOUNT = 256
# Rows that size numpy's ufunc buffer (see the module docstring): [128, 4096).
_ROW_BUFFER, _ROW_BUFFER_END = 128, 4096


_SLOTS = threading.local()  # each thread's slot -> its buffer (see the module docstring)


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _scratch(slot: str, shape) -> np.ndarray:
    """An uninitialized C-contiguous float64 array of `shape` in the slot's
    buffer, which grows to fit. The buffer starts on a 64-byte cache line,
    where malloc aligns to 16 bytes only."""
    size = math.prod(shape)
    slots = vars(_SLOTS)  # the calling thread's
    buf = slots.get(slot)
    if buf is None or buf.size < size:
        raw = np.empty(size + 7)
        skip = -raw.ctypes.data % 64 // 8
        buf = slots[slot] = raw[skip : skip + size]
    return np.ndarray(shape, np.float64, buf)


# The cached np.bincount indices (`_bins`, `_tap_rows_index`) stay writeable,
# though nothing may write them: np.bincount copies a read-only index or
# weights array on every call, which cost a 512 KiB copy and up to 224 minor
# faults per call of the training batch's classifier head.
@functools.lru_cache(maxsize=64)
def _bins(count: int, size: int) -> np.ndarray:
    """Output element 0..size-1 of each of `count` terms, term-major."""
    return np.tile(np.arange(size, dtype=np.intp), count)


def _accumulate(shape, count: int, block, signed: bool = False, counter=None) -> np.ndarray:
    """Add `count` terms into a zeroed `shape` array, one at a time in
    ascending term order.

    This order is the accumulation contract: ascending k for matmul,
    ascending (c_in, ky, kx) for conv2d, and the same order over an event
    list, so repeated runs and the event kernel agree bitwise. `block(lo, hi)`
    returns operands (x, w) whose leading axis holds terms lo..hi-1 and which
    broadcast to (hi - lo,) + shape. Each block of terms is built with one
    call. The term is x * w for real weights; with `signed`, w holds folded
    {-1, +1} weights and the term is the sign select +x / -x (the block
    negated, then +x copied where w > 0), with no multiply.

    An output of at most `_BINCOUNT` elements takes a block in one call: the
    running sum is added into the block's first term (the first ordered add),
    then np.bincount runs bins[j] += term[i, j] in a C loop over the terms in
    order, every bin starting at +0.0. Element j thus sees the roundings of a
    term-by-term loop, and the leading +0.0 changes no bit because the sum is
    never -0.0: it starts at +0.0, and a round-to-nearest sum is -0.0 only
    when both addends are. On the first block the sum is still that +0.0, as
    the bins are, so its add is skipped. A larger output adds term by term.
    Adding an exact zero term changes nothing either, so skipping silent
    inputs keeps the result bitwise equal.

    A `counter` (an `events.OpCounter`) counts each block's accumulations, one
    per nonzero entry of x per term it broadcasts to, and on the multiply path
    (not `signed`) its terms.size products as weight-activation multiplies.

    A larger output's sum and term block are scratch (see the module
    docstring), so a caller copies the sum before it returns. A smaller
    output's are not: np.bincount returns a fresh sum per block, and its
    blocks serve one-sample calls, for which a fresh block costs less.
    """
    size = math.prod(shape)
    step = max(1, _BLOCK // max(size, 1))
    block_shape = (min(step, count),) + tuple(shape)
    caller_bufsize = None
    if 0 < size <= _BINCOUNT:
        out, buf = np.zeros(shape), np.empty(block_shape)
    else:
        out, buf = _scratch("sum", shape), _scratch("terms", block_shape)
        out.fill(0.0)
        row = size // max(shape[0], 1)
        if _ROW_BUFFER <= row < _ROW_BUFFER_END:
            caller_bufsize = np.setbufsize(row // 16 * 16)
    try:
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            x, w = block(lo, hi)
            terms = buf[: hi - lo]
            if signed:
                np.negative(x, out=terms)
                np.copyto(terms, x, where=w > 0)
            else:
                np.multiply(x, w, out=terms)
            if counter is not None:
                counter.accumulations += int(np.count_nonzero(x)) * (terms.size // max(x.size, 1))
                counter.weight_activation_mults += 0 if signed else terms.size
            if 0 < out.size <= _BINCOUNT:
                if lo:
                    terms[0] += out
                out = np.bincount(_bins(hi - lo, out.size), terms.ravel(),
                                  out.size).reshape(out.shape)
            else:
                for term in terms:
                    out += term
    finally:
        if caller_bufsize is not None:
            np.setbufsize(caller_bufsize)
    return out


def matmul(a, b) -> np.ndarray:
    """Matrix product of (m, k) by (k, n) accumulating over k in ascending order."""
    a = as_f64(a)
    b = as_f64(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    # The (n, m) transpose puts the batch on the inner axis of every term.
    a_t = a.T
    if not a_t.flags.c_contiguous:  # it is when m == 1
        a_t = _scratch("a_t", a_t.shape)
        a_t[...] = a.T
    out = _accumulate((b.shape[1], a.shape[0]), a.shape[1],
                      lambda lo, hi: (a_t[lo:hi, None], b[lo:hi, :, None]))
    return out.T.copy()


def conv_output_size(extent: int, kernel: int, stride: int, padding: int) -> int:
    return (extent + 2 * padding - kernel) // stride + 1


def _check_conv_args(sample_shape, kernels, stride, padding) -> tuple[int, int]:
    """(H_out, W_out) of the conv of (C_in, H, W) samples by (C_out, C_in, k, k)
    kernels; DimensionError if the arguments do not make a conv."""
    if len(sample_shape) != 3:
        raise DimensionError(f"conv input samples must be (C_in, H, W), got {sample_shape}")
    c_in, h, w = sample_shape
    if kernels.ndim != 4 or kernels.shape[2] != kernels.shape[3]:
        raise DimensionError(f"kernels must be (C_out, C_in, k, k), got {kernels.shape}")
    if kernels.shape[1] != c_in:
        raise DimensionError(f"kernel input channels {kernels.shape[1]} != input channels {c_in}")
    if stride < 1:
        raise DimensionError(f"stride must be >= 1, got {stride}")
    k, hp, wp = kernels.shape[2], h + 2 * padding, w + 2 * padding
    if k > min(hp, wp):
        raise DimensionError(f"kernel size {k} exceeds padded input {hp}x{wp}")
    return conv_output_size(h, k, stride, padding), conv_output_size(w, k, stride, padding)


def _pad_spatial(x: np.ndarray, padding: int) -> np.ndarray:
    """The (..., H, W) array x with its two trailing (spatial) axes
    zero-padded, in scratch (see the module docstring)."""
    if padding == 0:
        return x
    h, w = x.shape[-2:]
    shape = x.shape[:-2] + (h + 2 * padding, w + 2 * padding)
    out = _scratch("padded", shape)
    out.fill(0.0)
    out[..., padding : padding + h, padding : padding + w] = x
    return out


@functools.lru_cache(maxsize=64)
def _tap_offsets(c_in: int, k: int, row: int, plane: int) -> np.ndarray:
    """Flat offset c * plane + ky * row + kx of each (c, ky, kx) tap in a
    C-contiguous padded sample, in ascending tap order."""
    offsets = (np.arange(c_in)[:, None, None] * plane + np.arange(k)[:, None] * row
               + np.arange(k)).ravel()
    offsets.flags.writeable = False
    return offsets


def _windows(xp: np.ndarray, k: int, stride: int, out_hw):
    """A view of the padded (B, C_in, Hp, Wp) batch `xp` (made C-contiguous;
    it shares its memory) whose row o is the (B, H_out, W_out) positions met by
    the tap at flat offset o = c_in * Hp * Wp + ky * Wp + kx, and the offsets
    of every tap in ascending (c_in, ky, kx) order."""
    xp = np.ascontiguousarray(xp)
    batch, c_in, hp, wp = xp.shape
    offsets = _tap_offsets(c_in, k, wp, hp * wp)
    # Row o starts at element o of the batch's first sample; ndarray checks
    # that the last tap's row ends inside the batch.
    sb, _, sy, sx = xp.strides
    rows = np.ndarray((offsets[-1] + 1, batch) + out_hw, xp.dtype, xp, 0,
                      (xp.itemsize, sb, sy * stride, sx * stride))
    return rows, offsets


def _conv_terms(x: np.ndarray, kernels: np.ndarray, stride: int, padding: int):
    """Channel-major output shape (C_out, B, H_out, W_out), term count and
    block function (see `_accumulate`) of the conv of the (B, C_in, H, W)
    batch `x`, in ascending (c_in, ky, kx) order. A term's patch is its
    tap's row (`_windows`), so a block gathers its taps' patches with one
    copy. The rows view the padded input in scratch: reduce the terms before
    the next kernel call."""
    out_hw = _check_conv_args(x.shape[1:], kernels, stride, padding)
    c_out, _, k, _ = kernels.shape
    rows, offsets = _windows(_pad_spatial(x, padding), k, stride, out_hw)
    columns = kernels.transpose(1, 2, 3, 0).reshape(-1, c_out, 1, 1, 1)

    def block(lo, hi):
        first, last = offsets[lo], offsets[hi - 1]
        if last - first == hi - lo - 1:
            # One tap, or taps of one kernel row, at consecutive offsets: a
            # slice copy costs less than an index gather, and large outputs
            # get one tap per block.
            return np.ascontiguousarray(rows[first : last + 1, None]), columns[lo:hi]
        return rows[offsets[lo:hi], None], columns[lo:hi]

    return (c_out, len(x)) + out_hw, len(offsets), block


def conv2d(inp, kernels, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Cross-correlation with zero padding.

    `inp` is (C_in, H, W) or batched (B, C_in, H, W); `kernels` is
    (C_out, C_in, k, k). Output spatial size is
    floor((H + 2*padding - k) / stride) + 1. Each output element accumulates
    its k*k*C_in products in ascending (c_in, ky, kx) order; the channel-major
    sum (see `_conv_terms`) is copied out once, transposed, into a
    C-contiguous result.
    """
    x = as_f64(inp)
    kernels = as_f64(kernels)
    squeeze = x.ndim == 3
    if squeeze:
        x = x[None]
    if x.ndim != 4:
        raise DimensionError(f"conv2d input must be 3-D or 4-D, got {inp.shape}")
    shape, count, block = _conv_terms(x, kernels, stride, padding)
    out = _accumulate(shape, count, block).transpose(1, 0, 2, 3)
    return (out[0] if squeeze else out).copy()


@functools.lru_cache(maxsize=16)
def _tap_rows_index(padded_shape, k: int, stride: int, out_hw) -> np.ndarray:
    """Flat index into a C-contiguous `padded_shape` (B, C_in, Hp, Wp) array
    of every element of every tap's row (`_windows`), tap-major in ascending
    tap order: the (taps, B, H_out, W_out) positions, raveled."""
    flat = np.arange(np.prod(padded_shape), dtype=np.intp).reshape(padded_shape)
    rows, offsets = _windows(flat, k, stride, out_hw)
    return rows[offsets].ravel()


def conv2d_input_grad(grad_out, kernels, stride: int, padding: int, input_hw) -> np.ndarray:
    """Gradient of conv2d w.r.t. its input (transposed correlation): one
    einsum gives every tap's share, and one np.bincount over the cached
    index of the taps' rows (`_tap_rows_index`) adds each share into its
    tap's row of the zeroed, padded gradient. np.bincount adds in index
    order, the index is tap-major and one tap's row meets no position twice,
    so every position takes its shares in ascending tap order, as adding the
    rows one tap at a time would."""
    g = as_f64(grad_out)
    kernels = as_f64(kernels)
    h, w = input_hw
    c_out, c_in, k, _ = kernels.shape
    padded = (g.shape[0], c_in, h + 2 * padding, w + 2 * padding)
    index = _tap_rows_index(padded, k, stride, g.shape[2:])
    # On C_out-major g, einsum sums over C_out in its outer loop: 4-5x faster.
    g_t = np.ascontiguousarray(g.transpose(1, 0, 2, 3))
    shares = np.einsum("obhw,ot->tbhw", g_t, kernels.reshape(c_out, -1))
    # as_f64: np.bincount of an empty batch returns int64.
    gxp = as_f64(np.bincount(index, shares.ravel(), np.prod(padded))).reshape(padded)
    return gxp[:, :, padding : padding + h, padding : padding + w]


def conv2d_kernel_grad(inp, grad_out, stride: int, padding: int, k: int) -> np.ndarray:
    """Gradient of conv2d w.r.t. its kernels, summed over the batch: one
    gather of every tap's row and one einsum."""
    x = as_f64(inp)
    g = as_f64(grad_out)
    rows, offsets = _windows(_pad_spatial(x, padding), k, stride, g.shape[2:])
    gk = np.einsum("bohw,tbhw->ot", g, rows[offsets])
    return gk.reshape(g.shape[1], x.shape[1], k, k)
