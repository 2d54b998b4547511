"""Vectorized neural-network primitives (im2col convolution, pooling).

These free functions operate on :class:`repro.nn.tensor.Tensor` and
implement the dense kernels the paper delegates to the Torch backend.
All hot loops are expressed as NumPy stride-tricks views plus matrix
multiplies, following the vectorize-don't-loop idiom: an ``im2col``
gather turns convolution into a single GEMM, which is how production
inference engines realize conv layers on CPUs.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "linear", "conv1d", "conv2d", "max_pool1d", "max_pool2d",
    "avg_pool2d", "dropout", "softmax", "log_softmax", "im2col", "col2im",
    "conv_output_size", "max_pool2d_raw", "max_pool1d_raw", "avg_pool2d_raw",
]


def conv_output_size(n: int, kernel: int, stride: int, padding: int = 0) -> int:
    """Output length of a 1-D convolution/pooling window sweep."""
    return (n + 2 * padding - kernel) // stride + 1


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with Torch weight layout (out, in)."""
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


# ----------------------------------------------------------------------
# im2col machinery
# ----------------------------------------------------------------------

def _windows(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Read-only ``(N, C, kh, kw, out_h, out_w)`` view of every window of
    an already padded ``xp`` (N, C, H, W): the source of one im2col copy
    whose inner axis is an ``out_w`` run."""
    n, c, h, w = xp.shape
    sn, sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, shape=(n, c, kh, kw, (h - kh) // stride + 1, (w - kw) // stride + 1),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride), writeable=False)


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Gather sliding ``kh x kw`` patches of ``x`` (N, C, H, W) into
    channel-major columns of shape ``(N, C*kh*kw, out_h*out_w)``:
    ``cols[n, (c*kh + i)*kw + j, y*out_w + z]`` is the padded input at
    ``[n, c, y*stride + i, z*stride + j]``.  ``W.reshape(C_out, -1) @
    cols`` is then the NCHW convolution, one GEMM per sample.
    """
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    view = _windows(x, kh, kw, stride)
    n, c, _, _, out_h, out_w = view.shape
    return view.copy().reshape(n, c * kh * kw, out_h * out_w)


def col2im(cols: np.ndarray, x_shape: tuple, kh: int, kw: int,
           stride: int, padding: int) -> np.ndarray:
    """Scatter-add ``(N, C*kh*kw, out_h*out_w)`` columns back to image
    layout ``x_shape`` (adjoint of :func:`im2col`)."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    x = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    patch = cols.reshape(n, c, kh, kw, out_h, out_w)
    for ih in range(kh):
        for iw in range(kw):
            x[:, :, ih:ih + stride * out_h:stride,
              iw:iw + stride * out_w:stride] += patch[:, :, ih, iw]
    if padding:
        x = x[:, :, padding:-padding, padding:-padding]
    return x


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation.

    ``x``: (N, C_in, H, W); ``weight``: (C_out, C_in, kh, kw);
    ``bias``: (C_out,).  Implemented as im2col + one GEMM per sample.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv2d channel mismatch: input {c_in} vs weight {c_in_w}")
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    cols = im2col(x.data, kh, kw, stride, padding)        # (N, C*kh*kw, oh*ow)
    wmat = weight.data.reshape(c_out, -1)                 # (C_out, C*kh*kw)
    out3 = np.matmul(wmat, cols)                          # (N, C_out, oh*ow)
    if bias is not None:
        out3 += bias.data.reshape(-1, 1)
    out_data = out3.reshape(n, c_out, out_h, out_w)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        g3 = g.reshape(n, c_out, -1)                            # (N, C_out, oh*ow)
        gw = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
        gx = col2im(np.matmul(wmat.T, g3), x.data.shape, kh, kw, stride, padding)
        if bias is None:
            return gx, gw
        gb = g.sum(axis=(0, 2, 3))
        return gx, gw, gb

    return Tensor._make(out_data, parents, backward)


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """1-D cross-correlation via the 2-D kernel with a unit height."""
    if padding:
        raise NotImplementedError("conv1d padding: pad the input explicitly")
    n, c_in, length = x.shape
    c_out, _, k = weight.shape
    x4 = x.reshape(n, c_in, 1, length)
    w4 = weight.reshape(c_out, c_in, 1, k)
    out = conv2d(x4, w4, bias, stride=stride, padding=0)
    oh = out.shape[-1]
    return out.reshape(n, c_out, oh)


def max_pool2d_raw(x: np.ndarray, kernel: int, stride: int):
    """Forward max-pool on a raw array: ``(out, argmax, out_h, out_w)``.

    Shared between the autodiff op below and the compiled fast path.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride)
    out_w = conv_output_size(w, kernel, stride)
    sn, sc, sh, sw = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    flat = view.reshape(n, c, out_h, out_w, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    return out, arg, out_h, out_w


def max_pool1d_raw(x: np.ndarray, kernel: int, stride: int):
    """Forward 1-D max-pool on a raw array: ``(out, argmax)``."""
    n, c, length = x.shape
    out_l = conv_output_size(length, kernel, stride)
    x4 = x.reshape(n, c, 1, length)
    sn, sc, sh, sw = x4.strides
    view = np.lib.stride_tricks.as_strided(
        x4, shape=(n, c, 1, out_l, 1, kernel),
        strides=(sn, sc, sh, sw * stride, sh, sw), writeable=False)
    flat = view.reshape(n, c, out_l, kernel)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    return out, arg


def avg_pool2d_raw(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Forward average-pool on a raw array."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride)
    out_w = conv_output_size(w, kernel, stride)
    sn, sc, sh, sw = x.strides
    view = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw), writeable=False)
    return view.mean(axis=(-1, -2))


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping-or-strided ``kernel x kernel`` windows."""
    stride = stride or kernel
    out_data, arg, out_h, out_w = max_pool2d_raw(x.data, kernel, stride)

    def backward(g):
        gx = np.zeros_like(x.data)
        # Scatter each window gradient back to the argmax position.
        ih = arg // kernel
        iw = arg % kernel
        n_idx, c_idx, oh_idx, ow_idx = np.indices(arg.shape)
        rows = oh_idx * stride + ih
        cols_ = ow_idx * stride + iw
        np.add.at(gx, (n_idx, c_idx, rows, cols_), g)
        return (gx,)

    return Tensor._make(out_data, (x,), backward)


def max_pool1d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """1-D max pooling (reduces over the trailing axis)."""
    stride = stride or kernel
    out_data, arg = max_pool1d_raw(x.data, kernel, stride)

    def backward(g):
        gx = np.zeros_like(x.data)
        n_idx, c_idx, ol_idx = np.indices(arg.shape)
        cols_ = ol_idx * stride + arg
        np.add.at(gx, (n_idx, c_idx, cols_), g)
        return (gx,)

    return Tensor._make(out_data, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling; backward distributes gradient uniformly per window."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride)
    out_w = conv_output_size(w, kernel, stride)
    out_data = avg_pool2d_raw(x.data, kernel, stride)

    def backward(g):
        gx = np.zeros_like(x.data)
        scale = 1.0 / (kernel * kernel)
        for ih in range(kernel):
            for iw in range(kernel):
                gx[:, :, ih:ih + stride * out_h:stride,
                   iw:iw + stride * out_w:stride] += g * scale
        return (gx,)

    return Tensor._make(out_data, (x,), backward)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: identity at inference, mask-and-rescale in training."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep) / keep
    return Tensor._make(x.data * mask, (x,), lambda g: (g * mask,))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()
