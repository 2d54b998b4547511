"""Convolution/pooling kernels vs naive references, adjoint checks."""

import itertools

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F


def naive_conv2d(x, w, b, stride=1, padding=0):
    n, c_in, h, wdt = x.shape
    c_out, _, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                       (padding, padding)))
        h += 2 * padding
        wdt += 2 * padding
    oh = (h - kh) // stride + 1
    ow = (wdt - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow))
    for i in range(n):
        for o in range(c_out):
            for y in range(oh):
                for z in range(ow):
                    patch = x[i, :, y * stride:y * stride + kh,
                              z * stride:z * stride + kw]
                    out[i, o, y, z] = (patch * w[o]).sum()
            if b is not None:
                out[i, o] += b[o]
    return out


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (1, 1), (2, 2)])
def test_conv2d_matches_naive(stride, padding):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 8, 7))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    got = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding).numpy()
    want = naive_conv2d(x, w, b, stride, padding)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_conv2d_channel_mismatch():
    with pytest.raises(ValueError):
        F.conv2d(Tensor(np.zeros((1, 2, 4, 4))),
                 Tensor(np.zeros((3, 5, 2, 2))))


def test_conv2d_gradients_match_numeric():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(1, 2, 5, 5))
    w0 = rng.normal(size=(3, 2, 2, 2))
    b0 = rng.normal(size=3)
    x = Tensor(x0.copy(), requires_grad=True)
    w = Tensor(w0.copy(), requires_grad=True)
    b = Tensor(b0.copy(), requires_grad=True)
    F.conv2d(x, w, b, stride=2, padding=1).sum().backward()

    eps = 1e-6
    for arr0, tensor, make in [
            (w0, w, lambda v: naive_conv2d(x0, v, b0, 2, 1)),
            (b0, b, lambda v: naive_conv2d(x0, w0, v, 2, 1)),
            (x0, x, lambda v: naive_conv2d(v, w0, b0, 2, 1))]:
        num = np.zeros_like(arr0)
        flat = arr0.ravel()
        nflat = num.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = make(arr0).sum()
            flat[i] = orig - eps
            down = make(arr0).sum()
            flat[i] = orig
            nflat[i] = (up - down) / (2 * eps)
        np.testing.assert_allclose(tensor.grad, num, atol=1e-4)


def test_im2col_col2im_adjoint():
    """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 3, 6, 5))
    kh, kw, stride, pad = 3, 2, 2, 1
    cols = F.im2col(x, kh, kw, stride, pad)
    y = rng.normal(size=cols.shape)
    lhs = float((cols * y).sum())
    back = F.col2im(y, x.shape, kh, kw, stride, pad)
    rhs = float((x * back).sum())
    assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("kh,kw,stride,pad",
                         [(3, 3, 1, 1), (2, 3, 2, 0), (1, 1, 1, 0), (3, 2, 3, 2)])
def test_im2col_channel_major_layout(kh, kw, stride, pad):
    """``cols[n, (c*kh + i)*kw + j, y*ow + z]`` is the padded input at
    ``[n, c, y*stride + i, z*stride + j]``.  The graph conv and the plan's
    conv step both build this order; a one-sided edit fails here (or in
    the plan's bitwise property) instead of making them disagree."""
    x = np.random.default_rng(7).normal(size=(2, 3, 7, 6))
    cols = F.im2col(x, kh, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = F.conv_output_size(7, kh, stride, pad)
    ow = F.conv_output_size(6, kw, stride, pad)
    assert cols.shape == (2, 3 * kh * kw, oh * ow)
    for n, c, i, j, y, z in itertools.product(
            range(2), range(3), range(kh), range(kw), range(oh), range(ow)):
        assert cols[n, (c * kh + i) * kw + j, y * ow + z] == \
            xp[n, c, y * stride + i, z * stride + j]


def test_max_pool2d_values_and_grad():
    x0 = np.arange(16.0).reshape(1, 1, 4, 4)
    x = Tensor(x0.copy(), requires_grad=True)
    out = F.max_pool2d(x, 2)
    np.testing.assert_allclose(out.numpy(),
                               [[[[5, 7], [13, 15]]]])
    out.sum().backward()
    want = np.zeros((1, 1, 4, 4))
    want[0, 0, 1, 1] = want[0, 0, 1, 3] = 1
    want[0, 0, 3, 1] = want[0, 0, 3, 3] = 1
    np.testing.assert_allclose(x.grad, want)


def test_max_pool2d_strided():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 2, 7, 7))
    out = F.max_pool2d(Tensor(x), kernel=3, stride=2).numpy()
    assert out.shape == (1, 2, 3, 3)
    assert out[0, 0, 0, 0] == x[0, 0, :3, :3].max()
    assert out[0, 1, 2, 2] == x[0, 1, 4:7, 4:7].max()


def test_avg_pool2d():
    x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
    out = F.avg_pool2d(x, 2)
    np.testing.assert_allclose(out.numpy(), [[[[2.5, 4.5], [10.5, 12.5]]]])
    out.sum().backward()
    np.testing.assert_allclose(x.grad, np.full((1, 1, 4, 4), 0.25))


def test_max_pool1d():
    x = Tensor(np.array([[[1.0, 3.0, 2.0, 5.0, 4.0, 0.0]]]),
               requires_grad=True)
    out = F.max_pool1d(x, kernel=2)
    np.testing.assert_allclose(out.numpy(), [[[3, 5, 4]]])
    out.sum().backward()
    np.testing.assert_allclose(x.grad, [[[0, 1, 0, 1, 1, 0]]])


def test_conv1d_matches_conv2d():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3, 10))
    w = rng.normal(size=(5, 3, 4))
    got = F.conv1d(Tensor(x), Tensor(w), stride=2).numpy()
    want = naive_conv2d(x[:, :, None, :], w[:, :, None, :], None,
                        stride=2)[:, :, 0, :]
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_conv1d_padding_refused_before_any_work():
    # Mismatched channels: conv2d would raise ValueError if it ran first.
    with pytest.raises(NotImplementedError):
        F.conv1d(Tensor(np.ones((1, 3, 8))), Tensor(np.ones((2, 2, 3))),
                 padding=1)


def test_dropout_train_vs_eval():
    rng = np.random.default_rng(5)
    x = Tensor(np.ones((100, 100)))
    out_eval = F.dropout(x, 0.5, training=False, rng=rng)
    assert out_eval is x
    out_train = F.dropout(x, 0.5, training=True, rng=rng).numpy()
    kept = out_train != 0
    assert 0.35 < kept.mean() < 0.65
    # Inverted scaling preserves the expectation.
    assert out_train.mean() == pytest.approx(1.0, abs=0.1)


def test_softmax_normalizes():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(4, 7)) * 30)  # large values: stability check
    s = F.softmax(x).numpy()
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(4), atol=1e-12)
    assert np.all(s >= 0)
    ls = F.log_softmax(x).numpy()
    np.testing.assert_allclose(np.exp(ls), s, atol=1e-10)


def test_conv_output_size():
    assert F.conv_output_size(10, 3, 1) == 8
    assert F.conv_output_size(10, 3, 2) == 4
    assert F.conv_output_size(10, 3, 1, padding=1) == 10
