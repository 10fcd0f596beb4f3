"""Tests for the float NN engine: layers, gradients, training."""

import numpy as np
import pytest

from repro.quant import nn
from repro.quant.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Linear,
    MaxPool2d,
    ReLU,
    Residual,
    Sequential,
    Sgd,
    accuracy,
    cross_entropy_grad,
    softmax,
    train_epoch,
)


def numerical_grad(f, x, eps=1e-5):
    """Central-difference gradient of scalar f wrt array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        fp = f()
        x[idx] = old - eps
        fm = f()
        x[idx] = old
        grad[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


def check_input_grad(layer, x, atol=1e-4):
    """Backprop input gradient vs numerical gradient of sum(output).

    The numeric probe must run in train mode too: BatchNorm computes a
    different function (batch stats vs running stats) per mode.
    """
    out = layer.forward(x, train=True)
    analytic = layer.backward(np.ones_like(out))
    numeric = numerical_grad(lambda: layer.forward(x, train=True).sum(), x)
    assert np.allclose(analytic, numeric, atol=atol), (
        f"max diff {np.abs(analytic - numeric).max()}"
    )


class TestConv2d:
    def test_output_shape(self, rng):
        conv = Conv2d(3, 8, kernel=3, stride=2, pad=1, rng=rng)
        out = conv.forward(rng.normal(size=(2, 3, 16, 16)))
        assert out.shape == (2, 8, 8, 8)

    def test_matches_direct_convolution(self, rng):
        conv = Conv2d(2, 3, kernel=3, stride=1, pad=1, rng=rng)
        x = rng.normal(size=(1, 2, 5, 5))
        out = conv.forward(x)
        # direct computation at one output position
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        manual = (xp[0, :, 2:5, 2:5] * conv.weight[1]).sum() + conv.bias[1]
        assert np.isclose(out[0, 1, 2, 2], manual)

    def test_input_gradient(self, rng):
        conv = Conv2d(2, 3, kernel=3, stride=1, pad=1, rng=rng)
        check_input_grad(conv, rng.normal(size=(2, 2, 5, 5)))

    def test_weight_gradient(self, rng):
        conv = Conv2d(2, 2, kernel=3, stride=2, pad=1, rng=rng)
        x = rng.normal(size=(2, 2, 6, 6))
        out = conv.forward(x, train=True)
        conv.backward(np.ones_like(out))
        numeric = numerical_grad(lambda: conv.forward(x).sum(), conv.weight)
        assert np.allclose(conv.w_grad, numeric, atol=1e-4)

    def test_strided_no_pad(self, rng):
        conv = Conv2d(4, 8, kernel=1, stride=2, pad=0, rng=rng)
        out = conv.forward(rng.normal(size=(1, 4, 16, 16)))
        assert out.shape == (1, 8, 8, 8)


class TestLinear:
    def test_forward(self, rng):
        lin = Linear(4, 3, rng=rng)
        x = rng.normal(size=(2, 4))
        assert np.allclose(lin.forward(x), x @ lin.weight.T + lin.bias)

    def test_gradients(self, rng):
        lin = Linear(5, 3, rng=rng)
        x = rng.normal(size=(4, 5))
        out = lin.forward(x, train=True)
        din = lin.backward(np.ones_like(out))
        assert np.allclose(din, np.ones((4, 3)) @ lin.weight)
        assert np.allclose(lin.w_grad, np.ones((4, 3)).T @ x)
        assert np.allclose(lin.b_grad, 4 * np.ones(3))


class TestActivationsAndPools:
    def test_relu(self, rng):
        layer = ReLU()
        x = rng.normal(size=(3, 4))
        out = layer.forward(x, train=True)
        assert np.array_equal(out, np.maximum(x, 0))
        grad = layer.backward(np.ones_like(out))
        assert np.array_equal(grad, (x > 0).astype(float))

    def test_maxpool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2d(2).forward(x)
        assert np.array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_grad_routes_to_max(self):
        pool = MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = pool.forward(x, train=True)
        grad = pool.backward(np.ones_like(out))
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        assert np.array_equal(grad[0, 0], expected)

    def test_avgpool(self, rng):
        pool = AvgPool2d(2)
        x = rng.normal(size=(2, 3, 4, 4))
        out = pool.forward(x, train=True)
        assert np.isclose(out[0, 0, 0, 0], x[0, 0, :2, :2].mean())
        check_input_grad(pool, x)

    def test_global_avgpool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        layer = GlobalAvgPool()
        out = layer.forward(x, train=True)
        assert out.shape == (2, 3)
        assert np.allclose(out, x.mean(axis=(2, 3)))
        check_input_grad(layer, x)

    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 4))
        out = layer.forward(x, train=True)
        assert out.shape == (2, 48)
        assert layer.backward(out).shape == x.shape


class TestBatchNorm:
    def test_normalizes_in_train(self, rng):
        bn = BatchNorm2d(3)
        x = rng.normal(2.0, 3.0, size=(8, 3, 4, 4))
        out = bn.forward(x, train=True)
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0, atol=1e-6)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1, atol=1e-2)

    def test_running_stats_used_in_eval(self, rng):
        bn = BatchNorm2d(2)
        x = rng.normal(1.0, 2.0, size=(16, 2, 4, 4))
        for _ in range(50):
            bn.forward(x, train=True)
        eval_out = bn.forward(x, train=False)
        train_out = bn.forward(x, train=True)
        assert np.allclose(eval_out, train_out, atol=0.3)

    def test_input_gradient(self, rng):
        bn = BatchNorm2d(2)
        x = rng.normal(size=(4, 2, 3, 3))
        check_input_grad(bn, x, atol=1e-3)


class TestResidual:
    def test_identity_skip(self, rng):
        body = Sequential(Conv2d(4, 4, 3, 1, 1, rng=rng))
        block = Residual(body)
        x = rng.normal(size=(2, 4, 8, 8))
        out = block.forward(x, train=True)
        expected = np.maximum(body.layers[0].forward(x) + x, 0)
        assert np.allclose(out, expected)

    def test_projection_skip_shapes(self, rng):
        body = Sequential(Conv2d(4, 8, 3, 2, 1, rng=rng))
        short = Sequential(Conv2d(4, 8, 1, 2, 0, rng=rng))
        block = Residual(body, short)
        out = block.forward(rng.normal(size=(2, 4, 8, 8)))
        assert out.shape == (2, 8, 4, 4)

    def test_gradient_flows_both_paths(self, rng):
        body = Sequential(Conv2d(3, 3, 3, 1, 1, rng=rng))
        block = Residual(body)
        x = rng.normal(size=(1, 3, 5, 5))
        check_input_grad(block, x)


class TestLossAndTraining:
    def test_softmax_normalizes(self, rng):
        p = softmax(rng.normal(size=(5, 10)))
        assert np.allclose(p.sum(axis=1), 1)

    def test_cross_entropy_grad_direction(self):
        logits = np.zeros((1, 3))
        loss, grad = cross_entropy_grad(logits.copy(), np.array([1]))
        assert grad[0, 1] < 0 and grad[0, 0] > 0

    def test_cross_entropy_matches_numeric(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = np.array([0, 2, 1])
        _, grad = cross_entropy_grad(logits.copy(), labels)
        numeric = numerical_grad(
            lambda: cross_entropy_grad(logits.copy(), labels)[0], logits
        )
        assert np.allclose(grad, numeric, atol=1e-5)

    def test_sgd_reduces_loss_on_toy_problem(self, rng):
        x = rng.normal(size=(200, 4))
        y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
        model = Sequential(Linear(4, 16, rng=rng), ReLU(), Linear(16, 2, rng=rng))
        opt = Sgd(lr=0.1)
        first = train_epoch(model, x, y, opt, rng=rng)
        for _ in range(10):
            last = train_epoch(model, x, y, opt, rng=rng)
        assert last < first
        assert accuracy(model, x, y) > 0.9


class TestIm2col:
    """Direct unit tests for the public patch-matrix primitive."""

    @staticmethod
    def _naive(x, kh, kw, stride, pad):
        b, c, h, w = x.shape
        if pad:
            x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        oh = (h + 2 * pad - kh) // stride + 1
        ow = (w + 2 * pad - kw) // stride + 1
        cols = np.empty((b, oh, ow, c * kh * kw), dtype=x.dtype)
        for bi in range(b):
            for i in range(oh):
                for j in range(ow):
                    patch = x[bi, :, i * stride : i * stride + kh,
                              j * stride : j * stride + kw]
                    cols[bi, i, j] = patch.reshape(-1)
        return cols, oh, ow

    @pytest.mark.parametrize(
        "shape,kh,kw,stride,pad",
        [
            ((2, 3, 8, 8), 3, 3, 1, 0),
            ((2, 3, 8, 8), 3, 3, 1, 1),  # 'same' padding
            ((1, 2, 7, 7), 3, 3, 2, 1),  # stride 2, odd input
            ((1, 1, 6, 6), 2, 2, 2, 0),  # pooling-style tiling
            ((2, 4, 5, 9), 3, 3, 2, 2),  # non-square input, pad > 1
            ((1, 2, 5, 5), 1, 1, 1, 0),  # pointwise
            ((1, 1, 4, 4), 4, 4, 1, 0),  # kernel == input (single patch)
            ((1, 2, 3, 3), 3, 3, 1, 2),  # padding larger than border
            ((1, 3, 6, 6), 2, 3, 1, 0),  # non-square kernel
            ((1, 1, 9, 9), 3, 3, 3, 0),  # stride == kernel, exact tiling
            ((1, 1, 8, 8), 3, 3, 5, 0),  # stride > kernel (skipped pixels)
        ],
    )
    def test_matches_naive_reference(self, rng, shape, kh, kw, stride, pad):
        x = rng.integers(-9, 10, shape).astype(np.int64)
        cols, oh, ow = nn.im2col(x, kh, kw, stride, pad)
        ref, roh, row = self._naive(x, kh, kw, stride, pad)
        assert (oh, ow) == (roh, row)
        assert np.array_equal(cols, ref)

    def test_channel_major_last_axis(self, rng):
        """Last axis must be (c, kh, kw)-ordered — the weight reshape and the
        quantized engines' window reductions both rely on it."""
        x = rng.normal(size=(1, 3, 4, 4))
        cols, _, _ = nn.im2col(x, 2, 2, 1, 0)
        patch = cols[0, 1, 2].reshape(3, 2, 2)
        assert np.array_equal(patch, x[0, :, 1:3, 2:4])

    def test_single_patch_flattens_whole_image(self, rng):
        x = rng.normal(size=(2, 2, 3, 3))
        cols, oh, ow = nn.im2col(x, 3, 3, 1, 0)
        assert (oh, ow) == (1, 1)
        assert np.array_equal(cols[:, 0, 0], x.reshape(2, -1))

    def test_output_not_writeable_view_corruption(self, rng):
        """im2col must return patches that are safe to reshape/reduce."""
        x = rng.integers(0, 5, (1, 1, 4, 4)).astype(np.int64)
        cols, _, _ = nn.im2col(x, 2, 2, 2, 0)
        summed = cols.sum(axis=-1)
        assert summed.shape == (1, 2, 2)
        assert summed[0, 0, 0] == x[0, 0, :2, :2].sum()
