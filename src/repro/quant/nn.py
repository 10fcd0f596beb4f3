"""Minimal float neural-network engine with hand-coded backprop.

This is the "plain-G" side of the paper's Table 5 pipeline: generic
full-precision training, after which models are calibrated and quantized
(:mod:`repro.quant.quantize`) and finally run under FHE by the Athena
framework. The engine supports everything the four benchmark CNNs need:
conv / linear / batch-norm / ReLU / max- and avg-pooling / residual blocks,
softmax cross-entropy, and SGD with momentum.

Layout convention: activations are (batch, channels, height, width) for
spatial layers and (batch, features) after ``Flatten``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Batch-norm running-statistics momentum and variance epsilon.
BN_MOMENTUM = 0.9
BN_EPS = 1e-5
#: SGD's classical momentum coefficient.
MOMENTUM = 0.9



class Layer:
    """Base class: ``forward(x, train=False)`` caches whatever
    ``backward(grad)`` needs; every layer defines both."""

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(param, grad) pairs for the optimizer."""
        return []


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """(B, C, H, W) -> (B, out_h, out_w, C*kh*kw) patch matrix.

    The last axis is channel-major (c, then kh, then kw), matching the
    weight-matrix reshape used by the conv layers and the quantized IR.
    Shared by the float engine, the quantized integer forward, and the
    simulated Athena engine.
    """
    b, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    s = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(b, c, out_h, out_w, kh, kw),
        strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, out_h, out_w, c * kh * kw)
    return cols, out_h, out_w


def _col2im(cols: np.ndarray, x_shape, kh, kw, stride, pad):
    """Adjoint of im2col: scatter patch gradients back onto the image."""
    b, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    out = np.zeros((b, c, hp, wp), dtype=cols.dtype)
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    grads = cols.reshape(b, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride] += grads[
                :, :, :, :, i, j
            ]
    if pad:
        out = out[:, :, pad:-pad, pad:-pad]
    return out


def expand_grouped_weight(weight: np.ndarray, groups: int) -> np.ndarray:
    """Expand a grouped ``(out_ch, in_ch//groups, kh, kw)`` weight to dense.

    The dense equivalent has shape ``(out_ch, in_ch, kh, kw)`` with zeros
    outside the block diagonal: output channel ``o`` (in group
    ``g = o // (out_ch // groups)``) only connects to input channels
    ``[g * gin, (g + 1) * gin)``. Grouped and depthwise convolutions run
    through the dense path everywhere (float forward, integer forward, and
    the coefficient encoding) so they are *exactly* — not approximately —
    a sparse dense conv, which keeps Eq. 1 packing untouched.
    """
    if groups == 1:
        return weight
    out_ch, gin, kh, kw = weight.shape
    if out_ch % groups:
        raise ValueError(f"out_ch {out_ch} not divisible by groups {groups}")
    gout = out_ch // groups
    dense = np.zeros((out_ch, gin * groups, kh, kw), dtype=weight.dtype)
    for g in range(groups):
        rows = slice(g * gout, (g + 1) * gout)
        cols = slice(g * gin, (g + 1) * gin)
        dense[rows, cols] = weight[rows]
    return dense


class Conv2d(Layer):
    """2D convolution with He initialization.

    ``groups`` splits input and output channels into independent groups
    (``groups == in_ch == out_ch`` is a depthwise conv). The stored weight
    keeps the grouped shape ``(out_ch, in_ch // groups, k, k)``; compute
    runs through :func:`expand_grouped_weight`'s dense equivalent so every
    downstream consumer (quantizer, encoder) sees an ordinary conv.
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int = 1,
                 pad: int = 0, bias: bool = True, rng: np.random.Generator | None = None,
                 groups: int = 1):
        rng = rng or np.random.default_rng()
        if in_ch % groups or out_ch % groups:
            raise ValueError(
                f"groups {groups} must divide in_ch {in_ch} and out_ch {out_ch}"
            )
        fan_in = (in_ch // groups) * kernel * kernel
        self.weight = rng.normal(
            0, np.sqrt(2.0 / fan_in), (out_ch, in_ch // groups, kernel, kernel)
        )
        self.bias = np.zeros(out_ch) if bias else None
        self.stride, self.pad, self.kernel = stride, pad, kernel
        self.in_ch, self.out_ch, self.groups = in_ch, out_ch, groups
        self.w_grad = np.zeros_like(self.weight)
        self.b_grad = np.zeros_like(self.bias) if bias else None
        self._cache = None

    def forward(self, x, train=False):
        cols, oh, ow = im2col(x, self.kernel, self.kernel, self.stride, self.pad)
        wmat = expand_grouped_weight(self.weight, self.groups).reshape(self.out_ch, -1)
        out = cols @ wmat.T
        if self.bias is not None:
            out = out + self.bias
        if train:
            self._cache = (x.shape, cols)
        return out.transpose(0, 3, 1, 2)

    def backward(self, grad):
        x_shape, cols = self._cache
        g = grad.transpose(0, 2, 3, 1)  # (B, oh, ow, out_ch)
        wmat = expand_grouped_weight(self.weight, self.groups).reshape(self.out_ch, -1)
        dense_grad = (
            g.reshape(-1, self.out_ch).T @ cols.reshape(-1, cols.shape[-1])
        ).reshape(self.out_ch, self.in_ch, self.kernel, self.kernel)
        if self.groups == 1:
            self.w_grad[...] = dense_grad
        else:
            gout = self.out_ch // self.groups
            gin = self.in_ch // self.groups
            for gi in range(self.groups):
                rows = slice(gi * gout, (gi + 1) * gout)
                cols_g = slice(gi * gin, (gi + 1) * gin)
                self.w_grad[rows] = dense_grad[rows, cols_g]
        if self.bias is not None:
            self.b_grad[...] = g.sum(axis=(0, 1, 2))
        dcols = g @ wmat
        return _col2im(dcols, x_shape, self.kernel, self.kernel, self.stride, self.pad)

    def parameters(self):
        out = [(self.weight, self.w_grad)]
        if self.bias is not None:
            out.append((self.bias, self.b_grad))
        return out


class Linear(Layer):
    def __init__(self, in_f: int, out_f: int, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng()
        self.weight = rng.normal(0, np.sqrt(2.0 / in_f), (out_f, in_f))
        self.bias = np.zeros(out_f)
        self.w_grad = np.zeros_like(self.weight)
        self.b_grad = np.zeros_like(self.bias)
        self._x = None

    def forward(self, x, train=False):
        if train:
            self._x = x
        return x @ self.weight.T + self.bias

    def backward(self, grad):
        self.w_grad[...] = grad.T @ self._x
        self.b_grad[...] = grad.sum(axis=0)
        return grad @ self.weight

    def parameters(self):
        return [(self.weight, self.w_grad), (self.bias, self.b_grad)]


class ReLU(Layer):
    def __init__(self):
        self._mask = None

    def forward(self, x, train=False):
        if train:
            self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, grad):
        return grad * self._mask


class Flatten(Layer):
    def __init__(self):
        self._shape = None

    def forward(self, x, train=False):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)


class MaxPool2d(Layer):
    def __init__(self, kernel: int):
        self.kernel = self.stride = kernel  # non-overlapping windows
        self._cache = None

    def forward(self, x, train=False):
        cols, oh, ow = im2col(x, self.kernel, self.kernel, self.stride, 0)
        b, c = x.shape[0], x.shape[1]
        patches = cols.reshape(b, oh, ow, c, self.kernel * self.kernel)
        idx = patches.argmax(axis=-1)
        out = np.take_along_axis(patches, idx[..., None], axis=-1)[..., 0]
        if train:
            self._cache = (x.shape, idx, oh, ow)
        return out.transpose(0, 3, 1, 2)

    def backward(self, grad):
        x_shape, idx, oh, ow = self._cache
        b, c = x_shape[0], x_shape[1]
        g = grad.transpose(0, 2, 3, 1)  # (B, oh, ow, C)
        patches = np.zeros((b, oh, ow, c, self.kernel * self.kernel), dtype=grad.dtype)
        np.put_along_axis(patches, idx[..., None], g[..., None], axis=-1)
        cols = patches.reshape(b, oh, ow, c * self.kernel * self.kernel)
        return _col2im(cols, x_shape, self.kernel, self.kernel, self.stride, 0)


class AvgPool2d(Layer):
    def __init__(self, kernel: int):
        self.kernel = self.stride = kernel  # non-overlapping windows
        self._shape = None

    def forward(self, x, train=False):
        cols, oh, ow = im2col(x, self.kernel, self.kernel, self.stride, 0)
        b, c = x.shape[0], x.shape[1]
        patches = cols.reshape(b, oh, ow, c, self.kernel * self.kernel)
        if train:
            self._shape = x.shape
        return patches.mean(axis=-1).transpose(0, 3, 1, 2)

    def backward(self, grad):
        b, c, oh, ow = grad.shape
        g = grad.transpose(0, 2, 3, 1)[..., None] / (self.kernel * self.kernel)
        patches = np.broadcast_to(
            g, (b, oh, ow, c, self.kernel * self.kernel)
        ).reshape(b, oh, ow, c * self.kernel * self.kernel)
        return _col2im(patches.copy(), self._shape, self.kernel, self.kernel, self.stride, 0)


class GlobalAvgPool(Layer):
    """Average over the full spatial extent -> (B, C)."""

    def __init__(self):
        self._shape = None

    def forward(self, x, train=False):
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad):
        b, c, h, w = self._shape
        return np.broadcast_to(grad[:, :, None, None] / (h * w), self._shape).copy()


class BatchNorm2d(Layer):
    def __init__(self, channels: int):
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.g_grad = np.zeros(channels)
        self.b_grad = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache = None

    def forward(self, x, train=False):
        if train:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mean
            self.running_var = BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var
            xhat = (x - mean[None, :, None, None]) / np.sqrt(var[None, :, None, None] + BN_EPS)
            self._cache = (xhat, var)
            return self.gamma[None, :, None, None] * xhat + self.beta[None, :, None, None]
        xhat = (x - self.running_mean[None, :, None, None]) / np.sqrt(
            self.running_var[None, :, None, None] + BN_EPS
        )
        return self.gamma[None, :, None, None] * xhat + self.beta[None, :, None, None]

    def backward(self, grad):
        xhat, var = self._cache
        m = grad.shape[0] * grad.shape[2] * grad.shape[3]
        self.g_grad[...] = (grad * xhat).sum(axis=(0, 2, 3))
        self.b_grad[...] = grad.sum(axis=(0, 2, 3))
        g = self.gamma[None, :, None, None]
        dxhat = grad * g
        inv_std = 1.0 / np.sqrt(var[None, :, None, None] + BN_EPS)
        return inv_std / m * (
            m * dxhat
            - dxhat.sum(axis=(0, 2, 3), keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        )

    def parameters(self):
        return [(self.gamma, self.g_grad), (self.beta, self.b_grad)]


class Sequential(Layer):
    def __init__(self, *layers: Layer):
        self.layers = list(layers)

    def forward(self, x, train=False):
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def backward(self, grad):
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out


class Residual(Layer):
    """y = relu(body(x) + shortcut(x)) — the ResNet basic-block skeleton."""

    def __init__(self, body: Sequential, shortcut: Layer | None = None):
        self.body = body
        self.shortcut = shortcut
        self.relu = ReLU()

    def forward(self, x, train=False):
        main = self.body.forward(x, train)
        skip = self.shortcut.forward(x, train) if self.shortcut else x
        return self.relu.forward(main + skip, train)

    def backward(self, grad):
        grad = self.relu.backward(grad)
        d_main = self.body.backward(grad)
        d_skip = self.shortcut.backward(grad) if self.shortcut else grad
        return d_main + d_skip

    def parameters(self):
        out = self.body.parameters()
        if self.shortcut:
            out.extend(self.shortcut.parameters())
        return out


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray):
    """(loss, dlogits) for softmax cross-entropy with integer labels."""
    probs = softmax(logits)
    b = logits.shape[0]
    loss = -np.log(probs[np.arange(b), labels] + 1e-12).mean()
    grad = probs
    grad[np.arange(b), labels] -= 1.0
    return loss, grad / b


@dataclass
class Sgd:
    """SGD with classical momentum (:data:`MOMENTUM`)."""

    lr: float = 0.05
    _velocity: dict[int, np.ndarray] = field(init=False, default_factory=dict)

    def step(self, params: list[tuple[np.ndarray, np.ndarray]]) -> None:
        for i, (p, g) in enumerate(params):
            v = self._velocity.get(i)
            if v is None:
                v = np.zeros_like(p)
            v = MOMENTUM * v - self.lr * g
            self._velocity[i] = v
            p += v


def train_epoch(model: Layer, x: np.ndarray, y: np.ndarray, opt: Sgd,
                batch_size: int = 32, rng: np.random.Generator | None = None) -> float:
    """One epoch of SGD; returns mean loss."""
    rng = rng or np.random.default_rng()
    order = rng.permutation(x.shape[0])
    losses = []
    for start in range(0, x.shape[0], batch_size):
        idx = order[start : start + batch_size]
        logits = model.forward(x[idx], train=True)
        loss, grad = cross_entropy_grad(logits, y[idx])
        model.backward(grad)
        opt.step(model.parameters())
        losses.append(loss)
    return float(np.mean(losses))


def accuracy(model: Layer, x: np.ndarray, y: np.ndarray) -> float:
    """Top-1 accuracy, ``x`` run 256 images at a time."""
    correct = 0
    for start in range(0, x.shape[0], 256):
        logits = model.forward(x[start : start + 256])
        correct += int((logits.argmax(axis=1) == y[start : start + 256]).sum())
    return correct / x.shape[0]
