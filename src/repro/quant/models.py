"""Benchmark model builders (paper §5.1).

* ``mnist_cnn``  — the small CryptoNets-style CNN [4]: one convolution and
  two fully-connected layers, ReLU activations.
* ``lenet``      — classic LeNet-5 [26] with the square activation replaced
  by ReLU and two max-pooling layers, as the paper does.
* ``resnet20`` / ``resnet56`` — CIFAR-style ResNets (3 stages x {3,9} basic
  blocks, projection shortcuts at stride-2 transitions, global average
  pooling), matching the shapes in the paper's Table 2.

Each builder accepts a ``width`` multiplier and ``rng`` so tests can train
miniature variants quickly; defaults give the paper's architectures.
"""

from __future__ import annotations

import numpy as np

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
)

MODEL_NAMES = ("mnist_cnn", "lenet", "resnet20", "resnet56")


def mnist_cnn(rng: np.random.Generator | None = None, width: float = 1.0) -> Sequential:
    """1 conv + 2 FC, for 1x28x28 inputs, 10 classes."""
    rng = rng or np.random.default_rng(0)
    c = max(2, int(5 * width))
    hidden = max(10, int(100 * width))
    # Exactly the paper's shape: one convolution and two FC layers. The
    # stride-4 convolution does the downsampling, keeping the FC fan-in
    # (and with it every MAC) comfortably inside the plaintext modulus.
    return Sequential(
        Conv2d(1, c, kernel=5, stride=4, pad=2, rng=rng),  # -> c x 7 x 7
        ReLU(),
        Flatten(),
        Linear(c * 7 * 7, hidden, rng=rng),
        ReLU(),
        Linear(hidden, 10, rng=rng),
    )


def lenet(rng: np.random.Generator | None = None, width: float = 1.0) -> Sequential:
    """LeNet-5 with ReLU and max-pooling, for 1x28x28 inputs."""
    rng = rng or np.random.default_rng(0)
    c1 = max(2, int(6 * width))
    c2 = max(4, int(16 * width))
    h1 = max(8, int(120 * width))
    h2 = max(8, int(84 * width))
    return Sequential(
        Conv2d(1, c1, kernel=5, stride=1, pad=2, rng=rng),  # -> c1 x 28 x 28
        ReLU(),
        MaxPool2d(2),  # -> 14 x 14
        Conv2d(c1, c2, kernel=5, stride=1, pad=0, rng=rng),  # -> c2 x 10 x 10
        ReLU(),
        MaxPool2d(2),  # -> 5 x 5
        Flatten(),
        Linear(c2 * 5 * 5, h1, rng=rng),
        ReLU(),
        Linear(h1, h2, rng=rng),
        ReLU(),
        Linear(h2, 10, rng=rng),
    )


def _basic_block(in_ch: int, out_ch: int, stride: int, rng) -> Residual:
    body = Sequential(
        Conv2d(in_ch, out_ch, kernel=3, stride=stride, pad=1, bias=False, rng=rng),
        BatchNorm2d(out_ch),
        ReLU(),
        Conv2d(out_ch, out_ch, kernel=3, stride=1, pad=1, bias=False, rng=rng),
        BatchNorm2d(out_ch),
    )
    shortcut = None
    if stride != 1 or in_ch != out_ch:
        shortcut = Sequential(
            Conv2d(in_ch, out_ch, kernel=1, stride=stride, pad=0, bias=False, rng=rng),
            BatchNorm2d(out_ch),
        )
    return Residual(body, shortcut)


def _cifar_resnet(blocks_per_stage: int, rng: np.random.Generator | None,
                  width: float) -> Sequential:
    """A CIFAR-10 ResNet over 3-channel images."""
    rng = rng or np.random.default_rng(0)
    widths = [max(4, int(16 * width)), max(8, int(32 * width)), max(8, int(64 * width))]
    layers: list = [
        Conv2d(3, widths[0], kernel=3, stride=1, pad=1, bias=False, rng=rng),
        BatchNorm2d(widths[0]),
        ReLU(),
    ]
    current = widths[0]
    for stage, w in enumerate(widths):
        for b in range(blocks_per_stage):
            stride = 2 if (stage > 0 and b == 0) else 1
            layers.append(_basic_block(current, w, stride, rng))
            current = w
    layers += [GlobalAvgPool(), Linear(current, 10, rng=rng)]
    return Sequential(*layers)


def resnet20(rng: np.random.Generator | None = None, width: float = 1.0) -> Sequential:
    """19 convolutions + 1 FC (3 stages x 3 basic blocks)."""
    return _cifar_resnet(3, rng, width)


def resnet56(rng: np.random.Generator | None = None, width: float = 1.0) -> Sequential:
    """55 convolutions + 1 FC (3 stages x 9 basic blocks)."""
    return _cifar_resnet(9, rng, width)


def vgg_lite(rng: np.random.Generator | None = None, width: float = 1.0) -> Sequential:
    """A VGG-style plain CNN for 3x32x32 inputs — *not* one of the paper's
    benchmarks; included to exercise the framework's generality claim
    (§3.4: new models only need their layer mapping and LUTs)."""
    rng = rng or np.random.default_rng(0)
    c1 = max(4, int(16 * width))
    c2 = max(8, int(32 * width))
    h = max(16, int(128 * width))
    return Sequential(
        Conv2d(3, c1, kernel=3, stride=1, pad=1, rng=rng),
        BatchNorm2d(c1),
        ReLU(),
        MaxPool2d(2),  # 16x16
        Conv2d(c1, c2, kernel=3, stride=1, pad=1, rng=rng),
        BatchNorm2d(c2),
        ReLU(),
        MaxPool2d(2),  # 8x8
        Conv2d(c2, c2, kernel=3, stride=1, pad=1, rng=rng),
        BatchNorm2d(c2),
        ReLU(),
        AvgPool2d(4),  # 2x2 (keeps the FC fan-in, and its MACs, inside t)
        Flatten(),
        Linear(c2 * 2 * 2, h, rng=rng),
        ReLU(),
        Linear(h, 10, rng=rng),
    )


def mobile_cnn(rng: np.random.Generator | None = None, width: float = 1.0) -> Sequential:
    """A depthwise-separable CNN (MobileNet-style) for 1x28x28 inputs.

    Not one of the paper's benchmarks; it exercises the grouped-conv
    lowering rule: a stride-4 stem, then a depthwise 3x3 (``groups ==
    channels``) + pointwise 1x1 separable pair, then the FC head. Grouped
    convs lower through the dense-equivalent weight expansion, so this
    model is bit-identical to its dense twin on every executor.
    """
    rng = rng or np.random.default_rng(0)
    c = max(2, int(8 * width))
    c2 = max(4, int(16 * width))
    return Sequential(
        Conv2d(1, c, kernel=5, stride=4, pad=2, rng=rng),  # -> c x 7 x 7
        ReLU(),
        Conv2d(c, c, kernel=3, stride=2, pad=1, groups=c, rng=rng),  # dw -> c x 4 x 4
        ReLU(),
        Conv2d(c, c2, kernel=1, stride=1, pad=0, rng=rng),  # pw -> c2 x 4 x 4
        ReLU(),
        Flatten(),
        Linear(c2 * 4 * 4, 10, rng=rng),
    )


def build(name: str, rng: np.random.Generator | None = None, width: float = 1.0) -> Sequential:
    """Build a benchmark model by canonical name."""
    table = {
        "mnist_cnn": mnist_cnn,
        "lenet": lenet,
        "resnet20": resnet20,
        "resnet56": resnet56,
        "vgg_lite": vgg_lite,
        "mobile_cnn": mobile_cnn,
    }
    if name not in table:
        raise KeyError(f"unknown model {name!r}; options: {sorted(table)}")
    return table[name](rng=rng, width=width)


def input_shape(name: str) -> tuple[int, int, int]:
    """(C, H, W) expected by each model."""
    return (1, 28, 28) if name in ("mnist_cnn", "lenet", "mobile_cnn") else (3, 32, 32)
