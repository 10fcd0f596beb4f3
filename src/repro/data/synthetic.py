"""Synthetic stand-ins for MNIST and CIFAR-10 (DESIGN.md substitution #2).

The offline environment has no dataset files, so:

* :func:`synthetic_digits` renders seven-segment-style digits with random
  stroke thickness, affine jitter, and pixel noise — a 10-class, 1x28x28
  problem with the same interface as MNIST.
* :func:`synthetic_cifar` generates 10 classes of colored oriented-grating
  textures with per-sample phase, blob occlusions, and noise — a 3x32x32
  stand-in for CIFAR-10.

Both are procedurally generated from a seed, so every experiment is
reproducible and any sample count is available. The paper's accuracy claims
concern the *plaintext-vs-ciphertext gap*, which these datasets exercise
identically to the originals.
"""

from __future__ import annotations

import numpy as np

#: Image side and additive pixel-noise std of the MNIST and CIFAR-10 stand-ins.
DIGIT_SIZE, DIGIT_NOISE = 28, 0.08
CIFAR_SIZE, CIFAR_NOISE = 32, 0.10

# Seven-segment layout: which segments are lit per digit.
#     _a_
#   f|   |b        segments: a b c d e f g
#    |_g_|
#   e|   |c
#    |_d_|
_SEGMENTS = {
    0: "abcdef",
    1: "bc",
    2: "abged",
    3: "abgcd",
    4: "fgbc",
    5: "afgcd",
    6: "afgedc",
    7: "abc",
    8: "abcdefg",
    9: "abcfgd",
}

# Segment endpoints on a unit design box (x0, y0, x1, y1).
_SEGMENT_GEOMETRY = {
    "a": (0.15, 0.05, 0.85, 0.05),
    "b": (0.85, 0.05, 0.85, 0.50),
    "c": (0.85, 0.50, 0.85, 0.95),
    "d": (0.15, 0.95, 0.85, 0.95),
    "e": (0.15, 0.50, 0.15, 0.95),
    "f": (0.15, 0.05, 0.15, 0.50),
    "g": (0.15, 0.50, 0.85, 0.50),
}


def _render_digit(digit: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Rasterize one jittered digit into a (size, size) float image."""
    img = np.zeros((size, size), dtype=np.float64)
    yy, xx = np.mgrid[0:size, 0:size]
    # Random affine placement of the design box.
    scale = rng.uniform(0.55, 0.8) * size
    cx = rng.uniform(0.35, 0.65) * size
    cy = rng.uniform(0.35, 0.65) * size
    angle = rng.uniform(-0.15, 0.15)
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    thickness = rng.uniform(0.05, 0.10) * scale
    for seg in _SEGMENTS[digit]:
        x0, y0, x1, y1 = _SEGMENT_GEOMETRY[seg]
        # design coords -> image coords (rotated box centered at cx, cy)
        def to_img(x, y):
            dx, dy = (x - 0.5) * scale, (y - 0.5) * scale
            return cx + cos_a * dx - sin_a * dy, cy + sin_a * dx + cos_a * dy

        ax, ay = to_img(x0, y0)
        bx, by = to_img(x1, y1)
        # Distance from every pixel to the segment.
        vx, vy = bx - ax, by - ay
        length_sq = vx * vx + vy * vy + 1e-9
        t = np.clip(((xx - ax) * vx + (yy - ay) * vy) / length_sq, 0.0, 1.0)
        dist = np.hypot(xx - (ax + t * vx), yy - (ay + t * vy))
        img = np.maximum(img, np.clip(1.3 - dist / thickness, 0.0, 1.0))
    return img


def synthetic_digits(
    count: int, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Return (images, labels): (count, 1, 28, 28) floats in [0,1]."""
    rng = rng or np.random.default_rng(0)
    labels = rng.integers(0, 10, count)
    images = np.empty((count, 1, DIGIT_SIZE, DIGIT_SIZE), dtype=np.float64)
    for i, d in enumerate(labels):
        img = _render_digit(int(d), DIGIT_SIZE, rng)
        img += rng.normal(0, DIGIT_NOISE, img.shape)
        images[i, 0] = np.clip(img, 0.0, 1.0)
    return images, labels.astype(np.int64)


def synthetic_cifar(
    count: int, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Return (images, labels): (count, 3, 32, 32) floats in [0,1].

    Class k is an oriented grating (angle k*18 deg, class-specific spatial
    frequency) with a class-linked color palette, random phase, a random
    soft occluding blob, and additive noise.
    """
    rng = rng or np.random.default_rng(0)
    labels = rng.integers(0, 10, count)
    yy, xx = np.mgrid[0:CIFAR_SIZE, 0:CIFAR_SIZE] / CIFAR_SIZE
    palettes = np.array(
        [
            [0.9, 0.2, 0.2], [0.2, 0.9, 0.2], [0.2, 0.3, 0.9], [0.9, 0.8, 0.1],
            [0.8, 0.2, 0.8], [0.1, 0.8, 0.8], [0.9, 0.5, 0.1], [0.5, 0.3, 0.1],
            [0.6, 0.6, 0.9], [0.3, 0.3, 0.3],
        ]
    )
    images = np.empty((count, 3, CIFAR_SIZE, CIFAR_SIZE), dtype=np.float64)
    for i, k in enumerate(labels):
        theta = np.pi * k / 10 + rng.normal(0, 0.05)
        freq = 3.0 + (k % 5) * 1.5
        phase = rng.uniform(0, 2 * np.pi)
        wave = 0.5 + 0.5 * np.sin(
            2 * np.pi * freq * (np.cos(theta) * xx + np.sin(theta) * yy) + phase
        )
        # soft occluding blob
        bx, by = rng.uniform(0.2, 0.8, 2)
        br = rng.uniform(0.1, 0.25)
        blob = np.exp(-(((xx - bx) ** 2 + (yy - by) ** 2) / (2 * br**2)))
        base = np.clip(wave * (1 - 0.6 * blob) + 0.3 * blob, 0, 1)
        color = palettes[k] * rng.uniform(0.8, 1.2)
        for ch in range(3):
            img = base * color[ch] + rng.normal(0, CIFAR_NOISE, base.shape)
            images[i, ch] = np.clip(img, 0.0, 1.0)
    return images, labels.astype(np.int64)


def load_dataset(
    name: str, train: int = 2048, test: int = 512, seed: int = 0
) -> dict[str, np.ndarray]:
    """Convenience loader keyed by benchmark model family."""
    rng = np.random.default_rng(seed)
    if name in ("mnist", "digits", "mnist_cnn", "lenet"):
        x_tr, y_tr = synthetic_digits(train, rng)
        x_te, y_te = synthetic_digits(test, rng)
    elif name in ("cifar", "cifar10", "resnet20", "resnet56"):
        x_tr, y_tr = synthetic_cifar(train, rng)
        x_te, y_te = synthetic_cifar(test, rng)
    else:
        raise KeyError(f"unknown dataset {name!r}")
    return {"x_train": x_tr, "y_train": y_tr, "x_test": x_te, "y_test": y_te}
