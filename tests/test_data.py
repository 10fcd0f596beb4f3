"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.data import load_dataset, synthetic_cifar, synthetic_digits


class TestDigits:
    def test_shapes_and_range(self, rng):
        x, y = synthetic_digits(32, rng)
        assert x.shape == (32, 1, 28, 28)
        assert y.shape == (32,)
        assert x.min() >= 0 and x.max() <= 1
        assert y.min() >= 0 and y.max() <= 9

    def test_reproducible(self):
        x1, y1 = synthetic_digits(16, np.random.default_rng(5))
        x2, y2 = synthetic_digits(16, np.random.default_rng(5))
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_classes_distinguishable(self):
        # Nearest-centroid classification must beat chance by a wide margin:
        # the classes carry real signal.
        rng = np.random.default_rng(0)
        x, y = synthetic_digits(600, rng)
        xt, yt = synthetic_digits(200, rng)
        centroids = np.stack([x[y == k].mean(axis=0).ravel() for k in range(10)])
        dists = ((xt.reshape(len(xt), -1)[:, None, :] - centroids[None]) ** 2).sum(-1)
        acc = (dists.argmin(axis=1) == yt).mean()
        # Nearest-centroid is a weak classifier; well above 10% chance is
        # enough to prove class signal (the trained CNN reaches ~98%).
        assert acc > 0.3

    def test_digits_vary_within_class(self, rng):
        x, y = synthetic_digits(100, rng)
        sevens = x[y == 7]
        if len(sevens) >= 2:
            assert not np.array_equal(sevens[0], sevens[1])


class TestCifar:
    def test_shapes_and_range(self, rng):
        x, y = synthetic_cifar(16, rng)
        assert x.shape == (16, 3, 32, 32)
        assert x.min() >= 0 and x.max() <= 1

    def test_classes_distinguishable(self):
        rng = np.random.default_rng(1)
        x, y = synthetic_cifar(600, rng)
        xt, yt = synthetic_cifar(200, rng)
        centroids = np.stack([x[y == k].mean(axis=0).ravel() for k in range(10)])
        dists = ((xt.reshape(len(xt), -1)[:, None, :] - centroids[None]) ** 2).sum(-1)
        acc = (dists.argmin(axis=1) == yt).mean()
        assert acc > 0.4

    def test_color_signal_present(self, rng):
        x, y = synthetic_cifar(200, rng)
        red_mean = x[y == 0][:, 0].mean()
        blue_mean = x[y == 0][:, 2].mean()
        assert red_mean > blue_mean  # class 0 palette is red-dominant


class TestLoader:
    def test_mnist_family(self):
        data = load_dataset("lenet", train=64, test=16, seed=3)
        assert data["x_train"].shape == (64, 1, 28, 28)
        assert data["x_test"].shape == (16, 1, 28, 28)

    def test_cifar_family(self):
        data = load_dataset("resnet20", train=32, test=8, seed=3)
        assert data["x_train"].shape == (32, 3, 32, 32)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            load_dataset("imagenet")
