"""Randomness sources for key generation and encryption.

A single :class:`Sampler` wraps a ``numpy.random.Generator`` so the whole
library is reproducible from one seed. Distributions follow standard
RLWE practice: ternary secrets, rounded Gaussian errors of width
:data:`SIGMA`, uniform ciphertext randomness.
"""

from __future__ import annotations

import numpy as np

#: Error standard deviation, the width the paper's noise analysis assumes.
SIGMA = 3.2


class Sampler:
    """Seedable source of all randomness used by the FHE substrate."""

    def __init__(self, seed: int | None = None):
        self.rng = np.random.default_rng(seed)

    def uniform(self, modulus: int, size: int) -> np.ndarray:
        """Uniform residues in [0, modulus) as int64."""
        return self.rng.integers(0, modulus, size=size, dtype=np.int64)

    def ternary(self, size: int) -> np.ndarray:
        """Ternary secret coefficients in {-1, 0, 1} (uniform)."""
        return self.rng.integers(-1, 2, size=size, dtype=np.int64)

    def gaussian(self, size: int) -> np.ndarray:
        """Rounded Gaussian error with standard deviation :data:`SIGMA`."""
        return np.rint(self.rng.normal(0.0, SIGMA, size=size)).astype(np.int64)
