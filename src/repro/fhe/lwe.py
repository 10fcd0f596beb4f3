"""LWE side of the Athena noise-control chain (paper §3.2.2, Fig. 2 steps
2-3 and Fig. 3).

The chain implemented here:

1. :func:`rlwe_mod_switch` — rescale a BFV ciphertext from Q down to a
   word-sized modulus q' (we use the largest RNS limb prime). This is the
   noise-refresh: the error accumulated by the linear layer lives in the
   discarded Q/q' range, and only the small rounding term e_ms (distributed
   as N(0, (q' sigma / Q)^2 + (||s||^2 + 1)/12), §3.3) survives.
2. :func:`sample_extract` — Algorithm 1: coefficient i of an RLWE ciphertext
   becomes an independent LWE ciphertext (a_i, b_i) under the same secret,
   with b_i + <a_i, s> = phase coefficient i.
3. :func:`keyswitch` — LWE dimension switch N -> n with gadget decomposition
   (the paper uses ring field-switching [12] before extraction; switching
   after extraction is functionally identical and is done at modulus q' so
   the keyswitch noise is later crushed by the final modulus switch).
4. :func:`lwe_mod_switch` — final switch q' -> t. The message lands at
   scale Delta = 1: the MAC integer itself, perturbed by a few units of
   noise, exactly the regime Athena's LUT absorbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.fhe.backend import current_backend
from repro.fhe.bfv import BfvCiphertext
from repro.utils.sampling import Sampler


@dataclass
class SmallRlwe:
    """RLWE ciphertext at a word-sized modulus (post modulus-switch)."""

    c0: np.ndarray  # int64 mod q
    c1: np.ndarray
    modulus: int

    @property
    def n(self) -> int:
        return self.c0.shape[0]


@dataclass
class LweBatch:
    """A batch of LWE ciphertexts sharing one secret and modulus.

    Decryption convention: m*Delta + e = b + <a, s> (mod q).
    """

    a: np.ndarray  # (count, dim) int64 mod q
    b: np.ndarray  # (count,) int64 mod q
    modulus: int

    @property
    def count(self) -> int:
        return self.a.shape[0]

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    def phase(self, secret: np.ndarray) -> np.ndarray:
        """b + <a, s> mod q (int64-safe for q < 2**31 and dim < 2**31/q)."""
        acc = (self.a * secret[None, :]) % self.modulus
        return (acc.sum(axis=1) + self.b) % self.modulus

    def place(self, rows: np.ndarray, size: int) -> "LweBatch":
        """Scatter this batch's rows into a larger batch at indices ``rows``.

        The remaining rows are trivial encryptions of zero (a = 0, b = 0),
        whose phase is exactly 0 under any secret — after packing they become
        exact zero slots, the gap filler between output lanes of a batched
        linear layer.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape != (self.count,):
            raise ParameterError(
                f"need one target row per ciphertext: {rows.shape} vs {self.count}")
        if size < self.count or (rows.size and int(rows.max()) >= size):
            raise ParameterError(f"target rows do not fit in a batch of {size}")
        a = np.zeros((size, self.dim), dtype=np.int64)
        b = np.zeros(size, dtype=np.int64)
        a[rows] = self.a
        b[rows] = self.b
        # Every request passes through here: count the rows written with a
        # mask, not np.unique (whose first call costs ~1.5 MiB of RSS).
        filled = np.zeros(size, dtype=bool)
        filled[rows] = True
        if int(filled.sum()) != rows.size:
            raise ParameterError("target rows collide")
        return LweBatch(a, b, self.modulus)


def rlwe_mod_switch(ct: BfvCiphertext, new_modulus: int) -> SmallRlwe:
    """Scale-and-round both components of a BFV ciphertext to ``new_modulus``.

    Eq. 2 of the paper with t replaced by the intermediate modulus q'.
    """
    be = current_backend()
    with be.phase("se"):
        be.record("mod_switch")
        return SmallRlwe(
            ct.c0.mod_switch(new_modulus),
            ct.c1.mod_switch(new_modulus),
            new_modulus,
        )


def sample_extract(ct: SmallRlwe, indices: np.ndarray | None = None) -> LweBatch:
    """Algorithm 1: extract LWE ciphertexts from RLWE coefficients.

    Dispatches through the active backend; ``indices`` selects which
    coefficients to extract (default: all N).
    """
    be = current_backend()
    with be.phase("se"):
        return be.sample_extract(ct, indices)


def sample_extract_impl(ct: SmallRlwe, indices: np.ndarray | None = None) -> LweBatch:
    """Default :meth:`Backend.sample_extract` implementation (Algorithm 1)."""
    n = ct.n
    q = ct.modulus
    if indices is None:
        indices = np.arange(n, dtype=np.int64)
    else:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ParameterError("extraction index out of range")
    i = indices[:, None]
    j = np.arange(n, dtype=np.int64)[None, :]
    src = (i - j) % n
    sign = np.where(j <= i, 1, -1)
    a = (ct.c1[src] * sign) % q
    b = ct.c0[indices] % q
    return LweBatch(a.astype(np.int64), b.astype(np.int64), q)


@dataclass
class LweKeySwitchKey:
    """Gadget keyswitch key from a dim-N secret to a dim-n secret."""

    alpha: np.ndarray  # (N, digits, n) int64 mod q
    beta: np.ndarray  # (N, digits) int64 mod q
    base_bits: int
    modulus: int

    @property
    def num_digits(self) -> int:
        return self.alpha.shape[1]


def keyswitch_keygen(
    big_secret: np.ndarray,
    small_secret: np.ndarray,
    modulus: int,
    base_bits: int,
    sampler: Sampler,
) -> LweKeySwitchKey:
    """Generate the N -> n LWE keyswitch key at modulus q'.

    Entry (j, d) encrypts big_secret[j] * 2^(d * base_bits) under the small
    secret: beta = -<alpha, s'> + e + s_j * B^d.
    """
    big_n = big_secret.shape[0]
    small_n = small_secret.shape[0]
    digits = -(-modulus.bit_length() // base_bits)
    alpha = np.empty((big_n, digits, small_n), dtype=np.int64)
    beta = np.empty((big_n, digits), dtype=np.int64)
    for j in range(big_n):
        for d in range(digits):
            a = sampler.uniform(modulus, small_n)
            e = int(sampler.gaussian(1)[0])
            payload = int(big_secret[j]) * (1 << (d * base_bits))
            alpha[j, d] = a
            beta[j, d] = (-(int(np.dot(a, small_secret) % modulus)) + e + payload) % modulus
    return LweKeySwitchKey(alpha, beta, base_bits, modulus)


def keyswitch(batch: LweBatch, ksk: LweKeySwitchKey) -> LweBatch:
    """Switch a batch of LWE ciphertexts to the small secret dimension."""
    be = current_backend()
    with be.phase("se"):
        return be.lwe_keyswitch(batch, ksk)


def keyswitch_impl(batch: LweBatch, ksk: LweKeySwitchKey) -> LweBatch:
    """Default :meth:`Backend.lwe_keyswitch` implementation (gadget N -> n)."""
    if batch.modulus != ksk.modulus:
        raise ParameterError("keyswitch key modulus mismatch")
    q = batch.modulus
    digits = ksk.num_digits
    mask = (1 << ksk.base_bits) - 1
    count, big_n = batch.a.shape
    # Decompose every a-coefficient into non-negative digits.
    dig = np.empty((count, big_n, digits), dtype=np.int64)
    acc = batch.a % q
    for d in range(digits):
        dig[:, :, d] = acc & mask
        acc >>= ksk.base_bits
    # a' = sum_{j,d} dig[c,j,d] * alpha[j,d,:] mod q. Exact int64 matmuls:
    # each product is < 2^base_bits * q, so the safe chain length before a
    # reduction is the same lazy-accumulation bound the fused RNS kernels
    # use, taken at an effective modulus of 2^base_bits * q; chunk the
    # contraction accordingly (chunk boundaries are invisible mod q).
    from repro.fhe.backend import lazy_chain_limit

    flat_dig = dig.reshape(count, big_n * digits)
    flat_alpha = ksk.alpha.reshape(big_n * digits, -1)
    flat_beta = ksk.beta.reshape(big_n * digits)
    total = big_n * digits
    # -1 reserves one chain slot for the carried (already-reduced) accumulator.
    step = max(1, min(total, lazy_chain_limit(((1 << ksk.base_bits) * q,)) - 1))
    acc_a = np.zeros((count, ksk.alpha.shape[2]), dtype=np.int64)
    acc_b = np.zeros(count, dtype=np.int64)
    for start in range(0, total, step):
        end = min(total, start + step)
        acc_a = (acc_a + flat_dig[:, start:end] @ flat_alpha[start:end]) % q
        acc_b = (acc_b + flat_dig[:, start:end] @ flat_beta[start:end]) % q
    return LweBatch(acc_a, (acc_b + batch.b) % q, q)


def lwe_mod_switch(batch: LweBatch, new_modulus: int) -> LweBatch:
    """Scale-and-round a batch of LWE ciphertexts to ``new_modulus``."""
    be = current_backend()
    with be.phase("se"):
        return be.lwe_rescale(batch, new_modulus)


def lwe_mod_switch_impl(batch: LweBatch, new_modulus: int) -> LweBatch:
    """Default :meth:`Backend.lwe_rescale` implementation."""
    q = batch.modulus
    a = ((batch.a.astype(np.int64) * new_modulus + q // 2) // q) % new_modulus
    b = ((batch.b.astype(np.int64) * new_modulus + q // 2) // q) % new_modulus
    return LweBatch(a, b, new_modulus)


def lwe_decrypt(batch: LweBatch, secret: np.ndarray, delta: int = 1, t: int | None = None) -> np.ndarray:
    """Decrypt a batch: round(phase / delta) mod t (t defaults to q/delta)."""
    q = batch.modulus
    if t is None:
        t = q // delta
    phase = batch.phase(secret)
    if delta == 1:
        return phase % t
    centered = np.where(phase > q // 2, phase - q, phase)
    return np.mod(np.rint(centered / delta).astype(np.int64), t)


def expected_ems_std(params, secret_norm_sq: int) -> float:
    """Std of e_ms from §3.3: sqrt((t*sigma/Q)^2 + (||s||^2 + 1)/12).

    With our intermediate chain the dominant term is the rounding part
    (||s||^2 + 1)/12 — the scaled-ciphertext-noise term is negligible.
    """
    scaled = (params.t * params.sigma / params.q) ** 2
    rounding = (secret_norm_sq + 1) / 12.0
    return math.sqrt(scaled + rounding)
