"""Negacyclic Number-Theoretic Transform over word-sized primes.

This is the workhorse of the whole FHE substrate: polynomial multiplication
in Z_p[X]/(X^N + 1) for primes p = 1 (mod 2N), p < 2**31. All butterflies
are vectorized numpy int64 operations; since p < 2**31 every intermediate
product fits in an int64 (a*b < 2**62), so no Barrett/Montgomery machinery
is required in Python.

The transform is the standard "merged-psi" negacyclic NTT (Longa & Naehrig):
powers of the 2N-th root of unity are folded into the butterflies so no
separate pre/post scaling pass is needed.

:func:`negacyclic_mul_exact` provides an arbitrary-precision multiplier
(the same transforms over an auxiliary basis of 31-bit NTT primes wide
enough for an exact centered CRT lift) used to verify the NTT path, by the
CKKS baseline and the encoding checks, and as the tests' oracle for BFV
ciphertext multiplication — which works over the same auxiliary primes but
never leaves int64 (:meth:`repro.fhe.bfv.BfvContext.cmult_tensor`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ParameterError
from repro.utils.modmath import inv_mod, root_of_unity


@lru_cache(maxsize=None)
def _bit_reverse_indices(n: int) -> np.ndarray:
    """Indices 0..n-1 in bit-reversed order (n a power of two).

    Cached: callers (`_tables`, `_rns_tables`, `cyclic_ntt`) only ever use
    the array for read-only fancy indexing, and the LUT-interpolation path
    recomputes it at t-1 = 65536 elements otherwise.
    """
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    rev.setflags(write=False)
    return rev


@lru_cache(maxsize=None)
def _tables(n: int, p: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Precomputed (psi_rev, inv_psi_rev, inv_n) tables for an (N, p) pair."""
    if n & (n - 1) or n < 2:
        raise ParameterError(f"NTT size must be a power of two >= 2, got {n}")
    if (p - 1) % (2 * n):
        raise ParameterError(f"prime {p} does not support negacyclic NTT of size {n}")
    psi = root_of_unity(2 * n, p)
    ipsi = inv_mod(psi, p)
    powers = np.empty(n, dtype=np.int64)
    ipowers = np.empty(n, dtype=np.int64)
    acc = iacc = 1
    for i in range(n):
        powers[i] = acc
        ipowers[i] = iacc
        acc = acc * psi % p
        iacc = iacc * ipsi % p
    rev = _bit_reverse_indices(n)
    return powers[rev], ipowers[rev], inv_mod(n, p)


def ntt_forward(a: np.ndarray, p: int) -> np.ndarray:
    """Forward negacyclic NTT of ``a`` (length N) modulo prime p.

    Input in natural order, output in bit-reversed order (which is fine:
    pointwise products and the matching inverse transform compose correctly).
    """
    a = np.mod(a, p).astype(np.int64)
    n = a.shape[-1]
    psi_rev, _, _ = _tables(n, p)
    t = n
    m = 1
    while m < n:
        t //= 2
        view = a.reshape(*a.shape[:-1], m, 2, t)
        s = psi_rev[m : 2 * m].reshape(m, 1)
        u = view[..., 0, :].copy()
        v = view[..., 1, :] * s % p
        view[..., 0, :] = (u + v) % p
        view[..., 1, :] = (u - v) % p
        m *= 2
    return a


def ntt_inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse of :func:`ntt_forward` (bit-reversed in, natural order out)."""
    a = np.mod(a, p).astype(np.int64)
    n = a.shape[-1]
    _, ipsi_rev, inv_n = _tables(n, p)
    t = 1
    m = n
    while m > 1:
        h = m // 2
        view = a.reshape(*a.shape[:-1], h, 2, t)
        s = ipsi_rev[h : 2 * h].reshape(h, 1)
        u = view[..., 0, :].copy()
        v = view[..., 1, :].copy()
        view[..., 0, :] = (u + v) % p
        view[..., 1, :] = (u - v) * s % p
        t *= 2
        m = h
    return a * inv_n % p


def ntt_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Negacyclic product of two length-N coefficient vectors modulo p."""
    fa = ntt_forward(a, p)
    fb = ntt_forward(b, p)
    return ntt_inverse(fa * fb % p, p)


# ---------------------------------------------------------------------------
# Residue-stacked transforms: one butterfly pass covers every RNS limb
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rns_tables(
    n: int, moduli: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stacked (psi_rev, inv_psi_rev, inv_n, moduli-column) for a limb chain.

    Each row of the (L, N) twiddle stacks is the per-prime table from
    :func:`_tables`; the moduli come back as an (L, 1) int64 column ready to
    broadcast against (L, N) residue matrices.
    """
    psi = np.stack([_tables(n, p)[0] for p in moduli])
    ipsi = np.stack([_tables(n, p)[1] for p in moduli])
    inv_n = np.array([_tables(n, p)[2] for p in moduli], dtype=np.int64)[:, None]
    mods = np.array(moduli, dtype=np.int64)[:, None]
    for arr in (psi, ipsi, inv_n, mods):
        arr.setflags(write=False)
    return psi, ipsi, inv_n, mods


def ntt_forward_rns(a: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """Forward negacyclic NTT of an (..., L, N) residue stack, all limbs at once.

    Axis -2 indexes limbs: slice i is transformed modulo ``moduli[i]``; one
    butterfly pass per stage covers every limb (the per-prime loop this
    replaces ran log2(N) stages L times over). Leading axes batch freely —
    the fused-kernel layer stacks gadget digits (D, L, N) or a plan's whole
    diagonal set (T, L, N) through a single call, amortizing the Python/numpy
    dispatch of every stage across the batch. Same ordering contract as
    :func:`ntt_forward`: natural in, bit-reversed out. Overflow-safe for
    primes < 2**31: every intermediate product is < 2**62.
    """
    n = a.shape[-1]
    psi_rev, _, _, mods = _rns_tables(n, moduli)
    a = np.mod(a, mods).astype(np.int64)
    mods3 = mods[:, :, None]
    t = n
    m = 1
    while m < n:
        t //= 2
        view = a.reshape(*a.shape[:-1], m, 2, t)
        s = psi_rev[:, m : 2 * m, None]
        u = view[..., 0, :].copy()
        v = view[..., 1, :] * s % mods3
        view[..., 0, :] = (u + v) % mods3
        view[..., 1, :] = (u - v) % mods3
        m *= 2
    return a


def ntt_inverse_rns(a: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`ntt_forward_rns` (bit-reversed in, natural out).

    Accepts the same (..., L, N) batched stacks as the forward transform.
    """
    n = a.shape[-1]
    _, ipsi_rev, inv_n, mods = _rns_tables(n, moduli)
    a = np.mod(a, mods).astype(np.int64)
    mods3 = mods[:, :, None]
    t = 1
    m = n
    while m > 1:
        h = m // 2
        view = a.reshape(*a.shape[:-1], h, 2, t)
        s = ipsi_rev[:, h : 2 * h, None]
        u = view[..., 0, :].copy()
        v = view[..., 1, :].copy()
        view[..., 0, :] = (u + v) % mods3
        view[..., 1, :] = (u - v) * s % mods3
        t *= 2
        m = h
    return a * inv_n % mods


def ntt_mul_rns(a: np.ndarray, b: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """Negacyclic product of two (L, N) residue stacks, one pass per stage."""
    _, _, _, mods = _rns_tables(a.shape[-1], moduli)
    fa = ntt_forward_rns(a, moduli)
    fb = ntt_forward_rns(b, moduli)
    return ntt_inverse_rns(fa * fb % mods, moduli)


@lru_cache(maxsize=None)
def _exact_mul_basis(n: int, limbs: int) -> tuple[int, ...]:
    """Auxiliary RNS basis for exact products: ``limbs`` 31-bit NTT primes.

    Deterministic (largest qualifying primes downward), so every caller at
    the same (n, limbs) shares one cached twiddle set via :func:`_rns_tables`.
    """
    from repro.utils.modmath import find_ntt_primes

    return tuple(find_ntt_primes(limbs, 31, 2 * n))


def negacyclic_mul_exact(a, b) -> list[int]:
    """Exact product in Z[X]/(X^N + 1) over arbitrary-precision integers.

    ``a`` and ``b`` are equal-length sequences of (possibly large, possibly
    negative) Python integers; the length must be a power of two >= 2. The
    product is computed in an auxiliary RNS basis wide enough that the
    centered CRT lift recovers the true integer coefficients
    (|c_i| <= N * max|a| * max|b| < basis/2): vectorized int64 NTTs do the
    convolution, big-int work is confined to the basis conversion at the
    seams.
    """
    from repro.fhe.rns import from_rns_centered, to_rns

    n = len(a)
    if len(b) != n:
        raise ParameterError("operands must have equal length")
    if n < 2 or n & (n - 1):
        raise ParameterError(
            f"exact negacyclic product needs a power-of-two length >= 2, got {n}"
        )
    arr_a = np.array([int(x) for x in a], dtype=object)
    arr_b = np.array([int(x) for x in b], dtype=object)
    max_a = max(1, int(max(arr_a.max(), -arr_a.min())))
    max_b = max(1, int(max(arr_b.max(), -arr_b.min())))
    # Basis product > 2 * N * max_a * max_b: centered lift is exact.
    bound_bits = (n * max_a * max_b).bit_length() + 2
    # find_ntt_primes(bits=31) yields primes in (2**30, 2**31).
    basis = _exact_mul_basis(n, -(-bound_bits // 30))
    stacked = np.stack([to_rns(arr_a, basis), to_rns(arr_b, basis)])
    f = ntt_forward_rns(stacked, basis)
    mods = np.array(basis, dtype=np.int64)[:, None]
    prod = ntt_inverse_rns(f[0] * f[1] % mods, basis)
    return from_rns_centered(prod, basis)


def cyclic_ntt(a: np.ndarray, p: int, root: int) -> np.ndarray:
    """Cyclic DFT of size len(a) over Z_p with the given primitive root.

    Iterative radix-2 Cooley-Tukey with bit-reversed input ordering; output
    X[k] = sum_m a[m] * root^(k*m). Used for the O(t log t) LUT-polynomial
    interpolation at t = 65537 (whose multiplicative group has power-of-two
    order 2^16).
    """
    a = np.mod(np.asarray(a, dtype=np.int64), p)
    n = a.shape[0]
    if n & (n - 1):
        raise ParameterError("cyclic NTT size must be a power of two")
    if pow(root, n, p) != 1 or pow(root, n // 2, p) == 1:
        raise ParameterError("root is not a primitive n-th root of unity")
    rev = _bit_reverse_indices(n)
    a = a[rev].copy()
    length = 2
    while length <= n:
        w = pow(root, n // length, p)
        half = length // 2
        twiddle = np.empty(half, dtype=np.int64)
        acc = 1
        for i in range(half):
            twiddle[i] = acc
            acc = acc * w % p
        view = a.reshape(-1, length)
        u = view[:, :half].copy()
        v = view[:, half:] * twiddle % p
        view[:, :half] = (u + v) % p
        view[:, half:] = (u - v) % p
        length *= 2
    return a
