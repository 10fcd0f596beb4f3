"""Negacyclic Number-Theoretic Transform over word-sized primes.

This is the workhorse of the whole FHE substrate: polynomial multiplication
in Z_p[X]/(X^N + 1) for primes p = 1 (mod 2N), p < 2**31. All butterflies
are vectorized numpy int64 operations; since p < 2**31 every intermediate
product fits in an int64 (a*b < 2**62). The per-prime transforms reduce with
``%`` after every product and sum; the stacked ones every request runs reach
the same residues with no ``%`` inside a butterfly (:func:`ntt_bounds`).

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

    Cached: callers (`_tables`, `cyclic_ntt`, the evaluation-domain perms) only ever use
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


#: Shortest twiddle row a stage broadcasts: stages whose twiddles repeat with
#: a shorter period are tiled up to it (or to the whole half-ring, if smaller).
_MIN_ROW = 16


def ntt_bounds(n: int, moduli: tuple[int, ...]) -> dict[str, tuple[int | float, int | float]]:
    """``name -> (peak, limit)`` for everything the stacked kernel relies on:
    exact for ``(n, moduli)`` iff every peak is strictly below its limit. A
    lazy product (:func:`_lazy_mul`) leaves ``|v| < 2p``, so from reduced
    input a forward value grows by at most 2p a stage and an inverse value
    at most doubles. Reads ``n`` and the moduli only."""
    top = max(moduli)
    forward = (2 * n.bit_length() - 1) * top  # what the forward exit reduction reads
    inverse = n * top  # an inverse sum or difference, the scaling's operand
    operand = max(forward - 2 * top, inverse)
    return {
        # the int64 -> float64 conversion of a product's operand is exact
        "float_operand": (operand, 2**53),
        # |w * s/p - fl(fl(w) * fl(s/p))|, two roundings of a value below |w|:
        # under 1 the truncated quotient is off by at most one
        "quotient_error": (operand * 2.0**-52, 1.0),
        "lazy_accumulator": (max(forward, inverse), 2**63),
    }


@lru_cache(maxsize=None)
def _rns_tables(n: int, moduli: tuple[int, ...]):
    """``(forward, inverse, scale, mods)`` of the stacked kernel, read-only.

    ``forward`` / ``inverse`` hold per stage, in execution order, the int64
    twiddles ``s`` beside the float64 ``s / p`` as (L, 1, r) broadcast rows:
    position k of stage m takes the per-prime ``psi_rev[m + (k mod m)]``, a
    row is ``psi_rev[m : 2m]``, tiled where m < ``_MIN_ROW``. ``scale`` is
    the (L, 1) pair for N^-1 (the last inverse twiddle already carries it),
    ``mods`` the (L, 1) moduli column."""
    for name, (peak, limit) in ntt_bounds(n, moduli).items():
        if not peak < limit:
            raise ParameterError(f"stacked NTT, N = {n}: {name} {peak} is not below {limit}")
    mods = np.array(moduli, dtype=np.int64)[:, None, None]
    psi, ipsi, inv_n = (np.array(t)[:, None] for t in zip(*(_tables(n, p) for p in moduli)))
    ipsi[..., 1] = ipsi[..., 1] * inv_n % mods[..., 0]
    width = min(_MIN_ROW, n // 2)
    periods = [1 << i for i in range(n.bit_length() - 1)]
    rows = [np.tile(t[..., m : 2 * m], max(1, width // m)) for t in (psi, ipsi) for m in periods]
    pairs = [(s, s / mods) for s in rows] + [(inv_n, inv_n / mods[..., 0])]
    for arr in (mods, *sum(pairs, ())):
        arr.setflags(write=False)
    forward, inverse = pairs[: len(periods)], pairs[len(periods) : -1]
    return forward, inverse[::-1], pairs[-1], mods[..., 0]


def _lazy_mul(w, s, s_over_p, mods, q, t, out):
    """``out = w * s - trunc(float64(w) * (s / p)) * p``: congruent to w * s mod p
    with ``|out| < 2p`` (:func:`ntt_bounds`), no division. Both products wrap in
    int64 — into ``q`` and ``t``, which may be ``w`` or ``out`` — and the wrap cancels."""
    np.multiply(w, s_over_p, out=q, casting="unsafe")
    np.multiply(q, mods, out=q)
    np.multiply(w, s, out=t)
    np.subtract(t, q, out=out)


def _workspace(a, mods):
    """``a`` reduced into a fresh (..., L, N) buffer (the entry reduction), its
    ping-pong twin, two half-width scratch buffers, the moduli over stage rows."""
    shape = np.broadcast_shapes(a.shape, (len(mods), a.shape[-1]))
    src = np.mod(a, mods, out=np.empty(shape, dtype=np.int64))
    q, v = np.empty((2,) + shape[:-1] + (shape[-1] // 2,), dtype=np.int64)
    return src, np.empty_like(src), q, v, mods[:, :, None]


def ntt_forward_rns(a: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """Forward negacyclic NTT of an (..., L, N) residue stack, all limbs at once.

    Axis -2 indexes limbs: slice i is transformed modulo ``moduli[i]``;
    leading axes batch freely — a keyswitch's digits (L, L+1, N), a plan's
    whole diagonal set (T, L, N). :func:`ntt_forward` limb by limb, bit for
    bit: any int64 input (reduced on entry, never written), natural in,
    bit-reversed out, a fresh array of canonical residues.

    Constant geometry: a stage reads the two contiguous halves of one buffer
    and writes position k's butterfly with k + N/2 to 2k, 2k + 1 of the
    other; log2(N) such index rotations leave the data where the in-place
    schedule does. No ``%`` inside a stage: products are :func:`_lazy_mul`,
    sums stay unreduced, one reduction on the way out."""
    n = a.shape[-1]
    stages, _, _, mods = _rns_tables(n, moduli)
    src, dst, q, v, p = _workspace(a, mods)
    for twiddle in stages:
        r = twiddle[0].shape[-1]
        rows = src.shape[:-1] + (n // 2 // r, r)
        lo, hi = src[..., : n // 2].reshape(rows), src[..., n // 2 :].reshape(rows)
        prod, out = v.reshape(rows), dst.reshape(rows + (2,))
        _lazy_mul(hi, *twiddle, p, q.reshape(rows), prod, prod)
        np.add(lo, prod, out=out[..., 0])
        np.subtract(lo, prod, out=out[..., 1])
        src, dst = dst, src
    return np.mod(src, mods, out=dst)


def ntt_inverse_rns(a: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`ntt_forward_rns` (bit-reversed in, natural out):
    :func:`ntt_inverse` limb by limb, bit for bit, on the same stacks.

    The forward schedule mirrored: a stage reads the pairs 2k, 2k + 1 and
    writes their sum to k, their twiddled difference to k + N/2. Sums run
    unreduced to below N * p and take N^-1 on the way out."""
    n = a.shape[-1]
    _, stages, scale, mods = _rns_tables(n, moduli)
    src, dst, q, v, p = _workspace(a, mods)
    for twiddle in stages:
        r = twiddle[0].shape[-1]
        rows = src.shape[:-1] + (n // 2 // r, r)
        pairs = src.reshape(rows + (2,))
        np.add(pairs[..., 0], pairs[..., 1], out=dst[..., : n // 2].reshape(rows))
        diff = np.subtract(pairs[..., 0], pairs[..., 1], out=v.reshape(rows))
        _lazy_mul(diff, *twiddle, p, q.reshape(rows), diff, dst[..., n // 2 :].reshape(rows))
        src, dst = dst, src
    lo = src[..., : n // 2]
    _lazy_mul(lo, *scale, mods, q, lo, lo)
    return np.mod(src, mods, out=dst)


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
    prod = ntt_mul_rns(to_rns(arr_a, basis), to_rns(arr_b, basis), basis)
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
