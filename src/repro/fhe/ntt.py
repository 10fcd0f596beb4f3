"""Negacyclic Number-Theoretic Transform over word-sized primes.

This is the workhorse of the whole FHE substrate: polynomial multiplication
in Z_p[X]/(X^N + 1) for primes p = 1 (mod 2N), p < 2**31. All butterflies
are vectorized numpy int64 operations; since p < 2**31 every intermediate
product fits in an int64 (a*b < 2**62). The per-prime transforms reduce with
``%`` after every product and sum; the stacked ones every request runs reach
the same residues as exact float64 matrix products (:func:`ntt_bounds`).

The transform is the standard "merged-psi" negacyclic NTT (Longa & Naehrig):
powers of the 2N-th root of unity are folded into the butterflies so no
separate pre/post scaling pass is needed.

:func:`negacyclic_mul_exact` provides an arbitrary-precision multiplier
(the same transforms over an auxiliary basis of 31-bit NTT primes wide
enough for an exact centered CRT lift) used to verify the NTT path, by the
encoding checks, and as the tests' oracle for BFV
ciphertext multiplication — which works over the same auxiliary primes but
stays word-sized (:meth:`repro.fhe.bfv.BfvContext.tensor_products`).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.errors import ParameterError
from repro.utils.modmath import inv_mod, root_of_unity


def root_powers(root: int, count: int, p: int) -> np.ndarray:
    """``root^k mod p`` for k = 0..count-1 (p < 2**31), built by doubling."""
    out = np.ones(count, dtype=np.int64)
    k = 1
    while k < count:
        m = min(k, count - k)
        out[k : k + m] = out[:m] * pow(root, k, p) % p
        k *= 2
    return out


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
    rev = _bit_reverse_indices(n)
    return (root_powers(psi, n, p)[rev], root_powers(inv_mod(psi, p), n, p)[rev],
            inv_mod(n, p))


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
# Residue-stacked transforms: float64 matrix products over every RNS limb
# ---------------------------------------------------------------------------


#: Cap on the (..., L, N) elements one chunk of a stacked transform holds: a
#: longer stack runs in leading-axis chunks through a float64 workspace of 16
#: bytes per element, plus the output (EXPERIMENTS.md has the sweep).
NTT_CHUNK_ELEMS = 1 << 15


def _gemm_peak(f: int, p: int) -> int:
    """Bound on |a length-f product sum| + 1/2: its operands are residues
    centred to |r| <= p//2 + 2**12, split as h = rint(r / 2**16) and
    l = r - 2**16 h (|l| <= 2**15), against centred table entries."""
    return f * ((p // 2 + 2**12 + 2**15) // 2**16 + 2**15) * (p // 2) + 1


def _factors(n: int) -> tuple[int, ...]:
    """N's factors, largest first: as few as ``gemm_sum`` admits at every
    word-sized prime (each at most 32), as even as possible."""
    top = max(b for b in range(1, 10) if _gemm_peak(1 << b, 2**31 - 1) < 2**51)
    bits = n.bit_length() - 1
    k = max(1, -(-bits // top))
    return tuple(1 << (bits // k + (i < bits % k)) for i in range(k))


def ntt_bounds(n: int, moduli: tuple[int, ...]) -> dict[str, tuple[int | float, int | float]]:
    """``name -> (peak, limit)`` for everything the stacked kernel relies on:
    exact for ``(n, moduli)`` iff every peak is strictly below its limit.
    Reads ``n`` and the moduli only. The float64 quotients ``rint(x / p)``
    of the entry, the reductions and the twists are off by < 2**12 / p, so
    every product operand is centred to |r| <= p//2 + 2**12; a product's sum
    stays below :func:`_gemm_peak` < 2**51, an exact integer whose reduction
    is off by < 1/p. The exit ``floor((Z + s + 1/2) / p)``, s < p a limb's
    shift, is exact while |Z| + s stays below 2**51."""
    top = max(moduli)
    gemm_sum = max(_gemm_peak(f, p) for f in _factors(n) for p in moduli)
    return {
        # residues and twiddles are words: an int64 product of two is exact
        "word": (top, 2**31),
        # p * |fl(fl(a) * fl(1/p)) - a/p| for any int64 a
        "entry_quotient": (3 * 2**10 + 1, 2**12),
        # the same for a twist's quotient, |r * tau / p| <= p/4 + 2**12
        "twist_quotient": ((top // 4 + 2**12) * top // 2**51 + 1, 2**12),
        "gemm_sum": (gemm_sum, 2**51),
        # the last step's sum plus a shift below p, before the exit's floor
        "shifted_exit": (gemm_sum + top, 2**51),
    }


@lru_cache(maxsize=None)
def _gemm_tables(n: int, moduli: tuple[int, ...], part: str | tuple[int, ...] | None):
    """The steps of one ``part`` of the stacked kernel, read-only: ``"forward"``
    the forward transform, ``"inverse"`` the inverse's steps before its last,
    a per-limb gain tuple (``None`` for 1) that last step, its tables times
    the gain mod p — so a gained inverse builds one step, not a table set.

    Four-step over N = f_0 ... f_{k-1} (:func:`_factors`), digit 0 slowest.
    Forward step s < k - 1 is digit s's length-f negacyclic transform: one
    (f, f) matrix per limb against every (f, rest) slab, outputs bit-reversed,
    then an explicit twist of the slab rows if another such step follows.
    The last step folds its twist into per-row (A, A) matrices, one per value
    of digit k - 2 — :func:`ntt_forward`'s order, digit by digit. The inverse
    runs the inverse matrices backwards, N^-1 spread over them.

    A step is ``(view, right, hi, lo, twist)``: the (L, rows, f, rest) view
    it contracts, whether the tables multiply from the right (the folded
    step), the centred tables for the operand halves h and l / 2**16 (scaled
    by 2**-16 where a reduction follows) and the twist after it, ``(view,
    tau, 2**16 tau / p)``."""
    for name, (peak, limit) in ntt_bounds(n, moduli).items():
        if not peak < limit:
            raise ParameterError(f"stacked NTT, N = {n}: {name} {peak} is not below {limit}")
    fs = _factors(n)
    k, a, b = len(fs), fs[-1], fs[-2] if len(fs) > 1 else 1
    mods = np.array(moduli, dtype=np.int64)[:, None]
    pf = mods.astype(np.float64)
    pw = np.stack([_tables(n, p)[0][_bit_reverse_indices(n)] for p in moduli])
    pw = np.concatenate([pw, (mods - pw) % mods], axis=1)  # psi^0 .. psi^(2N - 1)
    ipw = pw[:, -np.arange(2 * n)]

    def centred(v, f=1, gain=None):  # v * gain / f mod p, centred
        p = mods.reshape((-1,) + (1,) * (v.ndim - 1))
        scale = [pow(f, -1, q) * g % q for q, g in zip(moduli, gain or (1,) * len(moduli))]
        v = v * np.array(scale).reshape(p.shape) % p
        return v - p * (v > p // 2)

    def halves(mat, scale, f=1, gain=None):  # C order: BLAS reads a transposed table slower
        mat = np.ascontiguousarray(centred(mat, f, gain))
        return (centred(mat * 2**16) * scale)[:, None], (mat * (2.0**16 * scale))[:, None]

    def view(s):  # (L, rows above, f, rest) of digit s
        rows = math.prod(fs[:s])
        return len(moduli), rows, fs[s], n // (rows * fs[s])

    def step(powers, s, inverse, gain=None):  # digit s's transform, or its inverse
        f, scale = fs[s], 1.0 if inverse and not s else 2.0**-16
        e = n // f * (2 * _bit_reverse_indices(f)[:, None] + 1) * np.arange(f) % (2 * n)
        return (view(s), False,
                *halves(powers[:, e.T if inverse else e], scale, f if inverse else 1, gain))

    def twist(powers, s):
        _, rows, f, rest = view(s)
        e = rows * (2 * _bit_reverse_indices(f)[:, None] + 1 - f) * np.arange(rest) % (2 * n)
        tau = centred(powers[:, e])[:, None]
        return view(s), tau, tau * 2.0**16 / pf[:, :, None, None]

    e = (2 * (_bit_reverse_indices(b)[:, None] + b * _bit_reverse_indices(a)) + 1)[:, :, None]
    e = n // (a * b) * e * np.arange(a) % (2 * n)
    folded = (len(moduli), n // (a * b), b, a)
    if part == "forward":
        steps = [step(pw, s, False) + (twist(pw, s) if s < k - 2 else None,)
                 for s in range(k - 1)]
        steps.append((folded, True, *halves(pw[:, e].transpose(0, 1, 3, 2), 1.0), None))
    elif part == "inverse":
        steps = [(folded, True, *halves(ipw[:, e], 2.0**-16, a), None)][: k - 1]
        steps += [step(ipw, s, True) + (twist(ipw, s - 1),) for s in reversed(range(1, k - 1))]
    elif k > 1:
        steps = [step(ipw, 0, True, part) + (None,)]
    else:
        steps = [(folded, True, *halves(ipw[:, e], 1.0, a, part), None)]
    for x in (x for st in steps for x in (*st[2:4], *(st[4] or ())[1:])):
        x.setflags(write=False)
    return tuple(steps)


@lru_cache(maxsize=None)
def _kernel(n: int, moduli: tuple[int, ...], inverse: bool, gain, shift):
    """``(steps, cols)`` of one transform, in one lookup, read-only: the
    forward steps, or the inverse's ending in its ``gain`` step
    (:func:`_gemm_tables`); the (L, 1) int64 and float64 moduli, 1/p,
    p / 2**16, 2**16 / p and the exit's ``shift + 1/2``."""
    steps = (_gemm_tables(n, moduli, "inverse") + _gemm_tables(n, moduli, gain) if inverse
             else _gemm_tables(n, moduli, "forward"))
    pf = np.array(moduli, dtype=np.float64)[:, None]
    cols = (pf.astype(np.int64), pf, 1.0 / pf, pf * 2.0**-16, 2.0**16 / pf,
            np.reshape(shift or 0, (-1, 1)) + 0.5)
    for col in cols:
        col.setflags(write=False)
    return steps, cols


def _transform(a: np.ndarray, moduli: tuple[int, ...], inverse: bool, gain, shift) -> np.ndarray:
    n = a.shape[-1]
    steps, (mods, pf, pinv, p_lo, pinv_hi, half) = _kernel(n, moduli, inverse, gain, shift)
    basis = (len(moduli), n)
    if a.shape[-2:] != basis:  # a lone (N,) row or a limb-broadcast stack
        a = np.broadcast_to(a, np.broadcast_shapes(a.shape, basis))
    rows = a.reshape((-1,) + basis)
    out = np.empty(a.shape, dtype=np.int64)
    chunk = max(1, NTT_CHUNK_ELEMS // (basis[0] * n))
    size = min(chunk, len(rows)) * basis[0] * n
    work = np.empty(2 * size)  # y and h
    for lo in range(0, len(rows), chunk):
        src, dst = rows[lo : lo + chunk], out.reshape(rows.shape)[lo : lo + chunk]
        y, h = work[: src.size].reshape(src.shape), work[size : size + src.size].reshape(src.shape)
        l, y_int, h_int = dst.view(np.float64), y.view(np.int64), h.view(np.int64)
        # entry: the centred r = a - rint(a / p) p, in (wrapping) int64
        np.multiply(src, pinv, out=y)
        np.rint(y, out=y_int, casting="unsafe")
        np.multiply(y_int, mods, out=y_int)
        np.subtract(src, y_int, out=y_int)
        np.multiply(y_int, 2.0**-16, out=y)
        for i, (view, right, m_hi, m_lo, twist) in enumerate(steps):
            np.rint(y, out=h)  # y = r / 2**16: the halves h and l / 2**16
            np.subtract(y, h, out=l)
            at = (len(src),) + view
            hv, lv, yv = h.reshape(at), l.reshape(at), y.reshape(at)
            if right:
                axes = (1, 2, 3, 0, 4)
                np.matmul(hv.transpose(axes), m_hi, out=yv.transpose(axes))
                np.matmul(lv.transpose(axes), m_lo, out=hv.transpose(axes))
            else:
                np.matmul(m_hi, hv, out=yv)
                np.matmul(m_lo, lv, out=hv)
            np.add(y, h, out=y)
            if i == len(steps) - 1:
                break
            # y = Y / 2**16 -> r / 2**16, r = Y - rint(Y / p) p
            np.multiply(y, pinv_hi, out=h)
            np.rint(h, out=h)
            np.multiply(h, p_lo, out=h)
            np.subtract(y, h, out=y)
            if twist is not None:  # r tau - rint(r tau / p) p, in int64
                at = (len(src),) + twist[0]
                np.multiply(y, 2.0**16, out=h_int, casting="unsafe")
                np.multiply(y.reshape(at), twist[2], out=l.reshape(at))
                np.rint(l, out=dst, casting="unsafe")
                np.multiply(h_int.reshape(at), twist[1], out=y_int.reshape(at))
                np.multiply(dst, mods, out=dst)
                np.subtract(y_int, dst, out=y_int)
                np.multiply(y_int, 2.0**-16, out=y)
        # exit: floor((Z + s + 1/2) / p) is Z + s's true quotient
        np.add(y, half, out=y)
        np.multiply(y, pinv, out=h)
        np.floor(h, out=h)
        np.multiply(h, pf, out=h)
        np.subtract(y, h, out=dst, casting="unsafe")
    return out


def ntt_forward_rns(a: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """Forward negacyclic NTT of an (..., L, N) residue stack, all limbs at once.

    Axis -2 indexes limbs: slice i is transformed modulo ``moduli[i]``;
    leading axes batch freely — a keyswitch's digits (D, L+K, N), a plan's
    whole diagonal set (T, L, N). :func:`ntt_forward` limb by limb, bit for
    bit: any int64 input (reduced on entry, never written), natural in,
    bit-reversed out, a fresh array of canonical residues. Each digit's
    transform is one float64 matrix product over the whole stack
    (:func:`_gemm_tables`); no int64 ``%`` anywhere (:func:`ntt_bounds`)."""
    return _transform(a, moduli, False, None, None)


def ntt_inverse_rns(a: np.ndarray, moduli: tuple[int, ...], gain=None, shift=None) -> np.ndarray:
    """Inverse of :func:`ntt_forward_rns` (bit-reversed in, natural out):
    :func:`ntt_inverse` limb by limb, bit for bit, on the same stacks. Per-limb
    int tuples ``gain`` and ``shift`` (< p_i) make limb i ``[gain_i * x + shift_i]
    mod p_i`` at no extra pass, in the last step's tables and the exit."""
    return _transform(a, moduli, True, gain, shift)


def ntt_mul_rns(a: np.ndarray, b: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """Negacyclic product of two (L, N) residue stacks, every limb at once."""
    mods = _kernel(a.shape[-1], moduli, False, None, None)[1][0]
    fa = ntt_forward_rns(a, moduli)
    fb = ntt_forward_rns(b, moduli)
    return ntt_inverse_rns(fa * fb % mods, moduli)


@lru_cache(maxsize=None)
def _exact_mul_basis(n: int, limbs: int) -> tuple[int, ...]:
    """Auxiliary RNS basis for exact products: ``limbs`` 31-bit NTT primes.

    Deterministic (largest qualifying primes downward), so every caller at
    the same (n, limbs) shares one cached table set via :func:`_gemm_tables`.
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
    a = a[_bit_reverse_indices(n)].copy()
    # Stage ``length`` takes the powers of root^(n / length): every
    # (n / length)-th entry of one table.
    powers = root_powers(root, n // 2, p)
    length = 2
    while length <= n:
        half = length // 2
        twiddle = powers[:: n // length]
        view = a.reshape(-1, length)
        u = view[:, :half].copy()
        v = view[:, half:] * twiddle % p
        view[:, :half] = (u + v) % p
        view[:, half:] = (u - v) % p
        length *= 2
    return a
