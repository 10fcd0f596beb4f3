"""Modular arithmetic helpers used across the FHE substrate.

All NTT primes produced here are strictly below 2**31 so that a product of
two residues fits in a signed 64-bit integer (a*b < 2**62), letting the NTT
and coefficient-wise kernels run on plain numpy ``int64`` arrays without
overflow.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.errors import ParameterError

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit-ish integers.

    The witness set {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} is proven
    sufficient for n < 3.3 * 10**24, far beyond any modulus we use.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def find_ntt_primes(count: int, bits: int, order: int) -> list[int]:
    """Return ``count`` distinct primes p with p = 1 (mod order), p < 2**bits.

    ``order`` must be a power of two (it will be 2N for negacyclic NTT).
    Primes are returned in decreasing order starting just below 2**bits.
    """
    if bits > 31:
        raise ParameterError(
            f"NTT primes must be < 2**31 for int64 safety, got bits={bits}"
        )
    if order & (order - 1):
        raise ParameterError(f"order must be a power of two, got {order}")
    primes: list[int] = []
    # Largest candidate of the form k*order + 1 below 2**bits.
    k = ((1 << bits) - 2) // order
    while len(primes) < count and k > 0:
        p = k * order + 1
        if p < (1 << (bits - 1)):
            raise ParameterError(
                f"could not find {count} {bits}-bit primes with order {order}"
            )
        if is_prime(p):
            primes.append(p)
        k -= 1
    if len(primes) < count:
        raise ParameterError(
            f"could not find {count} {bits}-bit primes with order {order}"
        )
    return primes


def primitive_root(p: int) -> int:
    """Smallest primitive root modulo prime p."""
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    factors = _factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise ParameterError(f"no primitive root found for {p}")  # pragma: no cover


def root_of_unity(order: int, p: int) -> int:
    """A primitive ``order``-th root of unity modulo prime p."""
    if (p - 1) % order:
        raise ParameterError(f"{order} does not divide {p}-1")
    g = primitive_root(p)
    w = pow(g, (p - 1) // order, p)
    # Sanity: w has exact multiplicative order `order`.
    if pow(w, order // 2, p) == 1:
        raise ParameterError("root does not have full order")  # pragma: no cover
    return w


@lru_cache(maxsize=None)
def _factorize(n: int) -> tuple[int, ...]:
    """Prime factors (unique) of n by trial division; n - 1 of our primes is
    smooth enough (power of two times small cofactor) for this to be fast."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def inv_mod(a: int, m: int) -> int:
    """Modular inverse of a modulo m (m need not be prime)."""
    a %= m
    g, x, _ = _ext_gcd(a, m)
    if g != 1:
        raise ParameterError(f"{a} is not invertible mod {m}")
    return x % m


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def crt_combine(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Combine residues via the Chinese Remainder Theorem.

    Returns the unique value in [0, prod(moduli)).
    """
    if len(residues) != len(moduli):
        raise ParameterError("residues and moduli length mismatch")
    total = 0
    product = 1
    for m in moduli:
        product *= m
    for r, m in zip(residues, moduli):
        partial = product // m
        total += r * partial * inv_mod(partial % m, m)
    return total % product


def centered(x: int, m: int) -> int:
    """Representative of x mod m in (-m/2, m/2]."""
    x %= m
    if x > m // 2:
        x -= m
    return x


def centered_array(x: np.ndarray, m: int) -> np.ndarray:
    """Vectorized centered reduction into (-m/2, m/2]."""
    x = np.mod(x, m)
    return np.where(x > m // 2, x - m, x)


def bit_length(x: int) -> int:
    """Bit length of |x| (0 for x == 0)."""
    return int(abs(x)).bit_length()

