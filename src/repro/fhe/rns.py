"""Residue Number System representation of big-modulus coefficient vectors.

A ring element modulo Q = p_0 * p_1 * ... * p_{L-1} is stored as an (L, N)
int64 matrix of residues. CRT lifts to Python big integers
(:func:`from_rns_object` and the functions over it) are exact and serve the
oracles only: measured noise and the tests.

Nothing on the ciphertext path lifts. Ciphertext multiplication, the
keyswitch's mod-up and mod-down, modulus switching and decryption change
basis with :func:`base_extend`, which stays on word-sized arrays and is exact
all the same (the CRT sum is a float64 product kept below 2**53, the overflow
count is estimated in float64 and recomputed with Python ints only where the
estimate is too close to an integer to trust).
"""

from __future__ import annotations

import ctypes
import math
import os
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.utils.modmath import inv_mod


@lru_cache(maxsize=None)
def _crt_constants(moduli: tuple[int, ...]) -> tuple[int, list[int], list[int]]:
    """(Q, Q/p_i, (Q/p_i)^-1 mod p_i) for a modulus chain."""
    q = math.prod(moduli)
    partials = [q // p for p in moduli]
    inverses = [inv_mod(part % p, p) for part, p in zip(partials, moduli)]
    return q, partials, inverses


@lru_cache(maxsize=None)
def _crt_weight_column(moduli: tuple[int, ...]) -> np.ndarray:
    """(L, 1) object column of CRT weights (Q/p_i) * (Q/p_i)^-1 mod p_i.

    Kept as a read-only object array so the lift is one broadcast multiply
    + sum instead of a per-coefficient Python loop; the entries are exact
    Python big ints, so nothing overflows regardless of chain length.
    """
    q, partials, inverses = _crt_constants(moduli)
    weights = np.array(
        [part * inv for part, inv in zip(partials, inverses)], dtype=object
    )[:, None]
    weights.setflags(write=False)
    return weights


def to_rns(values: Sequence[int] | np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """Reduce a vector of integers into an (L, N) residue matrix.

    Word-sized numpy inputs reduce in one broadcast against the stacked
    moduli column ((..., N) stacks give (..., L, N)); big/negative Python
    ints go through a per-limb object broadcast (Python ``%`` semantics,
    so negatives land in [0, p)).
    """
    if isinstance(values, np.ndarray) and values.dtype != object:
        mods = np.array(moduli, dtype=np.int64)[:, None]
        return np.mod(values[..., None, :].astype(np.int64), mods)
    arr = np.asarray(values, dtype=object)
    out = np.empty((len(moduli), arr.shape[0]), dtype=np.int64)
    for i, p in enumerate(moduli):
        out[i] = arr % p
    return out


def from_rns_object(residues: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """CRT-lift an (L, N) residue matrix to an (N,) object array in [0, Q).

    The vectorized core of :func:`from_rns`: one object-dtype broadcast
    against the cached weight column, so numpy drives the big-int loop
    instead of interpreted Python. The oracles' lift (measured noise, the
    tests); the ciphertext path uses :func:`base_extend`.
    """
    if residues.shape[0] != len(moduli):
        raise ParameterError("residue matrix does not match modulus chain")
    q = _crt_constants(moduli)[0]
    weights = _crt_weight_column(moduli)
    return (residues.astype(object) * weights).sum(axis=0) % q


def from_rns(residues: np.ndarray, moduli: tuple[int, ...]) -> list[int]:
    """CRT-lift an (L, N) residue matrix to exact integers in [0, Q)."""
    return from_rns_object(residues, moduli).tolist()


def from_rns_centered(residues: np.ndarray, moduli: tuple[int, ...]) -> list[int]:
    """CRT-lift into the centered interval (-Q/2, Q/2]."""
    q, _, _ = _crt_constants(moduli)
    half = q // 2
    lifted = from_rns_object(residues, moduli)
    return np.where(lifted > half, lifted - q, lifted).tolist()


def keep_freed_pages(libc) -> bool:
    """The process's allocator policy (DESIGN.md §18), through glibc's ``mallopt``:
    blocks below 32 MiB come from the heap, trimmed only past 128 MiB free, so
    a call reuses the pages the last one freed instead of faulting on fresh
    ones. True if both are set; False, nothing done, without ``mallopt``."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(-3, 32 << 20) and mallopt(-1, 128 << 20))  # M_MMAP_, M_TRIM_THRESHOLD


keep_freed_pages(ctypes.CDLL(None) if os.name == "posix" else None)


#: Half-width of the band around every integer inside which the float64
#: estimate of a CRT overflow count is not trusted and :func:`base_extend`
#: recomputes it exactly. Must exceed :func:`overflow_estimate_error` for the
#: limb counts in use; 2**-30 does up to two thousand limbs and sends about
#: one coefficient in 2**29 down the exact route.
V_AMBIGUITY = 2.0**-30

#: :func:`base_extend` splits each CRT digit at this bit so that a whole
#: limb axis of digit * weight products sums exactly in float64.
_SPLIT_BITS = 15


def overflow_estimate_error(num_limbs: int) -> float:
    """Bound on |float64 estimate - sum_i xi_i / p_i| over ``num_limbs`` limbs.

    One GEMM row: the 2L split digits (L = ``num_limbs``) times ``fl(2**15 /
    p_i)`` and ``fl(1 / p_i)``, summed in any BLAS order. A weight, a product
    and at most 2L - 1 additions round each term: a relative error below
    ``(2L + 2) * 2**-53`` on nonnegative terms that sum below L.
    """
    return num_limbs * (2 * num_limbs + 2) * 2.0**-53


#: :func:`base_extend`'s rows lie in this open interval.
EXTENSION_RANGE = (-(2**36), 2**53)


def extension_bounds(src: tuple[int, ...], dst: tuple[int, ...]) -> dict[str, tuple[int, int]]:
    """``name -> (peak, limit)`` in the mould of :func:`repro.fhe.bfv.cmult_bounds`:
    :func:`base_extend` from ``src`` to ``dst`` is exact, its rows inside
    :data:`EXTENSION_RANGE`, iff every peak is below its limit. A row is one
    float64 (BLAS) product of ``[hi; lo; v; 1]`` (split digits, overflow count
    v < L) and weights below dst_j, the v * Q and shift ones negated, under
    any per-row affine map: every partial sum is an integer below 2**53."""
    low = (1 << _SPLIT_BITS) - 1
    top = max(dst) - 1
    return {
        "float_sum": (sum((p - 1 >> _SPLIT_BITS) + low for p in src) * top,
                      EXTENSION_RANGE[1]),
        "below_zero": (len(src) * top, -EXTENSION_RANGE[0]),
    }


class _ExtensionTables(NamedTuple):
    """Word-sized constants of one ``src`` -> ``dst`` base conversion, and its two steps."""

    basis: tuple[int, ...]  # src
    src: np.ndarray  # (L, 1) source primes
    inv: np.ndarray  # (L, 1) scale * (Q/p_i)^-1 mod p_i
    shift_inv: np.ndarray  # (L, 1) shift * (Q/p_i)^-1 mod p_i
    estimate: np.ndarray  # (1, 2L) float64 [2**_SPLIT_BITS / p_i | 1 / p_i]
    weights: np.ndarray  # (K, 2L+2) float64 [(Q/p_i) << _SPLIT_BITS | Q/p_i | -Q | -shift]

    def digits(self, residues: np.ndarray) -> np.ndarray:
        """CRT digits [(scale * x_i + shift) * (Q/p_i)^-1] mod p_i, < 2**63 before the %."""
        xi = residues * self.inv + self.shift_inv
        return np.remainder(xi, self.src, out=xi)

    def extend(self, xi: np.ndarray, out=None) -> np.ndarray:
        """The rows from canonical (..., L, N) CRT digits, into ``out`` if given."""
        limbs, v = xi.shape[-2], 2 * xi.shape[-2]
        shape = xi.shape[:-2] + (v + 2, xi.shape[-1])
        operand = np.empty(shape)  # [hi; lo; v; 1]
        np.right_shift(xi, _SPLIT_BITS, out=operand[..., :limbs, :])
        np.bitwise_and(xi, (1 << _SPLIT_BITS) - 1, out=operand[..., limbs:v, :])
        frac = np.matmul(self.estimate, operand[..., :v, :])
        np.modf(frac, out=(frac, operand[..., v : v + 1, :]))  # the estimate is >= 0
        if (np.minimum.reduce(frac, None, initial=0.5) < V_AMBIGUITY
                or np.maximum.reduce(frac, None, initial=0.5) > 1 - V_AMBIGUITY):
            overflow = operand[..., v, :]
            for at in zip(*np.nonzero(np.abs(frac[..., 0, :] - 0.5) > 0.5 - V_AMBIGUITY)):
                overflow[at] = _exact_overflow(xi[at[:-1] + (slice(None), at[-1])], self.basis)
        operand[..., v + 1, :] = 1.0
        # Exact in float64 (extension_bounds), so BLAS does the sum and the cast.
        if out is None:
            out = np.empty(xi.shape[:-2] + self.weights.shape[:1] + xi.shape[-1:], np.int64)
        return np.matmul(self.weights, operand, out=out, casting="unsafe")


@lru_cache(maxsize=None)
def _extension_tables(
    src: tuple[int, ...], dst: tuple[int, ...], scale: int, shift: int,
    rows: tuple[tuple[int, ...], tuple[int, ...]] | None,
) -> _ExtensionTables:
    """``rows`` (gain, offset over ``dst``) maps row j to gain_j * row + offset_j mod dst_j."""
    for name, (peak, limit) in extension_bounds(src, dst).items():
        if not peak < limit:
            raise ParameterError(f"base extension from {len(src)} primes: {name} "
                                 f"{peak} is not below {limit}")
    q, partials, inverses = _crt_constants(src)
    gain, offset = rows or ((1,) * len(dst), (0,) * len(dst))
    weights = np.array(
        [
            [g * (part << _SPLIT_BITS) % p for part in partials]
            + [g * part % p for part in partials]
            + [-(g * q % p), -((g * shift - o) % p)]
            for p, g, o in zip(dst, gain, offset)
        ],
        dtype=np.float64,
    )
    tables = _ExtensionTables(
        basis=src,
        src=np.array(src)[:, None],
        inv=np.array([scale * inv % p for inv, p in zip(inverses, src)])[:, None],
        shift_inv=np.array([shift * inv % p for inv, p in zip(inverses, src)])[:, None],
        estimate=np.array([[2.0**_SPLIT_BITS / p for p in src] + [1.0 / p for p in src]]),
        weights=weights,
    )
    for table in tables[1:]:
        table.setflags(write=False)
    return tables


def _exact_overflow(digits: np.ndarray, src: tuple[int, ...]) -> int:
    """floor(sum_i xi_i / p_i) for one coefficient's (L,) CRT digits, exactly."""
    q, partials, _ = _crt_constants(src)
    return sum(int(d) * part for d, part in zip(digits, partials)) // q


def base_extend(
    residues: np.ndarray,
    src: tuple[int, ...],
    dst: tuple[int, ...],
    scale: int = 1,
    shift: int = 0,
    out=None,
) -> np.ndarray:
    """Exact change of RNS basis on int64 arrays: (..., L, N) -> (..., K, N).

    Row j is congruent mod ``dst[j]`` to the representative in [-shift,
    Q - shift) of ``scale * x`` mod Q, x the integer the canonical
    ``residues`` hold over ``src``: ``shift`` 0 is the plain lift, ``Q // 2``
    the centred one (:func:`from_rns_centered`'s interval). Rows are residue
    classes inside :data:`EXTENSION_RANGE`, not canonical: the transforms and
    automorphisms reduce on entry, a caller that multiplies them reduces
    first. Primes below 2**31, Q odd, the bases inside
    :func:`extension_bounds` (else ``ParameterError``).

    It is the plain lift of ``z = scale * x + shift``, shifted back. With
    xi_i = [z_i * (Q/p_i)^-1] mod p_i — scale and shift folded into the CRT
    constants, one ``%`` — that is ``sum_i xi_i * (Q/p_i) - v * Q``, v =
    floor(sum_i xi_i / p_i). One float64 row over the 15-bit halves of the xi
    sums the fractions, error below :func:`overflow_estimate_error`, so the
    floor is v wherever it lies :data:`V_AMBIGUITY` from an integer;
    elsewhere — z within about Q * 2**-30 of 0 or Q — v comes from Python
    integers, so every input is exact. A second product over ``[hi; lo; v;
    1]`` gives the rows, v * Q and the shift as two more weight columns.
    Centred, zeros and small values of either sign sit mid-interval. The
    rows go into ``out`` when given (:meth:`_ExtensionTables.extend`).
    """
    tb = _extension_tables(src, dst, scale, shift, None)
    return tb.extend(tb.digits(residues), out)


def rns_modulus(moduli: tuple[int, ...]) -> int:
    """Product of the modulus chain."""
    return _crt_constants(moduli)[0]
