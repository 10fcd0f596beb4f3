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

import math
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


#: Half-width of the band around every integer inside which the float64
#: estimate of a CRT overflow count is not trusted and :func:`base_extend`
#: recomputes it exactly. Must exceed :func:`overflow_estimate_error` for the
#: limb counts in use; 2**-30 does up to thousands of limbs and sends about
#: one coefficient in 2**29 down the exact route.
V_AMBIGUITY = 2.0**-30

#: :func:`base_extend` splits each CRT digit at this bit so that a whole
#: limb axis of digit * weight products sums in int64 without reduction.
_SPLIT_BITS = 15


def overflow_estimate_error(num_limbs: int) -> float:
    """Bound on |float64 estimate - sum_i xi_i / p_i| over ``num_limbs`` limbs.

    Each term is ``xi_i * fl(1 / p_i)`` — two roundings — and then passes
    through at most ``num_limbs - 1`` additions, in whatever order numpy
    sums: a relative error below ``(num_limbs + 2) * 2**-53`` on a term
    that is below 1.
    """
    return num_limbs * (num_limbs + 2) * 2.0**-53


#: :func:`base_extend`'s rows lie in this open interval.
EXTENSION_RANGE = (-(2**36), 2**53)


def extension_bounds(src: tuple[int, ...], dst: tuple[int, ...]) -> dict[str, tuple[int, int]]:
    """``name -> (peak, limit)`` in the mould of :func:`repro.fhe.bfv.cmult_bounds`:
    :func:`base_extend` from ``src`` to ``dst`` is exact, its rows inside
    :data:`EXTENSION_RANGE`, iff every peak is below its limit. The CRT sum
    is a float64 (BLAS) product of split digits and weights below the target
    primes, exact below 2**53; the row then subtracts the overflow count
    (< L) times Q and the shift, each reduced mod dst_j."""
    low = (1 << _SPLIT_BITS) - 1
    top = max(dst) - 1
    return {
        "float_sum": (sum((p - 1 >> _SPLIT_BITS) + low for p in src) * top,
                      EXTENSION_RANGE[1]),
        "below_zero": (len(src) * top, -EXTENSION_RANGE[0]),
    }


class _ExtensionTables(NamedTuple):
    """Word-sized constants of one ``src`` -> ``dst`` base conversion."""

    src: np.ndarray  # (L, 1) source primes
    inv: np.ndarray  # (L, 1) scale * (Q/p_i)^-1 mod p_i
    shift_inv: np.ndarray  # (L, 1) shift * (Q/p_i)^-1 mod p_i
    recip: np.ndarray  # (L, 1) float64 1 / p_i
    weights: np.ndarray  # (K, 2L) float64 [(Q/p_i) << _SPLIT_BITS | Q/p_i] mod dst_j
    q_mod: np.ndarray  # (K, 1) Q mod dst_j
    shift_mod: np.ndarray  # (K, 1) shift mod dst_j


@lru_cache(maxsize=None)
def _extension_tables(
    src: tuple[int, ...], dst: tuple[int, ...], scale: int, shift: int
) -> _ExtensionTables:
    for name, (peak, limit) in extension_bounds(src, dst).items():
        if not peak < limit:
            raise ParameterError(f"base extension from {len(src)} primes: {name} "
                                 f"{peak} is not below {limit}")
    q, partials, inverses = _crt_constants(src)

    def column(values, dtype=np.int64) -> np.ndarray:
        col = np.array(values, dtype=dtype)[:, None]
        col.setflags(write=False)
        return col

    weights = np.array(
        [
            [(part << _SPLIT_BITS) % p for part in partials]
            + [part % p for part in partials]
            for p in dst
        ],
        dtype=np.float64,
    )
    weights.setflags(write=False)
    return _ExtensionTables(
        src=column(src),
        inv=column([scale * inv % p for inv, p in zip(inverses, src)]),
        shift_inv=column([shift * inv % p for inv, p in zip(inverses, src)]),
        recip=column([1.0 / p for p in src], np.float64),
        weights=weights,
        q_mod=column([q % p for p in dst]),
        shift_mod=column([shift % p for p in dst]),
    )


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
    floor(sum_i xi_i / p_i). The fractions sum in float64, error below
    :func:`overflow_estimate_error`, so the floor is v wherever it lies
    :data:`V_AMBIGUITY` from an integer; elsewhere — z within about
    Q * 2**-30 of 0 or Q — v comes from Python integers, so every input is
    exact. Centred, zeros and small values of either sign sit mid-interval,
    off the ambiguous edge.
    """
    tb = _extension_tables(src, dst, scale, shift)
    xi = residues * tb.inv  # < 2**62
    if shift:
        xi += tb.shift_inv  # the folded shift: still < 2**63
    xi %= tb.src
    estimate = (xi * tb.recip).sum(axis=-2)
    overflow = np.floor(estimate)
    frac = estimate - overflow
    overflow = overflow.astype(np.int64)
    doubtful = (frac < V_AMBIGUITY) | (frac > 1.0 - V_AMBIGUITY)
    if doubtful.any():
        for index in zip(*np.nonzero(doubtful)):
            digits = xi[index[:-1] + (slice(None), index[-1])]
            overflow[index] = _exact_overflow(digits, src)
    # Exact in float64 (extension_bounds: "float_sum"), so BLAS does the sum.
    halves = np.empty(xi.shape[:-2] + (2 * len(src), xi.shape[-1]))
    np.right_shift(xi, _SPLIT_BITS, out=halves[..., : len(src), :])
    np.bitwise_and(xi, (1 << _SPLIT_BITS) - 1, out=halves[..., len(src) :, :])
    out = np.matmul(tb.weights, halves).astype(np.int64)
    out -= overflow[..., None, :] * tb.q_mod
    if shift:
        out -= tb.shift_mod
    return out


def rns_modulus(moduli: tuple[int, ...]) -> int:
    """Product of the modulus chain."""
    return _crt_constants(moduli)[0]
