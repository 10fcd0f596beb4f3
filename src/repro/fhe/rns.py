"""Residue Number System representation of big-modulus coefficient vectors.

A ring element modulo Q = p_0 * p_1 * ... * p_{L-1} is stored as an (L, N)
int64 matrix of residues. CRT lift/lower conversions go through Python big
integers (exact); they are only needed at the "seams" — decryption rounding,
modulus switching, and gadget decomposition — so their O(N*L) big-int cost
is acceptable at test-scale parameters.

Ciphertext multiplication is not one of those seams: it changes basis with
:func:`base_extend`, which stays on int64 arrays and is exact all the same
(the CRT overflow count is estimated in float64 and recomputed with Python
ints only where the estimate is too close to an integer to trust).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.utils.modmath import crt_combine, inv_mod


@lru_cache(maxsize=None)
def _crt_constants(moduli: tuple[int, ...]) -> tuple[int, list[int], list[int]]:
    """(Q, Q/p_i, (Q/p_i)^-1 mod p_i) for a modulus chain."""
    q = 1
    for p in moduli:
        q *= p
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
    instead of interpreted Python. Hot path of modulus switching and
    decryption (no keyswitch lifts anything).
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


class _ExtensionTables(NamedTuple):
    """Word-sized constants of one ``src`` -> ``dst`` base conversion."""

    src: np.ndarray  # (L, 1) source primes
    dst: np.ndarray  # (K, 1) target primes
    inv: np.ndarray  # (L, 1) (Q/p_i)^-1 mod p_i
    half_inv: np.ndarray  # (L, 1) floor(Q/2) * inv mod p_i
    recip: np.ndarray  # (L, 1) float64 1 / p_i
    weights: np.ndarray  # (K, 2L) [(Q/p_i) << _SPLIT_BITS | Q/p_i] mod dst_j
    q_mod: np.ndarray  # (K, 1) Q mod dst_j
    half_mod: np.ndarray  # (K, 1) floor(Q/2) mod dst_j


@lru_cache(maxsize=None)
def _extension_tables(
    src: tuple[int, ...], dst: tuple[int, ...]
) -> _ExtensionTables:
    q, partials, inverses = _crt_constants(src)
    half = q // 2

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
        dtype=np.int64,
    )
    weights.setflags(write=False)
    return _ExtensionTables(
        src=column(src),
        dst=column(dst),
        inv=column(inverses),
        half_inv=column([half * inv % p for inv, p in zip(inverses, src)]),
        recip=column([1.0 / p for p in src], np.float64),
        weights=weights,
        q_mod=column([q % p for p in dst]),
        half_mod=column([half % p for p in dst]),
    )


def _exact_overflow(digits: np.ndarray, src: tuple[int, ...]) -> int:
    """floor(sum_i xi_i / p_i) for one coefficient's (L,) CRT digits, exactly."""
    q, partials, _ = _crt_constants(src)
    return sum(int(d) * part for d, part in zip(digits, partials)) // q


def base_extend(
    residues: np.ndarray,
    src: tuple[int, ...],
    dst: tuple[int, ...],
    centered: bool = False,
) -> np.ndarray:
    """Exact change of RNS basis on int64 arrays: (..., L, N) -> (..., K, N).

    Row j of the result is ``x mod dst[j]``, where x is the CRT lift of
    ``residues`` over ``src`` into [0, Q) — or, with ``centered``, into
    [-(Q-1)/2, (Q-1)/2], the interval :func:`from_rns_centered` lifts to.
    Primes on both sides must be below 2**31 and Q odd.

    With xi_i = [x_i * (Q/p_i)^-1] mod p_i the lift is
    ``sum_i xi_i * (Q/p_i) - v * Q`` for the overflow count
    ``v = floor(sum_i xi_i / p_i)``. The sum of fractions is taken in
    float64; its error is below :func:`overflow_estimate_error`, so its
    floor is v whenever it lies at least :data:`V_AMBIGUITY` from an
    integer. The few coefficients where it does not — x within about
    Q * 2**-30 of 0 or Q — get v from Python integers instead, so the
    result is exact for every input. A centred lift is the plain lift of
    ``x + floor(Q/2)`` shifted back: zeros and small values of either sign,
    the common case, then sit mid-interval rather than on the ambiguous
    edge.
    """
    tb = _extension_tables(src, dst)
    xi = residues * tb.inv  # < 2**62
    if centered:
        xi += tb.half_inv  # the folded shift: still < 2**63
    xi %= tb.src
    estimate = (xi * tb.recip).sum(axis=-2)
    overflow = np.floor(estimate)
    frac = estimate - overflow
    overflow = overflow.astype(np.int64)
    doubtful = (frac < V_AMBIGUITY) | (frac > 1.0 - V_AMBIGUITY)
    for index in zip(*np.nonzero(doubtful)):
        digits = xi[index[:-1] + (slice(None), index[-1])]
        overflow[index] = _exact_overflow(digits, src)
    # Halves are < 2**16 and weights < 2**31: 2L products sum far below 2**63.
    halves = np.concatenate(
        [xi >> _SPLIT_BITS, xi & ((1 << _SPLIT_BITS) - 1)], axis=-2
    )
    out = np.matmul(tb.weights, halves)
    out -= overflow[..., None, :] * tb.q_mod
    if centered:
        out -= tb.half_mod
    return out % tb.dst


def rns_modulus(moduli: tuple[int, ...]) -> int:
    """Product of the modulus chain."""
    return _crt_constants(moduli)[0]


def crt_single(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """CRT for a single coefficient (thin wrapper for readability)."""
    return crt_combine(residues, moduli)
