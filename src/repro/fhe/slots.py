"""SIMD slot batching for BFV plaintexts.

With a prime plaintext modulus t = 1 (mod 2N), R_t = Z_t[X]/(X^N+1) splits
completely into N linear factors: a plaintext polynomial is equivalent to the
vector of its evaluations at the odd powers of a primitive 2N-th root of
unity zeta. We order the N slots as a 2 x (N/2) hypercube

    slot (0, j) <-> evaluation at zeta^(3^j mod 2N)
    slot (1, j) <-> evaluation at zeta^(-3^j mod 2N)

so that the Galois automorphism X -> X^3 rotates both rows left by one and
X -> X^-1 swaps the rows — exactly the rotation structure the packing and S2C
matrix-vector products rely on.

Encode/decode are one stacked negacyclic NTT over the one-limb basis (t,)
plus a precomputed permutation from NTT output positions to hypercube slots.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.errors import ParameterError
from repro.fhe.ntt import ntt_forward_rns, ntt_inverse_rns
from repro.utils.modmath import root_of_unity


@lru_cache(maxsize=None)
def _slot_permutation(n: int, t: int) -> np.ndarray:
    """perm[slot_index] = NTT output position holding that slot's evaluation.

    Slot indices: 0..N/2-1 are row 0 (exponents 3^j), N/2..N-1 are row 1
    (exponents -3^j).
    """
    if (t - 1) % (2 * n):
        raise ParameterError(f"t={t} does not support {n} slots (need 2N | t-1)")
    zeta = root_of_unity(2 * n, t)
    # Evaluation points of each NTT output position: transform X (the monomial
    # of degree 1); output j then literally equals its evaluation point.
    x = np.zeros(n, dtype=np.int64)
    x[1] = 1
    points = ntt_forward_rns(x, (t,))[0]
    position_of_value = {int(v): i for i, v in enumerate(points)}
    if len(position_of_value) != n:
        raise ParameterError("NTT evaluation points are not distinct")
    perm = np.empty(n, dtype=np.int64)
    exp = 1  # 3^j mod 2N
    for j in range(n // 2):
        perm[j] = position_of_value[pow(zeta, exp, t)]
        perm[n // 2 + j] = position_of_value[pow(zeta, 2 * n - exp, t)]
        exp = exp * 3 % (2 * n)
    return perm


def slot_encode(values: np.ndarray, n: int, t: int) -> np.ndarray:
    """Encode length-N vectors over Z_t into plaintext polynomial coeffs.

    Leading axes batch: a (T, N) stack encodes in one inverse transform.
    """
    values = np.mod(np.asarray(values, dtype=np.int64), t)
    if values.shape[-1:] != (n,):
        raise ParameterError(f"expected {n} slot values, got shape {values.shape}")
    ntt_domain = np.empty_like(values)[..., None, :]  # the one-limb basis (t,)
    ntt_domain[..., 0, _slot_permutation(n, t)] = values
    return ntt_inverse_rns(ntt_domain, (t,))[..., 0, :]


def slot_decode(coeffs: np.ndarray, n: int, t: int) -> np.ndarray:
    """Decode plaintext polynomial coefficients into the N slot values."""
    return ntt_forward_rns(np.asarray(coeffs, dtype=np.int64), (t,))[0, _slot_permutation(n, t)]


# ---------------------------------------------------------------------------
# Multi-image lane packing
#
# Coefficient-encoded linear layers use a contiguous span of coefficient
# indices per image: the input occupies [0, in_span) and every useful MAC
# output of Eq. 1 lands below t_index + 1 <= lane_span. Independent images can
# therefore share one ciphertext at stride ``lane_span`` — image d lives at
# coefficients [d*stride, d*stride + in_span) and its outputs at
# positions + d*stride. The product support of lane d is exactly
# [d*stride, (d+1)*stride): a lower lane's kernel terms cannot reach it
# (their shifted indices stay below stride) and a higher lane's would need a
# negative monomial degree, so lanes never mix. One PMult serves the batch.


def lane_offsets(lanes: int, stride: int) -> np.ndarray:
    """Coefficient offset of each lane: d -> d*stride."""
    if lanes < 1:
        raise ParameterError(f"need at least one lane, got {lanes}")
    return np.arange(lanes, dtype=np.int64) * stride


def pack_lane_coeffs(blocks: list[np.ndarray], stride: int, n: int) -> np.ndarray:
    """Pack per-image coefficient blocks into one length-``n`` vector.

    Block ``d`` (width <= stride) is written at offset ``d*stride``; unused
    coefficients stay zero. Raises when the blocks collide or overflow R_n.
    """
    if not blocks:
        raise ParameterError("cannot pack zero lanes")
    out = np.zeros(n, dtype=np.int64)
    for d, block in enumerate(blocks):
        block = np.asarray(block, dtype=np.int64)
        if block.ndim != 1:
            raise ParameterError(f"lane {d} block must be 1-D, got {block.shape}")
        if block.shape[0] > stride:
            raise ParameterError(
                f"lane {d} block of width {block.shape[0]} exceeds stride {stride}")
        if d * stride + block.shape[0] > n:
            raise ParameterError(
                f"lane {d} overflows the ring: offset {d * stride} + width "
                f"{block.shape[0]} > n={n}")
        out[d * stride : d * stride + block.shape[0]] = block
    return out


def unpack_lane_coeffs(
    values: np.ndarray, stride: int, lanes: int, width: int
) -> np.ndarray:
    """Inverse of :func:`pack_lane_coeffs`: slice lanes back out, (lanes, width)."""
    values = np.asarray(values)
    if lanes < 1:
        raise ParameterError(f"need at least one lane, got {lanes}")
    if width > stride:
        raise ParameterError(f"lane width {width} exceeds stride {stride}")
    if (lanes - 1) * stride + width > values.shape[0]:
        raise ParameterError(
            f"{lanes} lanes of stride {stride} do not fit in {values.shape[0]} values")
    return np.stack(
        [values[d * stride : d * stride + width] for d in range(lanes)])


def lane_positions(base: np.ndarray, stride: int, lanes: int, n: int) -> np.ndarray:
    """Per-lane extraction positions: concat of ``base + d*stride`` for each lane."""
    base = np.asarray(base, dtype=np.int64)
    if lanes < 1:
        raise ParameterError(f"need at least one lane, got {lanes}")
    out = (base[None, :] + lane_offsets(lanes, stride)[:, None]).reshape(-1)
    if out.size and int(out.max()) >= n:
        raise ParameterError(
            f"lane positions overflow the ring: max {int(out.max())} >= n={n}")
    return out


def rotation_galois_element(n: int, amount: int) -> int:
    """Galois element k with sigma_k = rotate-rows-left-by-``amount``."""
    return pow(3, amount % (n // 2), 2 * n)


def default_baby_steps(dim: int) -> int:
    """Baby steps of a BSGS pass over ``dim`` diagonals: floor(sqrt(dim)).

    The one statement of the rule: key generation (packing, S2C), the S2C
    plan and the key inventory share it.
    """
    return max(1, math.isqrt(dim))


def period(height: int, n: int) -> int:
    """Slot period of a refresh round of ``height`` rows: the smallest power
    of two >= ``height`` when ``height <= N/2``, else N. Packing repeats the
    rows at it, and the S2C that closes the round is one pass of that many
    diagonals (:func:`repro.fhe.s2c.s2c_plan`); N is the dense layout."""
    if height > n // 2:
        return n
    return 1 << (height - 1).bit_length()


def check_period(p: int, n: int) -> None:
    """Refuse a slot period other than a divisor of N/2 or N itself: the
    only vectors packing lays out and S2C reads."""
    if p != n and (p <= 0 or (n // 2) % p):
        raise ParameterError(f"slot period {p} neither divides N/2 = {n // 2} nor is N")


def baby_giant_amounts(dim: int, baby: int | None = None) -> set[int]:
    """Rotation amounts a BSGS pass over ``dim`` diagonals uses
    (``baby`` defaults to :func:`default_baby_steps`)."""
    baby = baby or default_baby_steps(dim)
    giant = -(-dim // baby)
    return set(range(1, baby)) | {g * baby for g in range(1, giant)}


def row_swap_element(n: int) -> int:
    """Galois element performing the row swap on the 2 x (N/2) hypercube."""
    return 2 * n - 1
