"""Key material for the BFV scheme: secret/public keys and keyswitch keys.

Keyswitch keys (relinearization, Galois, and LWE packing keys) are hybrid
keys over Q = q_0 ... q_{L-1} and a special basis P of K = alpha primes
(:attr:`FheParams.special_moduli`). Q's limbs fall into D = ceil(L / alpha)
digit groups of alpha limbs (the last may hold fewer), Q_j the product of
group j, and the key for a target secret ``g`` is

    KSK_j = (-(a_j * s) + e_j + P * g * delta_j, a_j)   over Q u P,

delta_j the CRT idempotent of group j. Digit j of a component c is the
centred lift [c]_{Q_j} of its group-j residues, so ``sum_j [c]_{Q_j} *
KSK_j`` encrypts P * c * g under ``s`` modulo Q * P; dividing it by P with
rounding (the *mod-down*) key-switches c for O(D * N * sigma * max(Q_j) / P
+ N) noise, max(Q_j) < P. A digit enters Q u P by one word-sized base
extension (the *mod-up*), the mod-down is another: no big integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.fhe import rns
from repro.fhe.backend import digit_groups, lazy_product_limit
from repro.fhe.ntt import ntt_forward_rns
from repro.fhe.params import FheParams
from repro.fhe.poly import RnsPoly
from repro.utils.sampling import Sampler


@dataclass
class SecretKey:
    """Ternary RLWE secret key."""

    params: FheParams
    poly: RnsPoly
    coeffs: np.ndarray  # ternary int64 vector, the "plain" view of the key

    @classmethod
    def generate(cls, params: FheParams, sampler: Sampler) -> "SecretKey":
        coeffs = sampler.ternary(params.n)
        return cls(params, RnsPoly.from_int_coeffs(coeffs, params.moduli), coeffs)


@dataclass
class PublicKey:
    """Standard RLWE public key (b, a) with b = -(a*s) + e."""

    b: RnsPoly
    a: RnsPoly

    @classmethod
    def generate(cls, sk: SecretKey, sampler: Sampler) -> "PublicKey":
        params = sk.params
        a = _uniform_poly(params.moduli, params.n, sampler)
        e = RnsPoly.from_int_coeffs(sampler.gaussian(params.n), params.moduli)
        b = -(a * sk.poly) + e
        return cls(b, a)


def _uniform_poly(moduli: tuple[int, ...], n: int, sampler: Sampler) -> RnsPoly:
    """Uniform ring element over ``moduli``, sampled limb-wise (valid: limbs
    independent)."""
    data = np.empty((len(moduli), n), dtype=np.int64)
    for i, p in enumerate(moduli):
        data[i] = sampler.uniform(p, n)
    return RnsPoly(data, moduli)


@dataclass
class KeySwitchKey:
    """Hybrid keyswitch key from secret ``g`` to secret ``s``: the read-only
    (2, D, L+K, N) evaluation-domain stack of both halves over Q u P, built in
    that domain (``[-A S + NTT(e_j + P g delta_j), A]``, A = NTT(a_j)), so no
    keyswitch pays a key transform and the key products are one contraction."""

    halves: np.ndarray  # [-(a_j s) + e_j + P g delta_j, a_j]
    moduli: tuple[int, ...]  # Q u P: Q's limbs, then the special primes

    @classmethod
    def generate(cls, target: RnsPoly, sk: SecretKey, sampler: Sampler) -> "KeySwitchKey":
        params = sk.params
        both = params.keyswitch_moduli
        mods = np.array(both, dtype=np.int64)[:, None]
        special = math.prod(params.special_moduli)
        payload = target.data * np.array([special % q for q in params.moduli])[:, None]
        a, e = [], []
        for rows in digit_groups(params.num_limbs, both):
            a.append(_uniform_poly(both, params.n, sampler).data)
            e.append(rns.to_rns(sampler.gaussian(params.n), both))
            # P * g * delta_j is P * g on the limbs of group j, zero elsewhere.
            e[-1][rows] = (e[-1][rows] + payload[rows]) % mods[rows]
        halves = ntt_forward_rns(np.array([e, a]), both)
        s = ntt_forward_rns(rns.to_rns(sk.coeffs, both), both)
        halves[0] = (halves[0] - halves[1] * s % mods) % mods
        halves.setflags(write=False)
        return cls(halves, both)


def keyswitch_bounds(params: FheParams) -> dict[str, tuple[int, int]]:
    """``name -> (peak, limit)`` for everything the keyswitch kernels rely
    on: they are exact for ``params`` iff every peak is strictly below its
    limit. Reads the moduli tables only (no twiddles), like
    :func:`repro.fhe.bfv.cmult_bounds`."""
    moduli, both = params.moduli, params.keyswitch_moduli
    special = both[len(moduli):]
    top = max(both) - 1
    below, above = rns.EXTENSION_RANGE
    groups = [moduli[rows] for rows in digit_groups(len(moduli), both)]
    key_sum = min(params.num_digits, lazy_product_limit(both)) * top * top
    return {
        # digit residue * key residue; x mod q times P^-1
        "product": (top * top, 2**62),
        # D digit products summed unreduced in runs (one run, no %, at D <= 2)
        "key_sum": (key_sum, 2**63),
        # the mod-down's one %: P^-1 x (a residue, or a residue times P^-1)
        # plus the lift's row (-P^-1 in it) or its transform
        "mod_down_sum": (max(top * top + above, -below), 2**63),
        # P above every digit's modulus Q_j, so the mod-down shrinks the
        # digits' key noise below the rounding's
        "special_basis": (max(math.prod(g) for g in groups), math.prod(special)),
        # the mod-up of every digit, Q_j -> the rest of Q u P, and the
        # mod-down's P -> Q: exact float64 CRT sums
        "mod_up": (max(rns.extension_bounds(g, both)["float_sum"][0] for g in groups), 2**53),
        "mod_down": (rns.extension_bounds(special, moduli)["float_sum"][0], 2**53),
    }
