"""Key material for the BFV scheme: secret/public keys and keyswitch keys.

Keyswitch keys (relinearization, Galois, and LWE packing keys) are hybrid
keys at one RNS digit per limb of Q = q_0 ... q_{L-1} and one special prime
P: the key for a target secret ``g`` is the list

    KSK_i = (-(a_i * s) + e_i + P * g * delta_i, a_i)   over Q u {P},

delta_i being the CRT idempotent of limb i (1 mod q_i, 0 mod q_j), so that
``sum_i c_i * P * delta_i = P * c`` for the residue rows c_i = c mod q_i of
a component *as they stand*: nothing is decomposed, each row is only
reduced into the limbs of Q u {P}. ``sum_i c_i * KSK_i`` encrypts
P * c * g under ``s`` modulo Q * P; dividing it by P with rounding (the
*mod-down*) key-switches the component for O(L * N * sigma * max(q_i) / P
+ N) noise, L digit transforms and no big integer anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    @property
    def norm_sq(self) -> int:
        """||s||^2, used in the e_ms noise formula of paper §3.3."""
        return int(np.sum(self.coeffs * self.coeffs))


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
    """Hybrid keyswitch key from secret ``g`` to secret ``s``: one digit key
    per limb of Q, each over Q u {P}."""

    k0: list[RnsPoly]  # -(a_i s) + e_i + P g delta_i
    k1: list[RnsPoly]  # a_i

    @classmethod
    def generate(cls, target: RnsPoly, sk: SecretKey, sampler: Sampler) -> "KeySwitchKey":
        params = sk.params
        both = params.keyswitch_moduli
        s = RnsPoly.from_int_coeffs(sk.coeffs, both).ntt_form()
        k0, k1 = [], []
        for i, q in enumerate(params.moduli):
            a = _uniform_poly(both, params.n, sampler)
            e = RnsPoly.from_int_coeffs(sampler.gaussian(params.n), both)
            b = -a.mul_ntt(s) + e
            # P * g * delta_i is P * g on limb i and zero on every other.
            b.data[i] = (b.data[i] + target.data[i] * (params.special_prime % q)) % q
            k0.append(b)
            k1.append(a)
        return cls(k0, k1)

    @property
    def moduli(self) -> tuple[int, ...]:
        """Q u {P}: Q's limbs, then the special prime."""
        return self.k0[0].moduli

    def ntt_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (L, L+1, N) forward-NTT stacks of both key halves.

        The fused keyswitch kernels multiply every digit against these in
        the NTT domain, so the per-digit key transforms are paid once per
        key lifetime instead of once per ciphertext op. Computed directly
        through :func:`ntt_forward_rns` — compile-time work, deliberately
        outside backend dispatch so counting backends never see it.
        Deterministic, so a benign compute-twice race needs no lock.
        """
        cached = getattr(self, "_ntt_stack_cache", None)
        if cached is None:
            k0 = ntt_forward_rns(np.stack([p.data for p in self.k0]), self.moduli)
            k1 = ntt_forward_rns(np.stack([p.data for p in self.k1]), self.moduli)
            for arr in (k0, k1):
                arr.setflags(write=False)
            cached = self._ntt_stack_cache = (k0, k1)
        return cached

    def warm(self) -> "KeySwitchKey":
        """Precompute the NTT stacks (key-generation/compile-time hook)."""
        self.ntt_stack()
        return self


def keyswitch_bounds(params: FheParams) -> dict[str, tuple[int, int]]:
    """``name -> (peak, limit)`` for everything the keyswitch kernels rely
    on: they are exact for ``params`` iff every peak is strictly below its
    limit. Reads the moduli tables only (no twiddles), like
    :func:`repro.fhe.bfv.cmult_bounds`."""
    top = max(params.keyswitch_moduli) - 1
    return {
        # digit residue * key residue; (x - lift) mod q times P^-1
        "product": (top * top, 2**62),
        # the L reduced products of one digit-axis sum
        "lazy_sum": (len(params.moduli) * top, 2**63),
        # P above every limb of Q (so none of them), and word-sized
        "special_prime": (max(params.moduli), params.special_prime),
    }

