"""The BFV homomorphic encryption scheme (RNS variant, textbook semantics).

A ciphertext (c0, c1) satisfies c0 + c1*s = Delta*m + e (mod Q) with
Delta = floor(Q/t). Supported operations (all used by the Athena framework):

* HAdd / HSub          — ciphertext addition/subtraction
* SMult                — scalar multiplication
* PMult                — plaintext-polynomial multiplication (used for the
                         coefficient-encoded convolution and all BSGS
                         matrix-vector products)
* CMult                — ciphertext-ciphertext multiplication with
                         relinearization (used by FBS giant steps)
* Galois automorphisms — slot rotations / row swap via keyswitching
* modulus switching    — the Q -> t noise-refresh step of the Athena loop

The per-op *analytic* noise accounting mirrors the paper's Table 4 rules
(PMult/CMult: log2 N + log2 t bits; SMult: log2 t bits; HAdd: 1 bit); the
*true* noise of any ciphertext can be measured against a secret key with
:meth:`BfvContext.true_noise_bits`, which the tests compare to the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.errors import NoiseBudgetExhausted, ParameterError, TensorOverflow
from repro.fhe import rns
from repro.fhe import slots as slotlib
from repro.fhe.backend import current_backend
from repro.fhe.keys import (
    KeySwitchKey,
    PublicKey,
    SecretKey,
    apply_keyswitch,
)
from repro.fhe.ntt import ntt_forward_rns, ntt_inverse_rns
from repro.fhe.params import FheParams
from repro.fhe.poly import RnsPoly
from repro.utils.modmath import centered_array, find_ntt_primes, inv_mod
from repro.utils.sampling import Sampler


@dataclass
class Plaintext:
    """A BFV plaintext: coefficient vector modulo t.

    A plaintext that participates in many homomorphic ops (a plan-held
    kernel, a bias vector) caches its operand forms lazily:
    the centered NTT-domain residues for :meth:`BfvContext.pmult` and the
    Delta-scaled residues for :meth:`BfvContext.add_plain` are computed on
    first use and reused afterwards, so a compiled program transforms each
    plaintext once instead of once per ciphertext op. ``coeffs`` must not be
    mutated after the first homomorphic use.
    """

    coeffs: np.ndarray
    params: FheParams
    _ntt_op: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )
    _scaled_op: RnsPoly | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_coeffs(cls, coeffs, params: FheParams) -> "Plaintext":
        arr = np.mod(np.asarray(coeffs, dtype=np.int64), params.t)
        if arr.shape != (params.n,):
            padded = np.zeros(params.n, dtype=np.int64)
            padded[: arr.shape[0]] = arr
            arr = padded
        return cls(arr, params)

    @classmethod
    def from_slots(cls, values, params: FheParams) -> "Plaintext":
        values = np.asarray(values, dtype=np.int64)
        if values.shape[0] < params.n:
            values = np.concatenate(
                [values, np.zeros(params.n - values.shape[0], dtype=np.int64)]
            )
        return cls(slotlib.slot_encode(values, params.n, params.t), params)

    def to_slots(self) -> np.ndarray:
        return slotlib.slot_decode(self.coeffs, self.params.n, self.params.t)

    def centered(self) -> np.ndarray:
        return centered_array(self.coeffs, self.params.t)

    # -- cached homomorphic-operand forms ---------------------------------

    def pmult_operand(self) -> np.ndarray:
        """Centered coefficients in NTT form, transformed once per plaintext."""
        if self._ntt_op is None:
            rns = RnsPoly.from_int_coeffs(
                centered_array(self.coeffs, self.params.t), self.params.moduli
            )
            self._ntt_op = rns.ntt_form()
        return self._ntt_op

    def add_operand(self) -> RnsPoly:
        """Delta-scaled residues, computed once per plaintext."""
        if self._scaled_op is None:
            self._scaled_op = RnsPoly.from_int_coeffs(
                self.coeffs, self.params.moduli
            ).scalar_mul(self.params.delta)
        return self._scaled_op


@dataclass
class BfvCiphertext:
    """BFV ciphertext with an analytic noise-bit estimate."""

    c0: RnsPoly
    c1: RnsPoly
    params: FheParams
    noise_bits: float

    @property
    def noise_budget_bits(self) -> float:
        """Remaining headroom: log2(Delta/2) - current noise estimate."""
        return math.log2(self.params.delta / 2) - self.noise_bits

    def assert_budget(self) -> None:
        if self.noise_budget_bits <= 0:
            raise NoiseBudgetExhausted(
                f"estimated noise {self.noise_bits:.1f} bits exceeds "
                f"Delta/2 = {math.log2(self.params.delta / 2):.1f} bits"
            )

    def __getstate__(self) -> dict:
        """Pickle the four fields only: a cached CMult operand form
        (:meth:`BfvContext.tensor_form`) is derived data."""
        return {k: v for k, v in self.__dict__.items() if k != "_tensor_form"}


class _TensorTables(NamedTuple):
    """Word-sized constants of :meth:`BfvContext.cmult_tensor` for one ring."""

    aux: tuple[int, ...]  # P
    both: tuple[int, ...]  # Q u P, Q's limbs first
    both_col: np.ndarray  # (L+K, 1) the primes of Q u P
    aux_col: np.ndarray  # (K, 1) the primes of P
    half: np.ndarray  # (L+K, 1) floor(Q/2) mod each prime of Q u P
    q_inv: np.ndarray  # (K, 1) Q^-1 mod each prime of P
    terms: int  # products one tensor may sum: ceil(sqrt(t))


@lru_cache(maxsize=None)
def _tensor_tables(params: FheParams) -> _TensorTables:
    """The auxiliary basis P of the RNS tensor and the constants that go with it.

    P is 31-bit NTT primes (so disjoint from the sub-2**30 limbs of Q) with
    P > 2*t*N*Q*terms + 4, twice what the centred scaled sum of ``terms``
    tensors needs — every component of one is at most t*N*Q/2 + 1 in
    magnitude. ``terms`` is ceil(sqrt(t)): an FBS over Z_t combines
    ``gs <= bs = ceil(sqrt(degree + 1)) <= ceil(sqrt(t))`` giant steps, so
    one basis per ring serves every plan. Built on the first CMult of a
    parameter set; a few KiB.
    """
    terms = math.isqrt(params.t - 1) + 1
    bound = 2 * params.t * params.n * params.q * terms + 4
    # Every prime exceeds 2**30, so this many always suffice; keep the
    # shortest prefix (largest prime first) that does.
    aux = tuple(find_ntt_primes(bound.bit_length() // 30 + 1, 31, 2 * params.n))
    while math.prod(aux[:-1]) > bound:
        aux = aux[:-1]
    both = params.moduli + aux

    def column(values) -> np.ndarray:
        col = np.array(values, dtype=np.int64)[:, None]
        col.setflags(write=False)
        return col

    return _TensorTables(
        aux=aux,
        both=both,
        both_col=column(both),
        aux_col=column(aux),
        half=column([params.q // 2 % p for p in both]),
        q_inv=column([inv_mod(params.q % p, p) for p in aux]),
        terms=terms,
    )


def cmult_bounds(params: FheParams) -> dict[str, tuple[int | float, int | float]]:
    """``name -> (peak, limit)`` for everything the RNS tensor relies on.

    :meth:`BfvContext.cmult_tensor` is exact for ``params``, for any sum of
    up to ``ceil(sqrt(t))`` products, iff every peak is strictly below its
    limit. Reads the moduli tables only (no twiddles), so it is cheap at
    any ring degree.
    """
    tb = _tensor_tables(params)
    aux = tb.aux
    top = max(tb.both) - 1
    aux_modulus = rns.rns_modulus(aux)
    widest = max(len(params.moduli), len(aux))
    return {
        # residue * residue, residue * CRT constant, residue * t
        "product": (top * max(top, params.t), 2**62),
        # e1's 2 * terms reduced products; t*e + floor(Q/2); x * inv +
        # folded shift; base_extend's 2L split-digit (< 2**16) products
        # against its weights, less overflow * Q and floor(Q/2) mod the
        # target prime
        "lazy_sum": (
            max(
                2 * tb.terms * top,
                top * params.t + top,
                2 * widest * (top << 16) + widest * top + top,
            ),
            2**63,
        ),
        "aux_basis": (2 * params.t * params.n * params.q * tb.terms + 4, aux_modulus),
        "overflow_estimate": (rns.overflow_estimate_error(widest), rns.V_AMBIGUITY),
    }


def galois_noise_growth(n: int) -> float:
    """Bits one Galois keyswitch adds (Table 4) — a function of the ring
    alone, so key material rotated without a context can carry the estimate
    (:meth:`repro.fhe.packing.PackingKey.rotated_secrets`)."""
    return math.log2(n) / 2 + 2


class BfvContext:
    """Keygen and homomorphic evaluation for one parameter set."""

    def __init__(self, params: FheParams, seed: int | None = None):
        self.params = params
        self.sampler = Sampler(seed, sigma=params.sigma)
        self._log_nt = math.log2(params.n) + math.log2(params.t)
        self._log_t = math.log2(params.t)

    # ----- key generation -------------------------------------------------

    def keygen(self) -> tuple[SecretKey, PublicKey]:
        sk = SecretKey.generate(self.params, self.sampler)
        pk = PublicKey.generate(sk, self.sampler)
        return sk, pk

    def relin_key(self, sk: SecretKey) -> KeySwitchKey:
        """Keyswitch key from s^2 to s."""
        return KeySwitchKey.generate(sk.poly * sk.poly, sk, self.sampler)

    def galois_key(self, sk: SecretKey, k: int) -> KeySwitchKey:
        """Keyswitch key from s(X^k) to s."""
        return KeySwitchKey.generate(sk.poly.automorphism(k), sk, self.sampler)

    def galois_keys(self, sk: SecretKey, elements) -> dict[int, KeySwitchKey]:
        return {k: self.galois_key(sk, k) for k in set(elements)}

    def rotation_keys(self, sk: SecretKey, amounts) -> dict[int, KeySwitchKey]:
        """Galois keys for a set of row-rotation amounts (plus none extra)."""
        elements = {slotlib.rotation_galois_element(self.params.n, a) for a in amounts}
        return self.galois_keys(sk, elements)

    # ----- encryption -----------------------------------------------------

    def encrypt(self, pt: Plaintext, pk: PublicKey) -> BfvCiphertext:
        p = self.params
        current_backend().record("encrypt")
        u = RnsPoly.from_int_coeffs(self.sampler.ternary(p.n), p.moduli)
        e0 = RnsPoly.from_int_coeffs(self.sampler.gaussian(p.n), p.moduli)
        e1 = RnsPoly.from_int_coeffs(self.sampler.gaussian(p.n), p.moduli)
        scaled = RnsPoly.from_int_coeffs(pt.coeffs, p.moduli).scalar_mul(p.delta)
        c0 = pk.b * u + e0 + scaled
        c1 = pk.a * u + e1
        fresh = math.log2(p.sigma * math.sqrt(2 * p.n) + p.sigma) + 1
        return BfvCiphertext(c0, c1, p, fresh)

    def encrypt_symmetric(self, pt: Plaintext, sk: SecretKey) -> BfvCiphertext:
        p = self.params
        from repro.fhe.keys import _uniform_poly

        a = _uniform_poly(p.moduli, p.n, self.sampler)
        e = RnsPoly.from_int_coeffs(self.sampler.gaussian(p.n), p.moduli)
        scaled = RnsPoly.from_int_coeffs(pt.coeffs, p.moduli).scalar_mul(p.delta)
        c0 = -(a * sk.poly) + e + scaled
        return BfvCiphertext(c0, a, p, math.log2(p.sigma) + 2)

    def encrypt_zero(self) -> BfvCiphertext:
        """A transparent (noiseless) encryption of zero.

        (0, 0) decrypts to zero under any key and is the additive identity,
        so it serves as the neutral accumulator seed — e.g. the FBS
        zero-polynomial fallbacks, which previously burned an SMult-by-0 on
        a live ciphertext (paying log2(t) noise bits for a constant).
        """
        p = self.params
        zero = RnsPoly.zeros(p.n, p.moduli)
        return BfvCiphertext(zero, zero, p, 0.0)

    def decrypt(self, ct: BfvCiphertext, sk: SecretKey) -> Plaintext:
        p = self.params
        current_backend().record("decrypt")
        phase = ct.c0 + ct.c1 * sk.poly
        coeffs = np.asarray(phase.to_int_coeffs(centered=False), dtype=object)
        q = p.q
        out = (((coeffs * p.t + q // 2) // q) % p.t).astype(np.int64)
        return Plaintext(out, p)

    # ----- Table-4 noise rules: one statement each, shared by the ops below
    # and by the fused mat-vec's estimate (repro.fhe.packing.hypercube_matvec)

    def pmult_noise(self, noise_bits: float) -> float:
        return noise_bits + self._log_nt

    def galois_noise(self, noise_bits: float) -> float:
        return noise_bits + galois_noise_growth(self.params.n)

    def cmult_noise(self, pairs) -> float:
        """Table-4 estimate of the relinearised sum of ``pairs``' products:
        the worst operand, one CMult, log2 G for the G-term sum."""
        worst = max(max(a.noise_bits, b.noise_bits) for a, b in pairs)
        return worst + self._log_nt + math.log2(len(pairs))

    @staticmethod
    def hadd_noise(noises: list[float]) -> float:
        """The sequential ``max(acc, next) + 1`` fold of an HAdd chain."""
        acc = noises[0]
        for other in noises[1:]:
            acc = max(acc, other) + 1
        return acc

    # ----- homomorphic operations ------------------------------------------

    def add(self, a: BfvCiphertext, b: BfvCiphertext) -> BfvCiphertext:
        current_backend().record("hadd")
        return BfvCiphertext(
            a.c0 + b.c0, a.c1 + b.c1, a.params, max(a.noise_bits, b.noise_bits) + 1
        )

    def sub(self, a: BfvCiphertext, b: BfvCiphertext) -> BfvCiphertext:
        current_backend().record("hadd")
        return BfvCiphertext(
            a.c0 - b.c0, a.c1 - b.c1, a.params, max(a.noise_bits, b.noise_bits) + 1
        )

    def add_many(self, cts: list[BfvCiphertext]) -> BfvCiphertext:
        """Sum a chain of ciphertexts through one fused HAdd per component.

        Equivalent to left-folding :meth:`add` (same noise estimate: the
        sequential ``max(acc, next) + 1`` fold), but both component chains
        go through the backend's :meth:`~repro.fhe.backend.Backend.hadd_many`,
        which on the batched engine defers the modular reduction across the
        whole chain.
        """
        if not cts:
            raise ParameterError("add_many needs at least one ciphertext")
        if len(cts) == 1:
            return cts[0]
        be = current_backend()
        be.record("hadd", len(cts) - 1)
        moduli = cts[0].params.moduli
        c0 = be.hadd_many([ct.c0.data for ct in cts], moduli)
        c1 = be.hadd_many([ct.c1.data for ct in cts], moduli)
        noise = self.hadd_noise([ct.noise_bits for ct in cts])
        return BfvCiphertext(
            RnsPoly(c0, moduli), RnsPoly(c1, moduli), cts[0].params, noise
        )

    def add_plain(self, ct: BfvCiphertext, pt: Plaintext) -> BfvCiphertext:
        current_backend().record("add_plain")
        return BfvCiphertext(
            ct.c0 + pt.add_operand(), ct.c1, ct.params, ct.noise_bits
        )

    def smult(self, ct: BfvCiphertext, scalar: int) -> BfvCiphertext:
        """Scalar multiplication (scalar taken mod t, centered)."""
        t = ct.params.t
        scalar = int(scalar) % t
        if scalar > t // 2:
            scalar -= t
        current_backend().record("smult")
        return BfvCiphertext(
            ct.c0.scalar_mul(scalar),
            ct.c1.scalar_mul(scalar),
            ct.params,
            ct.noise_bits + self._log_t,
        )

    def pmult(self, ct: BfvCiphertext, pt: Plaintext) -> BfvCiphertext:
        """Multiply by a plaintext polynomial (weights stay unencrypted).

        The plaintext operand is used in NTT form (cached on the plaintext),
        so a plan-held kernel pays its forward transform once
        across all requests; the result is bit-identical to the plain
        ``RnsPoly`` product.
        """
        current_backend().record("pmult")
        w = pt.pmult_operand()
        return BfvCiphertext(
            ct.c0.mul_ntt(w), ct.c1.mul_ntt(w), ct.params,
            self.pmult_noise(ct.noise_bits),
        )

    # The CMult tensor of a sum of products, in three dispatch-free stages
    # (module-level transforms and rns.base_extend only, no backend calls):
    # the giant_step_batch bodies run them and differ only in how they sum.

    @property
    def tensor_moduli(self) -> tuple[int, ...]:
        """Q u P, the basis the tensor multiplies in (Q's limbs first)."""
        return _tensor_tables(self.params).both

    def check_tensor_terms(self, count: int) -> None:
        """Refuse an empty sum, and one of more products than P was sized for."""
        terms = _tensor_tables(self.params).terms
        if count < 1:
            raise ParameterError("a CMult tensor needs at least one pair")
        if count > terms:
            raise TensorOverflow(
                f"a tensor of {count} products exceeds the {terms} the "
                f"auxiliary basis of {self.params.name} holds",
                terms=count, capacity=terms,
            )

    def tensor_form(self, ct: BfvCiphertext) -> np.ndarray:
        """Stage 1: ``ct`` as a CMult operand — the exact centred extension
        Q -> P and forward NTT over Q u P of (c0, c1), a (2, L+K, N) array.

        Built the first time ``ct`` is an operand and kept on it (read-only;
        not a field: absent from ``==``, ``repr``, pickles and the wire
        format), so a ciphertext multiplied several times — a square, a
        power feeding several powers — enters Q u P once.
        """
        if ct.params != self.params:
            raise ParameterError("ring mismatch between operands")
        form = getattr(ct, "_tensor_form", None)
        if form is None:
            tb = _tensor_tables(self.params)
            ops = np.stack([ct.c0.data, ct.c1.data])
            ext = rns.base_extend(ops, self.params.moduli, tb.aux, centered=True)
            form = ntt_forward_rns(np.concatenate([ops, ext], axis=-2), tb.both)
            form.setflags(write=False)
            ct._tensor_form = form
        return form

    def tensor_products(self, pairs) -> np.ndarray:
        """Stage 2: ``(e0, e1, e2) = sum_g (a0*b0, a0*b1 + a1*b0, a1*b1)``
        over ``pairs`` in the evaluation domain of Q u P, a (3, L+K, N)
        array. Each product is reduced below 2**31 and the terms summed
        lazily, so partial sums of one batch add up in int64 unreduced."""
        mods = _tensor_tables(self.params).both_col
        a = np.stack([self.tensor_form(x) for x, _ in pairs])
        b = np.stack([self.tensor_form(y) for _, y in pairs])
        e = (a[:, :, None] * b[:, None, :] % mods).sum(axis=0)  # e[i, j] = sum ai*bj
        return np.stack([e[0, 0], e[0, 1] + e[1, 0], e[1, 1]])

    def tensor_scale_round(self, e: np.ndarray) -> np.ndarray:
        """Stage 3: ``round(t * e / Q) mod Q`` of a (possibly lazy) stage-2
        sum, a (3, L, N) array — one inverse NTT, one rounding.

        With y = t*e + floor(Q/2), ``floor(y / Q) = (y - [y]_Q) / Q`` is
        computed modulo each prime of P from the exact extension of
        [y]_Q, then converted P -> Q centred.
        """
        params = self.params
        moduli = params.moduli
        tb = _tensor_tables(params)
        num_limbs = len(moduli)
        y = (ntt_inverse_rns(e, tb.both) * params.t + tb.half) % tb.both_col
        y_mod_q = rns.base_extend(y[:, :num_limbs], moduli, tb.aux)
        scaled = (y[:, num_limbs:] - y_mod_q) * tb.q_inv % tb.aux_col
        return rns.base_extend(scaled, tb.aux, moduli, centered=True)

    def cmult_tensor(self, pairs) -> tuple[RnsPoly, RnsPoly, RnsPoly, float]:
        """The tensor half of CMult for a sum of products, in word-sized RNS.

        ``pairs`` is a list of (a, b) ciphertexts. Returns (r0, r1, r2,
        noise_bits): the scaled components ``round(t * e / Q) mod Q`` for
        e = sum over the pairs of (a0*b0, a0*b1 + a1*b0, a1*b1) over the
        centred integer lifts, before relinearization. Exact — bit-identical
        to tensoring over Python integers, one rounding whatever the number
        of pairs. :func:`cmult_bounds` states the overflow and precision
        bounds this relies on.
        """
        self.check_tensor_terms(len(pairs))
        moduli = self.params.moduli
        r0, r1, r2 = self.tensor_scale_round(self.tensor_products(pairs))
        return (RnsPoly(r0, moduli), RnsPoly(r1, moduli), RnsPoly(r2, moduli),
                self.cmult_noise(pairs))

    def cmult(
        self, a: BfvCiphertext, b: BfvCiphertext, rlk: KeySwitchKey
    ) -> BfvCiphertext:
        """Ciphertext-ciphertext multiplication with relinearization.

        Tensor the ciphertexts (exactly the product of the centred integer
        lifts, computed in RNS by :meth:`cmult_tensor` — the one-pair
        case), scale each component by t/Q with rounding, then fold the
        quadratic term back to degree one with the relinearization key.
        """
        current_backend().record("cmult")
        r0, r1, r2, noise = self.cmult_tensor([(a, b)])
        d0, d1 = apply_keyswitch(r2, rlk)
        return BfvCiphertext(r0 + d0, r1 + d1, a.params, noise)

    def square(self, ct: BfvCiphertext, rlk: KeySwitchKey) -> BfvCiphertext:
        return self.cmult(ct, ct, rlk)

    # ----- automorphisms ----------------------------------------------------

    def apply_galois(
        self, ct: BfvCiphertext, k: int, gk: KeySwitchKey
    ) -> BfvCiphertext:
        """sigma_k on the plaintext; keyswitch back to the original key.

        Runs through the backend's fused
        :meth:`~repro.fhe.backend.Backend.rotate_keyswitch`, which
        takes c1's residue rows as digits and rotates *them* (the one
        rotation definition, shared with the fused mat-vec). Both records land
        here so counting stays in one place.
        """
        k = k % (2 * ct.params.n)
        be = current_backend()
        be.record("rotation")
        be.record("keyswitch")
        moduli = ct.params.moduli
        c0, c1 = be.rotate_keyswitch(ct.c0.data, ct.c1.data, k, gk, moduli)
        return BfvCiphertext(
            RnsPoly(c0, moduli), RnsPoly(c1, moduli), ct.params,
            self.galois_noise(ct.noise_bits),
        )

    def rotate_slots(
        self, ct: BfvCiphertext, amount: int, gks: dict[int, KeySwitchKey]
    ) -> BfvCiphertext:
        """Rotate both hypercube rows left by ``amount`` slots."""
        k = slotlib.rotation_galois_element(ct.params.n, amount)
        if k == 1:
            return ct
        if k not in gks:
            raise ParameterError(f"missing Galois key for element {k}")
        return self.apply_galois(ct, k, gks[k])

    def row_swap(
        self, ct: BfvCiphertext, gks: dict[int, KeySwitchKey]
    ) -> BfvCiphertext:
        k = slotlib.row_swap_element(ct.params.n)
        if k not in gks:
            raise ParameterError(f"missing Galois key for row swap ({k})")
        return self.apply_galois(ct, k, gks[k])

    # ----- diagnostics --------------------------------------------------------

    def true_noise_bits(self, ct: BfvCiphertext, sk: SecretKey) -> float:
        """Measured noise: log2 of max |c0 + c1*s - Delta*m| over coefficients."""
        p = self.params
        phase = ct.c0 + ct.c1 * sk.poly
        coeffs = rns.from_rns_object(phase.data, p.moduli)
        q = p.q
        m = ((coeffs * p.t + q // 2) // q) % p.t
        residual = (coeffs - p.delta * m) % q
        worst = int(np.abs(np.where(residual > q // 2, residual - q, residual)).max())
        return math.log2(worst) if worst else 0.0
