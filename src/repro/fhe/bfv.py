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

from repro.errors import ParameterError, TensorOverflow
from repro.fhe import rns
from repro.fhe import slots as slotlib
from repro.fhe.backend import current_backend
from repro.fhe.keys import KeySwitchKey, PublicKey, SecretKey
from repro.fhe.ntt import ntt_forward_rns, ntt_inverse_rns
from repro.fhe.params import FheParams
from repro.fhe.poly import RnsPoly
from repro.utils.modmath import centered_array, find_ntt_primes, inv_mod
from repro.utils.sampling import SIGMA, Sampler


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
        init=False, default=None, repr=False, compare=False
    )
    _scaled_op: RnsPoly | None = field(
        init=False, default=None, repr=False, compare=False
    )

    @classmethod
    def from_coeffs(cls, coeffs, params: FheParams) -> "Plaintext":
        arr = np.mod(np.asarray(coeffs, dtype=np.int64), params.t)
        if arr.ndim != 1 or arr.shape[0] > params.n:
            raise ParameterError(
                f"expected at most {params.n} coefficients, got shape {arr.shape}")
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
        current_backend().record(ntt=1)  # one transform over the basis (t,)
        return cls(slotlib.slot_encode(values, params.n, params.t), params)

    def to_slots(self) -> np.ndarray:
        current_backend().record(ntt=1)
        return slotlib.slot_decode(self.coeffs, self.params.n, self.params.t)

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

    _tensor_form = None  # BfvContext.tensor_forms' CMult operand, set on the instance

    @property
    def noise_budget_bits(self) -> float:
        """Remaining headroom: log2(Delta/2) - current noise estimate."""
        return math.log2(self.params.delta / 2) - self.noise_bits


class _TensorTables(NamedTuple):
    """Word-sized constants of the CMult tensor stages for one ring."""

    aux: tuple[int, ...]  # P
    both: tuple[int, ...]  # Q u P, Q's limbs first
    terms: int  # products one tensor may sum: ceil(sqrt(t))
    to_aux: rns._ExtensionTables  # Q -> P of t*x + floor(Q/2), rows mapped onto to_q's digits
    to_q: rns._ExtensionTables  # P -> Q, Q^-1 and floor(P/2) folded in
    gain: tuple[int, ...]  # the scale-round's inverse over Q u P: to_aux's digits, t * to_q's
    shift: tuple[int, ...]  # its floor(Q/2) digits on Q, 0 on P


@lru_cache(maxsize=None)
def _tensor_tables(params: FheParams) -> _TensorTables:
    """The auxiliary basis P of the RNS tensor and the constants that go with it.

    P is 31-bit NTT primes (disjoint from the sub-2**30 limbs of Q) with
    P > 2*t*N*Q*terms + 4, twice what the centred scaled sum of ``terms``
    tensors needs (a component of one is at most t*N*Q/2 + 1 in magnitude).
    ``terms`` is ceil(sqrt(t)): an FBS over Z_t combines at most
    ``bs = ceil(sqrt(degree + 1))`` giant steps, so one basis serves every
    plan. Built on a parameter set's first CMult; a few KiB.
    """
    terms = math.isqrt(params.t - 1) + 1
    bound = 2 * params.t * params.n * params.q * terms + 4
    # Every prime exceeds 2**30, so this many always suffice; keep the
    # shortest prefix (largest prime first) that does.
    aux = tuple(find_ntt_primes(bound.bit_length() // 30 + 1, 31, 2 * params.n))
    while math.prod(aux[:-1]) > bound:
        aux = aux[:-1]
    p = math.prod(aux)  # P
    to_q = rns._extension_tables(aux, params.moduli, inv_mod(params.q % p, p), p // 2, None)
    gains, offsets = to_q.inv[:, 0].tolist(), tuple(to_q.shift_inv[:, 0].tolist())
    to_aux = rns._extension_tables(params.moduli, aux, params.t, params.q // 2,
                                   (tuple(-g % r for g, r in zip(gains, aux)), offsets))
    return _TensorTables(
        aux=aux,
        both=params.moduli + aux,
        terms=terms,
        to_aux=to_aux,
        to_q=to_q,
        gain=tuple(to_aux.inv[:, 0].tolist() + [params.t * g % r for g, r in zip(gains, aux)]),
        shift=tuple(to_aux.shift_inv[:, 0].tolist() + [0] * len(aux)),
    )


def cmult_bounds(params: FheParams) -> dict[str, tuple[int | float, int | float]]:
    """``name -> (peak, limit)`` for everything the RNS tensor relies on.

    The tensor stages of :class:`BfvContext` are exact for ``params``, for
    any sum of up to ``ceil(sqrt(t))`` products, iff every peak here and in
    :func:`repro.fhe.rns.extension_bounds` is strictly below its limit. Reads
    the moduli tables only (no twiddles), so it is cheap at any ring degree.
    """
    tb = _tensor_tables(params)
    top, float_sum = max(tb.both) - 1, rns.extension_bounds(params.moduli, tb.aux)["float_sum"][0]
    return {
        # residue * residue: a tensor product, an operand's CRT digit
        "product": (top * top, 2**62),
        # a0*b1 + a1*b0 unreduced, plus the reduced sum a reference add meets
        "pair_sum": (2 * top * top + top, 2**63),
        # the giant steps' 2 * terms reduced product runs, summed unreduced
        "lazy_sum": (2 * tb.terms * top, 2**63),
        # the scale-round's one aux %: the mapped Q -> P row plus the gained
        # inverse's [x_P * t Q^-1 (P/p)^-1]_p (its digits: ntt_bounds "shifted_exit")
        "aux_input": (top + float_sum, 2**63),
        "aux_basis": (2 * params.t * params.n * params.q * tb.terms + 4, rns.rns_modulus(tb.aux)),
        "overflow_estimate": (rns.overflow_estimate_error(max(len(params.moduli), len(tb.aux))),
                              rns.V_AMBIGUITY),
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
        self.sampler = Sampler(seed)
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
        current_backend().record(encrypt=1)
        u = RnsPoly.from_int_coeffs(self.sampler.ternary(p.n), p.moduli)
        e0 = RnsPoly.from_int_coeffs(self.sampler.gaussian(p.n), p.moduli)
        e1 = RnsPoly.from_int_coeffs(self.sampler.gaussian(p.n), p.moduli)
        scaled = RnsPoly.from_int_coeffs(pt.coeffs, p.moduli).scalar_mul(p.delta)
        c0 = pk.b * u + e0 + scaled
        c1 = pk.a * u + e1
        fresh = math.log2(SIGMA * math.sqrt(2 * p.n) + SIGMA) + 1
        return BfvCiphertext(c0, c1, p, fresh)

    def encrypt_zero(self) -> BfvCiphertext:
        """A transparent (noiseless) encryption of zero.

        (0, 0) decrypts to zero under any key and is the additive identity,
        so it serves as the neutral accumulator seed — e.g. the FBS
        zero-polynomial fallbacks, which previously burned an SMult-by-0 on
        a live ciphertext (paying log2(t) noise bits for a constant).
        """
        p = self.params
        zero = RnsPoly(np.zeros((p.num_limbs, p.n), dtype=np.int64), p.moduli)
        return BfvCiphertext(zero, zero, p, 0.0)

    def decrypt(self, ct: BfvCiphertext, sk: SecretKey) -> Plaintext:
        p = self.params
        current_backend().record(decrypt=1)
        phase = ct.c0 + ct.c1 * sk.poly
        return Plaintext(phase.mod_switch(p.t), p)

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
        current_backend().record(hadd=1)
        return BfvCiphertext(
            a.c0 + b.c0, a.c1 + b.c1, a.params, max(a.noise_bits, b.noise_bits) + 1
        )

    def sub(self, a: BfvCiphertext, b: BfvCiphertext) -> BfvCiphertext:
        current_backend().record(hadd=1)
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
        be.record(hadd=len(cts) - 1)
        moduli = cts[0].params.moduli
        c0 = be.hadd_many([ct.c0.data for ct in cts], moduli)
        c1 = be.hadd_many([ct.c1.data for ct in cts], moduli)
        noise = self.hadd_noise([ct.noise_bits for ct in cts])
        return BfvCiphertext(
            RnsPoly(c0, moduli), RnsPoly(c1, moduli), cts[0].params, noise
        )

    def add_plain(self, ct: BfvCiphertext, pt: Plaintext) -> BfvCiphertext:
        current_backend().record(add_plain=1)
        return BfvCiphertext(
            ct.c0 + pt.add_operand(), ct.c1, ct.params, ct.noise_bits
        )

    def smult(self, ct: BfvCiphertext, scalar: int) -> BfvCiphertext:
        """Scalar multiplication (scalar taken mod t, centered)."""
        t = ct.params.t
        scalar = int(scalar) % t
        if scalar > t // 2:
            scalar -= t
        current_backend().record(smult=1)
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
        current_backend().record(pmult=1)
        w = pt.pmult_operand()
        return BfvCiphertext(
            ct.c0.mul_ntt(w), ct.c1.mul_ntt(w), ct.params,
            self.pmult_noise(ct.noise_bits),
        )

    # The CMult tensor in three dispatch-free stages (module-level transforms
    # and rns.base_extend only, no backend calls): cmult_batch keeps the
    # products apart, the giant_step_batch bodies sum them, one rounding.

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

    def tensor_forms(self, cts, record=None) -> list[np.ndarray]:
        """Stage 1: each ciphertext of ``cts`` as a CMult operand — the
        exact centred extension Q -> P and forward NTT over Q u P of
        (c0, c1), a (2, L+K, N) array.

        Built the first time a ciphertext is an operand and kept on it
        (read-only; not a field, so absent from ``==`` and ``repr``),
        so a square or a power feeding several powers
        enters Q u P once — and those of ``cts`` without one, together.
        ``record`` (:meth:`~repro.fhe.backend.Backend.record`) notes the
        work of the forms built: their extensions and transforms.
        """
        todo = {}
        for ct in cts:
            if ct.params is not self.params and ct.params != self.params:
                raise ParameterError("ring mismatch between operands")
            if ct._tensor_form is None:
                todo[id(ct)] = ct
        if todo:
            tb, num_limbs, n = _tensor_tables(self.params), self.params.num_limbs, self.params.n
            ops = np.empty((len(todo), 2, len(tb.both), n), dtype=np.int64)  # (c0, c1) over Q u P
            ops[..., :num_limbs, :] = [(ct.c0.data, ct.c1.data) for ct in todo.values()]
            rns.base_extend(ops[..., :num_limbs, :], self.params.moduli, tb.aux,
                            shift=self.params.q // 2, out=ops[..., num_limbs:, :])
            forms = ntt_forward_rns(ops, tb.both)
            if record is not None:
                record(ntt=ops.size // n, rnsconv=ops[..., num_limbs:, :].size)
            forms.setflags(write=False)
            for ct, form in zip(todo.values(), forms):
                ct._tensor_form = form
        return [ct._tensor_form for ct in cts]

    def tensor_products(self, pairs) -> np.ndarray:
        """Stage 2: ``(a0*b0, a0*b1 + a1*b0, a1*b1)`` of each pair in the
        evaluation domain of Q u P, a (G, 3, L+K, N) array, unreduced (each
        below 2**63, :func:`cmult_bounds` "pair_sum"): the inverse transform
        of stage 3 reduces on entry, and a sum over pairs reduces in runs."""
        forms = self.tensor_forms([ct for pair in pairs for ct in pair])
        a, b = np.array(forms[0::2]), np.array(forms[1::2])
        e = np.empty((len(pairs), 3) + a.shape[2:], dtype=np.int64)
        np.multiply(a[:, :1], b, out=e[:, :2])
        np.multiply(a[:, 1], b[:, 1], out=e[:, 2])
        e[:, 1] += a[:, 1] * b[:, 0]
        return e

    def tensor_scale_round(self, e: np.ndarray) -> np.ndarray:
        """Stage 3: ``round(t * e / Q) mod Q`` of a stage-2 product or sum
        (any int64), a (..., 3, L, N) array — one inverse NTT, one rounding.

        With y = t*e + floor(Q/2) and w the centred lift of [t*e]_Q,
        ``floor(y / Q) = (t*e - w) / Q``. The inverse's gain and shift make
        its Q rows the Q -> P extension's CRT digits of t*e + floor(Q/2) and
        its P rows x_P * [t Q^-1 (P/p)^-1]_p; that extension maps its rows by
        the P -> Q extension's digit map (Q^-1, centring floor(P/2)), so one
        ``%`` of the sum gives that extension's digits of t*e - w.
        Components 0 and 1 are residue classes (:data:`repro.fhe.rns.EXTENSION_RANGE`)
        for the correction add to reduce; component 2, the keyswitch input, canonical.
        """
        tb, num_limbs = _tensor_tables(self.params), self.params.num_limbs
        x = ntt_inverse_rns(e, tb.both, tb.gain, tb.shift)
        digits = tb.to_aux.extend(x[..., :num_limbs, :])
        digits += x[..., num_limbs:, :]
        digits %= tb.to_q.src
        out = tb.to_q.extend(digits)
        out[..., 2, :, :] %= tb.to_aux.src
        return out

    # ----- automorphisms ----------------------------------------------------

    def apply_galois(
        self, ct: BfvCiphertext, k: int, gk: KeySwitchKey
    ) -> BfvCiphertext:
        """sigma_k on the plaintext; keyswitch back to the original key.

        Runs through the backend's fused
        :meth:`~repro.fhe.backend.Backend.rotate_keyswitch`, which
        takes c1's digits and rotates *them* (the one
        rotation definition, shared with the fused mat-vec). Both records land
        here so counting stays in one place.
        """
        k = k % (2 * ct.params.n)
        be = current_backend()
        be.record(rotation=1, keyswitch=1)
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
