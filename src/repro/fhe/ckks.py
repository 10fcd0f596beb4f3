"""Compact CKKS implementation — the baseline scheme Athena argues against.

Implements the approximate-arithmetic RNS-CKKS core: canonical-embedding
encoding, public-key encryption, addition, ciphertext multiplication with
relinearization, and rescaling down the modulus chain. This is enough to
run the paper's Figure 1 study (Taylor/Chebyshev approximations of ReLU and
sigmoid evaluated under encryption at various scale factors Delta) and to
unit-test the precision-vs-Delta behaviour that motivates Athena.

Rotations and bootstrapping are *not* implemented here — the baseline
accelerator simulations use the analytic CKKS workload model in
``repro.accel.workload`` instead (see DESIGN.md substitution #4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro.errors import NoiseBudgetExhausted, ParameterError
from repro.fhe.ntt import negacyclic_mul_exact
from repro.fhe.poly import RnsPoly
from repro.fhe.rns import from_rns_object
from repro.utils.modmath import find_ntt_primes, inv_mod
from repro.utils.sampling import Sampler


@dataclass(frozen=True)
class CkksParams:
    """CKKS parameter set: degree, per-limb scale bits, chain length."""

    name: str
    n: int
    scale_bits: int
    num_limbs: int
    decomp_bits: int = 8
    sigma: float = 3.2

    def __post_init__(self) -> None:
        if self.n & (self.n - 1) or self.n < 8:
            raise ParameterError("CKKS degree must be a power of two >= 8")
        if self.scale_bits > 30:
            raise ParameterError("limb primes must stay below 2**31")

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        return tuple(find_ntt_primes(self.num_limbs, self.scale_bits, 2 * self.n))

    @property
    def scale(self) -> float:
        """Default encoding scale: 2**scale_bits (limbs are primes near it)."""
        return float(1 << self.scale_bits)

    @property
    def slots(self) -> int:
        return self.n // 2


#: Small CKKS preset for tests and the Fig. 1 study.
CKKS_SMALL = CkksParams("ckks-small", n=256, scale_bits=30, num_limbs=8)
CKKS_TINY = CkksParams("ckks-tiny", n=64, scale_bits=28, num_limbs=4)


def gadget_decompose(poly: RnsPoly, base_bits: int, num_digits: int) -> list[RnsPoly]:
    """Base-2^w digit polynomials of the exact CRT lift: non-negative, < 2^w,
    sum_j digit_j * 2^(w*j) = coeff (mod Q). The baseline's own gadget."""
    coeffs = from_rns_object(poly.data, poly.moduli)
    parts = []
    for _ in range(num_digits):
        parts.append(RnsPoly.from_int_coeffs(coeffs & ((1 << base_bits) - 1), poly.moduli))
        coeffs = coeffs >> base_bits
    if np.any(coeffs != 0):
        raise ParameterError("gadget decomposition ran out of digits")
    return parts


@lru_cache(maxsize=None)
def _embedding_points(n: int) -> np.ndarray:
    """One evaluation point per conjugate pair: zeta^(2j+1), zeta=e^(i*pi/N)."""
    j = np.arange(n // 2)
    return np.exp(1j * np.pi * (2 * j + 1) / n)


def encode(values: np.ndarray, params: CkksParams, scale: float, level: int) -> RnsPoly:
    """Canonical-embedding encode of N/2 complex (or real) slot values."""
    z = np.asarray(values, dtype=np.complex128)
    if z.shape[0] > params.slots:
        raise ParameterError("too many slot values")
    if z.shape[0] < params.slots:
        z = np.concatenate([z, np.zeros(params.slots - z.shape[0])])
    pts = _embedding_points(params.n)
    k = np.arange(params.n)
    # coeffs_k = (2/N) * Re( sum_j conj(pts_j^k) * z_j ), the inverse of the
    # unitary-up-to-N evaluation map restricted to real polynomials.
    powers = pts[:, None] ** k[None, :]
    coeffs = (2.0 / params.n) * np.real(np.conj(powers).T @ z)
    scaled = np.rint(coeffs * scale).astype(object)
    return RnsPoly.from_int_coeffs([int(v) for v in scaled], params.moduli[: level + 1])


def decode(poly: RnsPoly, params: CkksParams, scale: float) -> np.ndarray:
    """Evaluate the (centered) polynomial at the embedding points / scale."""
    coeffs = np.array(poly.to_int_coeffs(centered=True), dtype=np.float64)
    pts = _embedding_points(params.n)
    k = np.arange(params.n)
    powers = pts[:, None] ** k[None, :]
    return (powers @ coeffs) / scale


@dataclass
class CkksCiphertext:
    c0: RnsPoly
    c1: RnsPoly
    scale: float
    level: int  # index of the highest active limb

    @property
    def moduli(self) -> tuple[int, ...]:
        return self.c0.moduli


class CkksContext:
    """Keygen and homomorphic evaluation for CKKS."""

    def __init__(self, params: CkksParams, seed: int | None = None):
        self.params = params
        self.sampler = Sampler(seed, sigma=params.sigma)

    # -- keys ---------------------------------------------------------------

    def keygen(self):
        p = self.params
        s = self.sampler.ternary(p.n)
        sk = RnsPoly.from_int_coeffs(s, p.moduli)
        a = self._uniform(p.moduli)
        e = RnsPoly.from_int_coeffs(self.sampler.gaussian(p.n), p.moduli)
        pk = (-(a * sk) + e, a)
        return sk, pk

    def relin_key(self, sk: RnsPoly):
        """Gadget KSK for s^2 -> s over the full modulus chain."""
        p = self.params
        target = sk * sk
        w = p.decomp_bits
        q = 1
        for m in p.moduli:
            q *= m
        digits = -(-q.bit_length() // w)
        k0, k1 = [], []
        power = 1
        for _ in range(digits):
            a = self._uniform(p.moduli)
            e = RnsPoly.from_int_coeffs(self.sampler.gaussian(p.n), p.moduli)
            k0.append(-(a * sk) + e + target.scalar_mul(power))
            k1.append(a)
            power <<= w
        return (k0, k1, w)

    def _uniform(self, moduli) -> RnsPoly:
        data = np.empty((len(moduli), self.params.n), dtype=np.int64)
        for i, m in enumerate(moduli):
            data[i] = self.sampler.uniform(m, self.params.n)
        return RnsPoly(data, tuple(moduli))

    # -- encryption -----------------------------------------------------------

    def encrypt(self, values: np.ndarray, pk, scale: float | None = None) -> CkksCiphertext:
        p = self.params
        scale = scale if scale is not None else p.scale
        level = p.num_limbs - 1
        pt = encode(values, p, scale, level)
        u = RnsPoly.from_int_coeffs(self.sampler.ternary(p.n), p.moduli)
        e0 = RnsPoly.from_int_coeffs(self.sampler.gaussian(p.n), p.moduli)
        e1 = RnsPoly.from_int_coeffs(self.sampler.gaussian(p.n), p.moduli)
        c0 = pk[0] * u + e0 + self._lift(pt, p.moduli)
        c1 = pk[1] * u + e1
        return CkksCiphertext(c0, c1, scale, level)

    def _lift(self, poly: RnsPoly, moduli) -> RnsPoly:
        """Re-express a lower-level poly at a (possibly longer) chain."""
        if poly.moduli == tuple(moduli):
            return poly
        return RnsPoly.from_int_coeffs(poly.to_int_coeffs(centered=True), tuple(moduli))

    def decrypt(self, ct: CkksCiphertext, sk: RnsPoly) -> np.ndarray:
        sk_level = self._truncate(sk, ct.level)
        phase = ct.c0 + ct.c1 * sk_level
        return decode(phase, self.params, ct.scale)[: self.params.slots]

    # -- ops ----------------------------------------------------------------

    def add(self, a: CkksCiphertext, b: CkksCiphertext) -> CkksCiphertext:
        self._align_check(a, b)
        return CkksCiphertext(a.c0 + b.c0, a.c1 + b.c1, a.scale, a.level)

    def sub(self, a: CkksCiphertext, b: CkksCiphertext) -> CkksCiphertext:
        self._align_check(a, b)
        return CkksCiphertext(a.c0 - b.c0, a.c1 - b.c1, a.scale, a.level)

    def add_plain(self, ct: CkksCiphertext, values: np.ndarray) -> CkksCiphertext:
        pt = encode(values, self.params, ct.scale, ct.level)
        return CkksCiphertext(ct.c0 + pt, ct.c1, ct.scale, ct.level)

    def mult_plain(self, ct: CkksCiphertext, values: np.ndarray, scale: float | None = None) -> CkksCiphertext:
        scale = scale if scale is not None else self.params.scale
        pt = encode(values, self.params, scale, ct.level)
        return CkksCiphertext(ct.c0 * pt, ct.c1 * pt, ct.scale * scale, ct.level)

    def mult(self, a: CkksCiphertext, b: CkksCiphertext, rlk) -> CkksCiphertext:
        """Tensor product + relinearization; result scale is the product."""
        self._align_check(a, b, same_scale=False)
        moduli = a.moduli
        a0 = a.c0.to_int_coeffs()
        a1 = a.c1.to_int_coeffs()
        b0 = b.c0.to_int_coeffs()
        b1 = b.c1.to_int_coeffs()
        e0 = RnsPoly.from_int_coeffs(negacyclic_mul_exact(a0, b0), moduli)
        e1 = RnsPoly.from_int_coeffs(
            [x + y for x, y in zip(negacyclic_mul_exact(a0, b1), negacyclic_mul_exact(a1, b0))],
            moduli,
        )
        e2 = RnsPoly.from_int_coeffs(negacyclic_mul_exact(a1, b1), moduli)
        d0, d1 = self._keyswitch(e2, rlk, a.level)
        return CkksCiphertext(e0 + d0, e1 + d1, a.scale * b.scale, a.level)

    def square(self, ct: CkksCiphertext, rlk) -> CkksCiphertext:
        return self.mult(ct, ct, rlk)

    def _keyswitch(self, component: RnsPoly, rlk, level: int):
        k0_full, k1_full, w = rlk
        q = 1
        for m in component.moduli:
            q *= m
        digits = -(-q.bit_length() // w)
        parts = gadget_decompose(component, w, digits)
        out0 = RnsPoly.zeros(component.n, component.moduli)
        out1 = RnsPoly.zeros(component.n, component.moduli)
        for d, key0, key1 in zip(parts, k0_full[:digits], k1_full[:digits]):
            out0 = out0 + d * self._truncate_poly(key0, level)
            out1 = out1 + d * self._truncate_poly(key1, level)
        return out0, out1

    def rescale(self, ct: CkksCiphertext) -> CkksCiphertext:
        """Drop the top limb, dividing the scale by that prime."""
        if ct.level == 0:
            raise NoiseBudgetExhausted("CKKS modulus chain exhausted")
        p_last = ct.moduli[-1]
        return CkksCiphertext(
            self._drop_limb(ct.c0),
            self._drop_limb(ct.c1),
            ct.scale / p_last,
            ct.level - 1,
        )

    def _drop_limb(self, poly: RnsPoly) -> RnsPoly:
        moduli = poly.moduli
        p_last = moduli[-1]
        last = poly.data[-1]
        out = np.empty((len(moduli) - 1, poly.n), dtype=np.int64)
        for i, m in enumerate(moduli[:-1]):
            inv = inv_mod(p_last, m)
            out[i] = (poly.data[i] - last) % m * inv % m
        return RnsPoly(out, moduli[:-1])

    def _truncate(self, sk: RnsPoly, level: int) -> RnsPoly:
        return RnsPoly(sk.data[: level + 1].copy(), sk.moduli[: level + 1])

    def _truncate_poly(self, poly: RnsPoly, level: int) -> RnsPoly:
        return RnsPoly(poly.data[: level + 1].copy(), poly.moduli[: level + 1])

    def _align_check(self, a: CkksCiphertext, b: CkksCiphertext, same_scale: bool = True) -> None:
        if a.level != b.level:
            raise ParameterError("ciphertexts at different levels")
        if same_scale and not math.isclose(a.scale, b.scale, rel_tol=1e-9):
            raise ParameterError("ciphertexts with different scales")
