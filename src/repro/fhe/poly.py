"""Ring elements of Z_Q[X]/(X^N + 1) in RNS form.

:class:`RnsPoly` is the basic algebraic object underneath BFV ciphertexts and
keys: an (L, N) int64 residue matrix plus its modulus chain. Elements are
kept in the coefficient domain; multiplications run a negacyclic NTT
internally. Galois automorphisms x -> x^k are implemented as signed
index permutations of the coefficient vector.

Every op dispatches through the context-active
:class:`repro.fhe.backend.Backend` (see that module for the reference and
batched engines, the counting recorder, and the selection rules). Both
engines honor the same dtype-overflow contract (limb primes < 2**31, so
products and butterfly sums stay inside int64) and are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ParameterError
from repro.fhe import rns
from repro.fhe.backend import automorphism_map, current_backend
from repro.fhe.ntt import negacyclic_mul_exact

__all__ = [
    "RnsPoly",
    "automorphism_map",
]


@dataclass(eq=False)
class RnsPoly:
    """Element of Z_Q[X]/(X^N + 1), residues stored per RNS limb. Compare
    two by their ``data``: ``==`` is identity."""

    data: np.ndarray  # shape (L, N), int64, reduced per limb
    moduli: tuple[int, ...]

    # --- constructors ---------------------------------------------------

    @classmethod
    def from_int_coeffs(
        cls, coeffs: Sequence[int] | np.ndarray, moduli: tuple[int, ...]
    ) -> "RnsPoly":
        """Build from (possibly big / negative) integer coefficients."""
        return cls(rns.to_rns(coeffs, moduli), moduli)

    # --- basic properties ------------------------------------------------

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def _check(self, other: "RnsPoly") -> None:
        if self.moduli != other.moduli or self.n != other.n:
            raise ParameterError("ring mismatch between operands")

    # --- arithmetic -------------------------------------------------------

    def __add__(self, other: "RnsPoly") -> "RnsPoly":
        self._check(other)
        be = current_backend()
        return RnsPoly(be.add(self.data, other.data, self.moduli), self.moduli)

    def __sub__(self, other: "RnsPoly") -> "RnsPoly":
        self._check(other)
        be = current_backend()
        return RnsPoly(be.sub(self.data, other.data, self.moduli), self.moduli)

    def __neg__(self) -> "RnsPoly":
        return RnsPoly(current_backend().neg(self.data, self.moduli), self.moduli)

    def __mul__(self, other: "RnsPoly") -> "RnsPoly":
        """Negacyclic product via the (batched) NTT."""
        self._check(other)
        be = current_backend()
        return RnsPoly(be.mul(self.data, other.data, self.moduli), self.moduli)

    def scalar_mul(self, value: int) -> "RnsPoly":
        be = current_backend()
        return RnsPoly(be.scalar_mul(self.data, value, self.moduli), self.moduli)

    def ntt_form(self) -> np.ndarray:
        """Forward-NTT residues (L, N), for reuse across many products.

        A plan-held operand (a kernel plaintext) is transformed
        once at compile time; :meth:`mul_ntt` then skips that operand's
        forward butterfly pass on every request. Both backends produce the
        identical array, so a cached form is valid under either.
        """
        out = current_backend().ntt(self.data, self.moduli)
        out.setflags(write=False)
        return out

    def mul_ntt(self, other_ntt: np.ndarray) -> "RnsPoly":
        """Negacyclic product against a precomputed :meth:`ntt_form` operand.

        Bit-identical to ``self * other``: the same forward/pointwise/inverse
        pipeline, with the second forward transform amortized away.
        """
        be = current_backend()
        return RnsPoly(be.mul_ntt(self.data, other_ntt, self.moduli), self.moduli)

    def mul_exact_then_reduce(self, other: "RnsPoly") -> "RnsPoly":
        """Exact big-int negacyclic product, then reduction per limb.

        Reference path used in tests to validate the NTT product.
        """
        self._check(other)
        a = rns.from_rns_centered(self.data, self.moduli)
        b = rns.from_rns_centered(other.data, self.moduli)
        prod = negacyclic_mul_exact(a, b)
        return RnsPoly.from_int_coeffs(prod, self.moduli)

    # --- structure --------------------------------------------------------

    def automorphism(self, k: int) -> "RnsPoly":
        """Apply the Galois map X -> X^k."""
        be = current_backend()
        return RnsPoly(be.automorphism(self.data, k, self.moduli), self.moduli)

    def negacyclic_shift(self, shift: int) -> "RnsPoly":
        """Multiply by X^shift (shift may be negative)."""
        return RnsPoly(current_backend().shift(self.data, shift, self.moduli), self.moduli)

    # --- conversions --------------------------------------------------------

    def to_int_coeffs(self, centered: bool = True) -> list[int]:
        """CRT-lift to exact integer coefficients."""
        if centered:
            return rns.from_rns_centered(self.data, self.moduli)
        return rns.from_rns(self.data, self.moduli)

    def mod_switch(self, new_modulus: int) -> np.ndarray:
        """Scale-and-round coefficients from Q to ``new_modulus``.

        Returns a plain int64 vector (the target modulus is word-sized in
        every use: the LWE modulus q' or the plaintext modulus t).
        """
        return current_backend().mod_switch(self.data, self.moduli, new_modulus)
