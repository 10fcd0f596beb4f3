"""FHE parameter sets.

Athena's production parameters (paper §3.3): RLWE degree N = 2**15,
ciphertext modulus log2 Q = 720, plaintext modulus t = 65537, LWE degree
n = 2048, LWE modulus q = t — chosen so that t-1 = 2**16 is divisible by 2N,
which is what makes full slot packing possible.

The modulus Q is realized as a product of NTT-friendly primes, each < 2**31
so that coefficient arithmetic stays inside numpy int64. 24 limbs of ~30
bits give the paper's 720-bit Q.

Reduced parameter sets (`TEST_*`) keep every algebraic property (prime
plaintext modulus with 2N | t-1, multi-limb Q, LWE chain) at sizes where the
pure-Python real backend runs in milliseconds; they are what the test suite
and the runnable examples use. The full `ATHENA` set is used analytically
(sizes, noise budget, op traces, the simulated backend).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.errors import ParameterError
from repro.fhe.security import max_logq
from repro.utils.modmath import find_ntt_primes, is_prime


@dataclass(frozen=True)
class FheParams:
    """A complete Athena parameter set (RLWE + LWE chain).

    Attributes:
        name: Human-readable identifier.
        n: RLWE ring degree N (power of two).
        limb_bits: Bit width of each RNS limb prime (< 31).
        num_limbs: Number of limb primes; log2(Q) ~= limb_bits * num_limbs.
        t: Plaintext modulus (prime, t = 1 mod 2N for slot packing).
        lwe_n: LWE dimension n after dimension switching.

    The error width is one constant, :data:`repro.utils.sampling.SIGMA`.
    """

    name: str
    n: int
    limb_bits: int
    num_limbs: int
    t: int
    lwe_n: int

    def __post_init__(self) -> None:
        if self.n & (self.n - 1) or self.n < 8:
            raise ParameterError(f"ring degree must be a power of two >= 8, got {self.n}")
        if not is_prime(self.t):
            raise ParameterError(f"plaintext modulus must be prime, got {self.t}")
        if self.limb_bits > 30:
            raise ParameterError("limb primes must stay below 2**31")
        if self.num_limbs < 1:
            raise ParameterError(f"need at least one limb prime, got {self.num_limbs}")
        if self.lwe_n > self.n:
            raise ParameterError("LWE dimension cannot exceed ring degree")
        if self.lwe_n < 1 or self.lwe_n & (self.lwe_n - 1):
            raise ParameterError(
                f"LWE dimension must be a positive power of two, got {self.lwe_n}")

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        """RNS limb primes, each = 1 (mod 2N) and < 2**limb_bits."""
        return tuple(find_ntt_primes(self.num_limbs, self.limb_bits, 2 * self.n))

    @cached_property
    def q(self) -> int:
        """Full ciphertext modulus Q (product of limb primes)."""
        return math.prod(self.moduli)

    @cached_property
    def special_moduli(self) -> tuple[int, ...]:
        """The keyswitch's special basis P: the K largest 31-bit NTT primes for
        2N (above every sub-2**30 limb of Q; a prefix of the CMult tensor's
        auxiliary basis). K, a digit's width in limbs, is derived: the most
        that keep log2(QP) under the 128-bit ceiling, or L where Q alone is over."""
        spare = max_logq(self.n, 128) - self.q.bit_length()
        k = self.num_limbs if spare < 0 else min(self.num_limbs, max(1, int(spare // 31)))
        return tuple(find_ntt_primes(k, 31, 2 * self.n))

    @property
    def num_digits(self) -> int:
        """D = ceil(L / K), the digit keys of one keyswitch key."""
        return -(-self.num_limbs // len(self.special_moduli))

    @cached_property
    def keyswitch_moduli(self) -> tuple[int, ...]:
        """Q u P, the basis keyswitch keys live in (Q's limbs first)."""
        return self.moduli + self.special_moduli

    @cached_property
    def delta(self) -> int:
        """BFV plaintext scaling factor Delta = floor(Q / t)."""
        return self.q // self.t

    @property
    def lwe_q(self) -> int:
        """Intermediate LWE modulus used between extraction and the final
        switch down to t: the first (largest) RNS limb prime."""
        return self.moduli[0]

    # ----- sizing helpers (used by Table 1 / Table 8 reproductions) -----

    @property
    def ciphertext_bytes(self) -> int:
        """Size of one fresh BFV ciphertext: two ring elements at full Q."""
        return 2 * self.n * self.q.bit_length() // 8

    def keyswitch_key_bytes(self) -> int:
        """Size of one keyswitch (relin/galois) key: D digits, each two ring
        elements over Q u P."""
        bits = math.prod(self.keyswitch_moduli).bit_length()
        return self.num_digits * 2 * self.n * bits // 8

    def describe(self) -> str:
        return (
            f"{self.name}: N=2^{self.n.bit_length() - 1}, log2Q~{self.limb_bits * self.num_limbs}, "
            f"t={self.t}, n_lwe={self.lwe_n}, ct={self.ciphertext_bytes / 2**20:.2f} MiB"
        )


# --- presets -----------------------------------------------------------------

#: Paper parameters (§3.3): N=2^15, log2 Q = 720 (24 x 30-bit limbs),
#: t = 65537, n = 2048. Used analytically and by the simulated backend.
ATHENA = FheParams("athena", n=1 << 15, limb_bits=30, num_limbs=24, t=65537, lwe_n=2048)

#: Mid-size set for heavier real-backend integration tests.
ATHENA_MEDIUM = FheParams("athena-medium", n=1 << 12, limb_bits=30, num_limbs=6, t=65537, lwe_n=512)

#: Small set: full algebra (t=257 keeps 2N | t-1 up to N=128).
TEST_SMALL = FheParams("test-small", n=128, limb_bits=30, num_limbs=3, t=257, lwe_n=64)

#: Tiny set for exhaustive FBS / LUT tests.
TEST_TINY = FheParams("test-tiny", n=32, limb_bits=30, num_limbs=2, t=257, lwe_n=16)

#: Deep-modulus tiny set: enough budget for a full-degree FBS evaluation
#: (log2(t) CMult levels) on the real backend.
TEST_FBS = FheParams("test-fbs", n=32, limb_bits=30, num_limbs=8, t=257, lwe_n=16)

#: End-to-end loop set: room for one complete five-step Athena round
#: (conv + packing + full FBS + S2C) on the real backend.
TEST_LOOP = FheParams("test-loop", n=128, limb_bits=30, num_limbs=9, t=257, lwe_n=64)

PRESETS: dict[str, FheParams] = {
    p.name: p
    for p in (ATHENA, ATHENA_MEDIUM, TEST_SMALL, TEST_TINY, TEST_FBS, TEST_LOOP)
}


def get_params(name: str) -> FheParams:
    """Look up a preset parameter set by name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ParameterError(
            f"unknown parameter set {name!r}; available: {sorted(PRESETS)}"
        ) from None
