"""Evaluation-key inventory and sizing for an Athena deployment.

The paper's Table 1 lists 720 MB of "rot+relin" key material. This module
derives the concrete inventory our pipeline needs — which Galois elements
the packing and S2C mat-vecs use, the relinearization key, and the LWE
keyswitch key — and sizes it as the keys the code generates (one digit per
limb of Q over Q u {P}, :meth:`FheParams.keyswitch_key_bytes`), with and
without seed compression (PRNG regeneration of the uniform halves).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fhe import slots as slotlib
from repro.fhe.params import ATHENA, FheParams
from repro.fhe.slots import baby_giant_amounts


@dataclass(frozen=True)
class KeyInventory:
    params: FheParams
    rotation_amounts: tuple[int, ...]
    galois_elements: tuple[int, ...]

    @property
    def num_galois_keys(self) -> int:
        return len(self.galois_elements)

    def galois_key_bytes(self, seed_compressed: bool = True) -> int:
        size = self.params.keyswitch_key_bytes()
        # The uniform half regenerates from a seed.
        return size // 2 if seed_compressed else size

    def relin_key_bytes(self, seed_compressed: bool = True) -> int:
        return self.galois_key_bytes(seed_compressed)

    def lwe_ksk_bytes(self, seed_compressed: bool = True) -> int:
        p = self.params
        digits = -(-p.lwe_q.bit_length() // 7)
        if seed_compressed:
            # the alpha vectors regenerate from a PRNG seed; only betas ship
            return p.n * digits * 4
        return p.n * digits * (p.lwe_n + 1) * 4

    def total_bytes(self, seed_compressed: bool = True) -> int:
        return (
            self.num_galois_keys * self.galois_key_bytes(seed_compressed)
            + self.relin_key_bytes(seed_compressed)
            + self.lwe_ksk_bytes(seed_compressed)
        )


def build_inventory(params: FheParams = ATHENA) -> KeyInventory:
    """Collect every Galois element the five-step loop can request."""
    half = params.n // 2
    amounts: set[int] = set()
    # Packing mat-vec: BSGS over the (replicated) LWE dimension.
    amounts |= baby_giant_amounts(min(params.lwe_n, half))
    # S2C passes: BSGS over the full row length.
    amounts |= baby_giant_amounts(half)
    elements = {
        slotlib.rotation_galois_element(params.n, a) for a in amounts if a % (half) != 0
    }
    elements.add(slotlib.row_swap_element(params.n))
    return KeyInventory(params, tuple(sorted(amounts)), tuple(sorted(elements)))


def summarize(params: FheParams = ATHENA, dnum: int = 3) -> dict[str, float]:
    """Key sizing under hybrid keyswitching with ``dnum`` grouped digits (the
    accelerator-style configuration; the executed keys have one digit per
    limb, ``dnum`` = L) — the regime in which the paper's ~720 MB figure
    lives."""
    inv = build_inventory(params)
    per_key = dnum * 2 * params.n * params.q.bit_length() // 8 // 2  # seeded
    total = (inv.num_galois_keys + 1) * per_key + inv.lwe_ksk_bytes()
    return {
        "galois_keys": inv.num_galois_keys,
        "per_key_mb": per_key / 2**20,
        "lwe_ksk_mb": inv.lwe_ksk_bytes() / 2**20,
        "total_mb": total / 2**20,
    }


def athena_key_material_bytes(params: FheParams = ATHENA) -> int:
    """Headline key-material figure used in the Table 1 reproduction."""
    return int(summarize(params)["total_mb"] * 2**20)
