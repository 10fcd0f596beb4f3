"""LWE -> RLWE packing via homomorphic decryption (paper §3.2.2, Step 4).

Given up to N LWE ciphertexts (a_i, b_i) at modulus t under the small secret
s', the packed BFV ciphertext must carry slot values

    y_i = b_i + <a_i, s'>  (mod t)  =  m_i + e_i.

The a-matrix and b-vector are *plaintext* (they are ciphertext material of
the LWE layer, public by definition), while s' is encrypted slot-wise in the
**packing key**. The computation is therefore a plaintext-matrix x
encrypted-vector product, evaluated with the Halevi-Shoup diagonal method;
the Baby-Step Giant-Step variant brings the rotation count down to
O(sqrt(N)) as in the paper's complexity table.

The slot hypercube is 2 x (N/2); row rotations act on both rows in parallel,
so one mat-vec pass computes N outputs at once: the top row of diagonals is
drawn from rows 0..N/2-1 of A and the bottom row from rows N/2..N-1, with
the packing key holding s' (zero-padded to N/2) replicated in both rows.

The mat-vec itself is one fused backend op (:meth:`Backend.matvec`) fed by a
:class:`MatvecPlan`: this module builds the plan — per request for packing,
whose matrix is the request's, once per parameter set for S2C — and folds
the noise estimate; the engines own the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.fhe import slots as slotlib
from repro.fhe.backend import GIANT_BATCH_ELEMS, current_backend, warm_automorphism
from repro.fhe.bfv import BfvCiphertext, BfvContext, Plaintext
from repro.fhe.keys import KeySwitchKey, PublicKey, SecretKey
from repro.fhe.lwe import LweBatch
from repro.fhe.poly import RnsPoly
from repro.fhe.rns import to_rns
from repro.utils.modmath import centered_array


@dataclass
class PackingKey:
    """Encrypted LWE secret plus the Galois keys its mat-vec needs."""

    encrypted_secret: BfvCiphertext  # slots: s' padded to N/2, both rows
    rotation_keys: dict[int, KeySwitchKey]
    lwe_dim: int
    baby_steps: int

    @classmethod
    def generate(
        cls,
        ctx: BfvContext,
        lwe_secret: np.ndarray,
        sk: SecretKey,
        pk: PublicKey,
        baby_steps: int | None = None,
    ) -> "PackingKey":
        params = ctx.params
        half = params.n // 2
        n_lwe = lwe_secret.shape[0]
        if n_lwe > half:
            raise ParameterError("LWE dimension exceeds N/2 slots per row")
        row = np.zeros(half, dtype=np.int64)
        row[:n_lwe] = np.mod(lwe_secret, params.t)
        enc = ctx.encrypt(
            Plaintext.from_slots(np.concatenate([row, row]), params), pk
        )
        baby_steps = baby_steps or slotlib.default_baby_steps(half)
        keys = ctx.rotation_keys(sk, slotlib.baby_giant_amounts(half, baby_steps))
        return cls(enc, keys, n_lwe, baby_steps)


def hypercube_diagonals(top: np.ndarray, bot: np.ndarray, half: int) -> np.ndarray:
    """All M diagonals of the 2-row block mat-vec, shape (M, N).

    diag_d slot i (top row) = top[i, (i+d) mod M]; bottom analogous.
    Matrices smaller than (M, M) are zero-padded.
    """

    top, bot = (
        np.pad(m, ((0, half - m.shape[0]), (0, half - m.shape[1]))) for m in (top, bot)
    )
    i = np.arange(half)
    diags = np.empty((half, 2 * half), dtype=np.int64)
    for d in range(half):
        cols = (i + d) % half
        diags[d, :half] = top[i, cols]
        diags[d, half:] = bot[i, cols]
    return diags


@dataclass(frozen=True)
class MatvecPlan:
    """One BSGS Halevi-Shoup mat-vec in the form :meth:`Backend.matvec` eats.

    Which baby rotations are live, which diagonals are nonzero, each one's
    giant-step roll, slot encoding and forward transform depend on the
    matrix alone: compile-time work for a fixed matrix (S2C), per-request
    work for packing — which is why :meth:`build` does it in one pass.
    """

    baby_steps: int
    #: Baby rotation amounts that feed at least one nonzero diagonal.
    babies: tuple[int, ...]
    #: Per non-empty giant group: (g, baby index of each live diagonal, the
    #: (T_g, L, N) read-only evaluation-domain stack of those diagonals,
    #: each centred mod t and rolled right by g * baby_steps — the
    #: plaintext-side correction for the giant rotation).
    groups: tuple[tuple[int, tuple[int, ...], np.ndarray], ...]

    @classmethod
    def build(
        cls, diagonals: np.ndarray, params, baby_steps: int
    ) -> "MatvecPlan":
        n, moduli = params.n, params.moduli
        half = n // 2
        if diagonals.shape != (half, n):
            raise ParameterError("diagonal matrix has wrong shape")
        be = current_backend()
        live = np.flatnonzero(diagonals.any(axis=1))
        giant, baby = np.divmod(live, baby_steps)
        stack = np.empty((live.size, len(moduli), n), dtype=np.int64)
        column = np.arange(half)
        chunk = max(1, GIANT_BATCH_ELEMS // (len(moduli) * n))
        for lo in range(0, live.size, chunk):
            rows = live[lo : lo + chunk, None]
            cols = (column - giant[lo : lo + chunk, None] * baby_steps) % half
            rolled = np.concatenate(
                [diagonals[rows, cols], diagonals[rows, half + cols]], axis=1
            )
            coeffs = centered_array(slotlib.slot_encode(rolled, n, params.t), params.t)
            stack[lo : lo + chunk] = be.ntt(to_rns(coeffs, moduli), moduli)
        stack.setflags(write=False)
        # ``live`` ascends, so each group is one contiguous run of the stack.
        bounds = np.flatnonzero(np.diff(giant, prepend=-1, append=-1))
        groups = tuple(
            (int(giant[lo]), tuple(baby[lo:hi].tolist()), stack[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        )
        babies = tuple(sorted(set(baby[baby > 0].tolist())))
        return cls(baby_steps, babies, groups)

    def warm_automorphisms(self, params) -> "MatvecPlan":
        """Precompute the index tables every rotation will use.

        The batched mat-vec gathers by the evaluation-domain permutation,
        the reference permutes coefficients; building both tables here
        moves that one-time cost into compile time, so warm serve runs pay
        none of it under either engine.
        """
        amounts = set(self.babies)
        amounts |= {g * self.baby_steps for g, _, _ in self.groups if g}
        for amount in amounts:
            warm_automorphism(
                params.n, slotlib.rotation_galois_element(params.n, amount))
        return self


def hypercube_matvec(
    ctx: BfvContext,
    ct: BfvCiphertext,
    plan: MatvecPlan,
    rotation_keys: dict[int, KeySwitchKey],
) -> BfvCiphertext:
    """BSGS Halevi-Shoup product: slots(out)_i = sum_d diag[d][i] * v_{i+d}.

    Dispatches the component stacks through the active backend's fused
    :meth:`Backend.matvec` and attaches the analytic noise estimate, which
    depends on the plan's shape only: the fold the op sequence *rotate ->
    PMult -> HAdd chain -> rotate -> HAdd chain* performs (Table 4 rules).
    """
    params = ctx.params
    be = current_backend()
    be.record("matvec")
    if not plan.groups:  # all-zero matrix: the transparent zero
        return ctx.encrypt_zero()
    moduli = params.moduli
    c0, c1 = be.matvec(ct.c0.data, ct.c1.data, plan, rotation_keys, moduli)
    parts = []
    for g, idx, _ in plan.groups:
        inner = ctx.hadd_noise([
            ctx.pmult_noise(ctx.galois_noise(ct.noise_bits) if b else ct.noise_bits)
            for b in idx
        ])
        parts.append(ctx.galois_noise(inner) if g else inner)
    return BfvCiphertext(
        RnsPoly(c0, moduli), RnsPoly(c1, moduli), params, ctx.hadd_noise(parts)
    )


def pack_lwe(
    ctx: BfvContext, batch: LweBatch, packing_key: PackingKey
) -> BfvCiphertext:
    """Pack <= N LWE ciphertexts (modulus t) into one BFV ciphertext.

    Resulting slots: m_i + e_i in positions 0..count-1 (hypercube order:
    first N/2 in row 0, remainder in row 1), zeros elsewhere.
    """
    params = ctx.params
    if batch.modulus != params.t:
        raise ParameterError(
            f"LWE batch must be at modulus t={params.t}, got {batch.modulus}"
        )
    if batch.count > params.n:
        raise ParameterError("more LWE ciphertexts than slots")
    if batch.dim > params.n // 2:
        raise ParameterError("LWE dimension exceeds packing row capacity")
    be = current_backend()
    with be.phase("packing"):
        be.record("pack")
        half = params.n // 2
        a = centered_array(batch.a, params.t)
        a_top = a[: min(batch.count, half)]
        a_bot = (
            a[half:]
            if batch.count > half
            else np.zeros((0, batch.dim), dtype=np.int64)
        )
        plan = MatvecPlan.build(
            hypercube_diagonals(a_top, a_bot, half), params, packing_key.baby_steps
        )
        out = hypercube_matvec(
            ctx, packing_key.encrypted_secret, plan, packing_key.rotation_keys
        )
        b_slots = np.zeros(params.n, dtype=np.int64)
        b_slots[: min(batch.count, half)] = batch.b[: min(batch.count, half)]
        if batch.count > half:
            b_slots[half : half + batch.count - half] = batch.b[half:]
        return ctx.add_plain(out, Plaintext.from_slots(b_slots, params))
