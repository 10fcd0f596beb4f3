"""LWE -> RLWE packing via homomorphic decryption (paper §3.2.2, Step 4).

Given up to N LWE ciphertexts (a_i, b_i) at modulus t under the small secret
s', the packed BFV ciphertext must carry slot values

    y_i = b_i + <a_i, s'>  (mod t)  =  m_i + e_i.

The a-matrix and b-vector are *plaintext* (they are ciphertext material of
the LWE layer, public by definition), while s' is encrypted slot-wise in the
**packing key**. The computation is therefore a plaintext-matrix x
encrypted-vector product, evaluated with the Halevi-Shoup diagonal method:
``sum_d diag_d * rot_d(s')``.

The slot hypercube is 2 x (N/2); row rotations act on both rows in parallel,
so one mat-vec pass computes N outputs at once: the top row of diagonals is
drawn from rows 0..N/2-1 of A and the bottom row from rows N/2..N-1, with
the packing key holding s' (zero-padded to N/2) replicated in both rows.

Only the diagonals depend on the request. The rotations ``rot_d(s')`` are
key material: :meth:`PackingKey.rotated_secrets` derives all N/2 of them
once, with two hoisted Baby-Step Giant-Step levels (O(sqrt(N)) digit
transforms), and a request multiplies its diagonals against that stack
— no rotation, no keyswitch.

The mat-vec itself is one fused backend op (:meth:`Backend.matvec`) fed by a
:class:`MatvecPlan` and a set of *sources* — images of one ciphertext under
Galois elements. This module builds the plan — per request for packing,
whose matrix is the request's and whose sources are the cached stack; once
per parameter set for S2C, whose sources the op derives from the request's
ciphertext — and folds the noise estimate; the engines own the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.fhe import slots as slotlib
from repro.fhe.backend import (
    GIANT_BATCH_ELEMS,
    current_backend,
    hoisted_rotations,
    warm_automorphism,
)
from repro.fhe.bfv import BfvCiphertext, BfvContext, Plaintext, galois_noise_growth
from repro.fhe.keys import KeySwitchKey, PublicKey, SecretKey
from repro.fhe.lwe import LweBatch
from repro.fhe.ntt import ntt_forward_rns, ntt_inverse_rns
from repro.fhe.poly import RnsPoly
from repro.fhe.rns import to_rns
from repro.utils.modmath import centered_array


@dataclass
class PackingKey:
    """Encrypted LWE secret plus the Galois keys that rotate it — once, to
    build :meth:`rotated_secrets` (and, shared with S2C, on every request)."""

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

    def rotated_secrets(self) -> tuple[np.ndarray, list[float]]:
        """Cached (N/2, 2, L, N) evaluation-domain stack of
        ``rot_d(encrypted_secret)``, every d, and each row's noise estimate.

        Packing's sources: the only request-dependent operand of its
        mat-vec is the diagonal stack, so the rotations are paid once per
        key lifetime. Derived from the BSGS Galois keys as
        ``rot_{g*bs + r} = rot_r(rot_{g*bs})`` with both levels hoisted:
        the babies and giants of the secret on one digit transform, then
        each giant's babies on one digit transform of that giant — 1 + (gs
        - 1) of them, two keyswitch noise terms at most per row.
        (N/2) ciphertexts of memory. Like
        :meth:`KeySwitchKey.ntt_stack`: compile-time work outside backend
        dispatch, deterministic, so a benign compute-twice race needs no
        lock.
        """
        cached = getattr(self, "_rotated_cache", None)
        if cached is None:
            enc = self.encrypted_secret
            params, moduli = enc.params, enc.params.moduli
            n, half, bs = params.n, params.n // 2, self.baby_steps
            stack = np.empty((half, 2, len(moduli), n), dtype=np.int64)
            noise = [enc.noise_bits] * half

            def images(parent: int, c1: np.ndarray, amounts: list[int]) -> None:
                elements = [slotlib.rotation_galois_element(n, a) for a in amounts]
                rotated = hoisted_rotations(
                    stack[parent, 0], c1, elements, self.rotation_keys, moduli)
                for a, image in zip(amounts, rotated):
                    stack[parent + a] = image
                    noise[parent + a] = noise[parent] + galois_noise_growth(n)

            stack[0] = ntt_forward_rns(np.stack([enc.c0.data, enc.c1.data]), moduli)
            babies = list(range(1, bs))
            giants = list(range(bs, half, bs))
            images(0, enc.c1.data, babies + giants)
            for g in giants:
                images(g, ntt_inverse_rns(stack[g, 1], moduli),
                       [r for r in babies if g + r < half])
            stack.setflags(write=False)
            cached = self._rotated_cache = (stack, noise)
        return cached


def hypercube_diagonals(top: np.ndarray, bot: np.ndarray, half: int) -> np.ndarray:
    """All M diagonals of the 2-row block mat-vec, shape (M, N).

    diag_d slot i (top row) = top[i, (i+d) mod M]; bottom analogous.
    Matrices smaller than (M, M) are zero-padded.
    """

    top, bot = (
        np.pad(m, ((0, half - m.shape[0]), (0, half - m.shape[1]))) for m in (top, bot)
    )
    i = np.arange(half)
    cols = (i + i[:, None]) % half  # cols[d, i] = (i + d) mod M
    return np.concatenate([top[i, cols], bot[i, cols]], axis=1, dtype=np.int64)


@dataclass(frozen=True)
class MatvecPlan:
    """One BSGS Halevi-Shoup mat-vec in the form :meth:`Backend.matvec` eats:
    ``sum_g rot_{g*bs}( sum_j diag_{g,j} * src_j )``.

    Which sources are live, which diagonals are nonzero, each one's
    giant-step roll, slot encoding and forward transform depend on the
    matrix alone: compile-time work for a fixed matrix (S2C), per-request
    work for packing — which is why :meth:`build` does it in one pass.

    A source is an image of the one input ciphertext v, numbered ``p * bs +
    r``: ``rot_r(v)`` in pass p = 0, ``rot_r(swap(v))`` in pass p = 1 (the
    other hypercube row, S2C only). One pass with ``bs = N/2`` has no
    giant step at all: source d is ``rot_d(v)`` and the plan is the plain
    diagonal sum — packing, whose sources come ready.
    """

    baby_steps: int
    #: How an op handed only v derives the live sources: per parent source,
    #: in dependency order, the (source id, Galois element) images it has.
    derived: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    #: Per non-empty giant group: (g, source id of each live diagonal, the
    #: (T_g, L, N) read-only evaluation-domain stack of those diagonals,
    #: each centred mod t and rolled right by g * baby_steps — the
    #: plaintext-side correction for the giant rotation). Both passes'
    #: diagonals of one g share the group: it is summed once, rotated once.
    groups: tuple[tuple[int, tuple[int, ...], np.ndarray], ...]

    @classmethod
    def build(
        cls, diagonals: np.ndarray, params, baby_steps: int
    ) -> "MatvecPlan":
        """``diagonals`` is one pass, (N/2, N), or both, (2, N/2, N)."""
        n, moduli = params.n, params.moduli
        half = n // 2
        if diagonals.shape not in ((half, n), (2, half, n)):
            raise ParameterError("diagonal matrix has wrong shape")
        be = current_backend()
        diagonals = diagonals.reshape(-1, n)
        live = np.flatnonzero(diagonals.any(axis=1))
        pass_, d = np.divmod(live, half)
        giant, baby = np.divmod(d, baby_steps)
        # Groups are contiguous runs: by g, then pass, then baby.
        order = np.argsort(giant, kind="stable")
        live, giant = live[order], giant[order]
        source = (pass_ * baby_steps + baby)[order]
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
        bounds = np.flatnonzero(np.diff(giant, prepend=-1, append=-1))
        groups = tuple(
            (int(giant[lo]), tuple(source[lo:hi].tolist()), stack[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        )
        ids = sorted(set(source.tolist()))
        direct = [(s, slotlib.rotation_galois_element(n, s))
                  for s in ids if 0 < s < baby_steps]
        crossed = [(s, slotlib.rotation_galois_element(n, s - baby_steps))
                   for s in ids if s > baby_steps]
        if ids and ids[-1] >= baby_steps:  # the swap rides on v's digits
            direct.append((baby_steps, slotlib.row_swap_element(n)))
        derived = ((0, tuple(direct)), (baby_steps, tuple(crossed)))
        return cls(baby_steps, tuple(d for d in derived if d[1]), groups)

    def warm_automorphisms(self, params) -> None:
        """Precompute the index tables every rotation will use (baby and
        giant steps, the row swap).

        The batched mat-vec gathers by the evaluation-domain permutation,
        the reference permutes coefficients; building both tables here
        moves that one-time cost into compile time, so warm serve runs pay
        none of it under either engine.
        """
        elements = {k for _, images in self.derived for _, k in images}
        elements |= {slotlib.rotation_galois_element(params.n, g * self.baby_steps)
                     for g, _, _ in self.groups if g}
        for k in elements:
            warm_automorphism(params.n, k)


def _fused_matvec(ctx, vec, noise, plan, rotation_keys) -> BfvCiphertext:
    """Dispatch one :meth:`Backend.matvec` and attach its noise estimate.

    ``noise[s]`` is source s's estimate; the rest depends on the plan's
    shape only: the fold the op sequence *PMult -> HAdd chain -> rotate ->
    HAdd chain* performs (Table 4 rules).
    """
    params = ctx.params
    be = current_backend()
    be.record("matvec")
    if not plan.groups:  # all-zero matrix: the transparent zero
        return ctx.encrypt_zero()
    moduli = params.moduli
    c0, c1 = be.matvec(vec, plan, rotation_keys, moduli)
    parts = []
    for g, ids, _ in plan.groups:
        inner = ctx.hadd_noise([ctx.pmult_noise(noise[s]) for s in ids])
        parts.append(ctx.galois_noise(inner) if g else inner)
    return BfvCiphertext(
        RnsPoly(c0, moduli), RnsPoly(c1, moduli), params, ctx.hadd_noise(parts)
    )


def hypercube_matvec(
    ctx: BfvContext,
    ct: BfvCiphertext,
    plan: MatvecPlan,
    rotation_keys: dict[int, KeySwitchKey],
) -> BfvCiphertext:
    """BSGS Halevi-Shoup product of ``plan``'s matrix with ``ct``'s slots:
    per pass, slots(out)_i = sum_d diag[d][i] * v_{i+d}, the second pass
    reading the row-swapped v.

    The fused op derives every source from ``ct``; a source's estimate is
    one Galois step above its parent's (a crossed baby is
    ``galois(galois(ct))``).
    """
    noise = {0: ct.noise_bits}
    for parent, images in plan.derived:
        for s, _ in images:
            noise[s] = ctx.galois_noise(noise[parent])
    vec = np.stack([ct.c0.data, ct.c1.data])
    return _fused_matvec(ctx, vec, noise, plan, rotation_keys)


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
        # One group, no giant step: diagonal d meets the ready rot_d(s').
        plan = MatvecPlan.build(hypercube_diagonals(a_top, a_bot, half), params, half)
        sources, noise = packing_key.rotated_secrets()
        out = _fused_matvec(ctx, sources, noise, plan, {})
        b_slots = np.zeros(params.n, dtype=np.int64)
        b_slots[: min(batch.count, half)] = batch.b[: min(batch.count, half)]
        if batch.count > half:
            b_slots[half : half + batch.count - half] = batch.b[half:]
        return ctx.add_plain(out, Plaintext.from_slots(b_slots, params))
