"""Op-dispatch backends: one reference engine, one fast engine, one wrapper.

Every primitive the Athena loop executes — RNS NTT/INTT and limb
arithmetic, modulus switching, LWE sample extraction and dimension
switching, the packing / S2C matrix-vector product, FBS evaluation (baby
and giant halves), and the S2C transform — dispatches through the *active*
:class:`Backend`. Each protocol op has at most two bodies:

* the **reference** body, on :class:`Backend` itself: per-prime RNS loops
  and fused-tier ops decomposed to those primitives. Registered as
  ``serial`` (:class:`SerialBackend`); it is the oracle every other
  engine is pinned bit-identical to.
* the **fast** body, on :class:`BatchedBackend` (``batched``, the
  default): every RnsPoly op treats the (L, N) residue matrix as one
  stacked array (:func:`repro.fhe.ntt.ntt_forward_rns`), and the fused
  tier runs stacked kernels on cached NTT-domain key stacks with lazy
  reduction (:func:`lazy_reduce_sum`, bounded by :func:`lazy_chain_limit`).

Ops whose single body is engine-independent (:meth:`Backend.mod_switch`,
:meth:`Backend.cmult_batch`, the LWE and composite tiers — they delegate to
self methods or to module implementations whose inner ops re-enter the
active backend) are not overridden.

:class:`CountingBackend` (``counting``) is the only wrapper and the one
way to observe a run. It overrides only the RNS tier, counting each call
and delegating it to an inner engine; every op above that tier runs its
reference body, whose primitives reach those counters and whose
:meth:`Backend.record` events land in its records. So each count —
compatible with the analytical :class:`repro.core.trace.OpCounts` model,
and consumed by the accelerator scheduler as an *executed* trace — is a
primitive that ran, and the per-phase self-seconds (the Fig. 9 execution
breakdown) time that same stream.

Selection is **context-local** (:class:`contextvars.ContextVar`), not a
module global: two threads — or two :class:`repro.serve.InferenceSession`
requests — may run different backends concurrently without interfering.
The process-wide default honors the ``REPRO_BACKEND`` environment variable
(``batched`` | ``serial``), which is how CI runs the whole tier-1 suite
under the serial reference.

Bit-identity contract: both engines hand back the canonical residue in
[0, p) of the same integer — the stacked NTT computes it as exact float64
matrix products (:func:`repro.fhe.ntt.ntt_bounds`), the per-prime loops with
``%`` — so every
primitive's output is bit-for-bit identical across backends. The fused tier
keeps it because the NTT is linear mod p. ``tests/test_ntt.py``,
``tests/test_backend.py``, ``tests/test_rns_batched.py`` and
``tests/test_fused_kernels.py`` pin this per transform, at the RnsPoly
level, per fused op, and end-to-end through the five-step pipeline.

Fused tier: :meth:`Backend.hadd_many` (one deferred reduction across an
HAdd chain), :meth:`Backend.keyswitch` (hybrid keyswitch of one
component: its digits extended into Q u P, multiplied against the key and
divided by the special basis P),
:meth:`Backend.rotate_keyswitch` (the one rotation: take the digits, then
X -> X^k on them), :meth:`Backend.matvec` (a whole BSGS mat-vec over a set
of sources — derived from the request's ciphertext for S2C, ready key
material for packing; on the batched engine it never leaves the
evaluation domain), :meth:`Backend.giant_step_batch` (the giant-step
combination of one FBS as one inner-product CMult: G products summed in
the evaluation domain of Q u P, one scale-round, one keyswitch),
:meth:`Backend.cmult_batch` (one FBS ladder level, its independent CMults
stacked) and :meth:`Backend.lincomb` (the FBS baby steps as one matrix
product). Reference and fast bodies are both
*dispatch-free* — they call ``self`` methods and module-level transforms,
never :func:`current_backend` — so on :class:`CountingBackend` a reference
body's primitives are counted once, by the wrapper's RNS tier.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
import threading
import time
from functools import lru_cache

import numpy as np

from repro.errors import ParameterError
from repro.fhe import rns
from repro.fhe.ntt import (
    _bit_reverse_indices,
    ntt_forward,
    ntt_forward_rns,
    ntt_inverse,
    ntt_inverse_rns,
    ntt_mul,
    ntt_mul_rns,
)
from repro.fhe.slots import rotation_galois_element
from repro.utils.modmath import inv_mod

__all__ = [
    "Backend",
    "BatchedBackend",
    "CountingBackend",
    "SerialBackend",
    "current_backend",
    "default_backend",
    "get_backend",
    "lazy_chain_limit",
    "lazy_reduce_sum",
    "use_backend",
]


#: Soft element budget for one stacked chunk — (G', 2, 2, L+K, N) giant-step
#: products, (T, 2, L, N) mat-vec products, the (T, L, N) diagonals of a
#: plan build —
#: ~128 MiB of int64; keeps large-parameter batches out of swap without
#: changing results.
GIANT_BATCH_ELEMS = 1 << 24

#: :meth:`Backend.mod_switch`'s auxiliary prime: never an NTT prime for a ring
#: (2**31 - 2 has a single factor 2), so never a limb of Q.
ROUND_PRIME = 2**31 - 1

#: Cap on the (B, D, L+K, N) digit stack of one :meth:`Backend.cmult_batch`
#: chunk: a whole t = 257 ladder level at n = 32 and n = 128, one CMult
#: from n = 4096 up (EXPERIMENTS.md has the sweep).
CMULT_BATCH_ELEMS = 1 << 16


def lazy_chain_limit(moduli: tuple[int, ...]) -> int:
    """Max number of reduced residues that may be summed lazily in int64.

    Every reduced residue is <= max(moduli) - 1, so a chain of k deferred
    additions peaks at k * (max_p - 1); the accumulator stays below
    2**63 - 1 as long as k <= this bound. For 31-bit limb primes the bound
    is ~2**32 — far above any HAdd chain or keyswitch digit count in the zoo
    models (the hypothesis suite in ``tests/test_fused_kernels.py`` pins
    this across all presets).
    """
    return (2**63 - 1) // (max(moduli) - 1)


def lazy_reduce_sum(stack: np.ndarray, moduli: tuple[int, ...], axis: int = 0) -> np.ndarray:
    """Sum already-reduced residue stacks along ``axis``, reducing once.

    The fused-kernel primitive behind :meth:`Backend.hadd_many` and the
    NTT-domain keyswitch accumulators: instead of reducing mod p after
    every addition, defer the reduction across the whole chain and apply
    one ``%`` at the end. Inputs must already be reduced (< max(moduli));
    chains longer than :func:`lazy_chain_limit` are folded in
    overflow-safe chunks. The limb axis of the *result* must be -2 so the
    (L, 1) modulus column broadcasts.
    """
    mods = _moduli_column(moduli)
    k = stack.shape[axis]
    limit = lazy_chain_limit(moduli)
    if k <= limit:
        return np.add.reduce(stack, axis=axis) % mods
    acc = None
    for start in range(0, k, limit):
        index = [slice(None)] * stack.ndim
        index[axis] = slice(start, start + limit)
        part = np.add.reduce(stack[tuple(index)], axis=axis) % mods
        acc = part if acc is None else (acc + part) % mods
    return acc


@lru_cache(maxsize=None)
def automorphism_map(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Destination indices and signs for the map X -> X^k on degree-N rings.

    Coefficient j of the input lands at index (j*k mod 2N); indices >= N wrap
    negacyclically: X^(N+r) = -X^r. ``k`` must be odd so the map is a ring
    automorphism.
    """
    if k % 2 == 0:
        raise ParameterError(f"Galois element must be odd, got {k}")
    j = np.arange(n, dtype=np.int64)
    dest = (j * (k % (2 * n))) % (2 * n)
    sign = np.where(dest >= n, -1, 1).astype(np.int64)
    dest = np.where(dest >= n, dest - n, dest)
    return dest, sign


@lru_cache(maxsize=None)
def ntt_automorphism_perm(n: int, k: int) -> np.ndarray:
    """X -> X^k in the evaluation domain: a gather, no signs, any limb.

    Output index i of :func:`repro.fhe.ntt.ntt_forward_rns` holds the
    evaluation at psi^(2*brv(i) + 1), which X -> X^k takes from the point
    psi^((2*brv(i) + 1) * k): ``ntt(automorphism(a, k)) == ntt(a)[..., perm]``.
    """
    if k % 2 == 0:
        raise ParameterError(f"Galois element must be odd, got {k}")
    rev = _bit_reverse_indices(n)
    perm = rev[((2 * rev + 1) * (k % (2 * n)) % (2 * n) - 1) // 2]
    perm.setflags(write=False)
    return perm


def warm_automorphism(n: int, k: int) -> None:
    """Build both index tables of X -> X^k now (a compile-time hook)."""
    automorphism_map(n, k)
    ntt_automorphism_perm(n, k)


@lru_cache(maxsize=None)
def _moduli_column(moduli: tuple[int, ...]) -> np.ndarray:
    """(L, 1) int64 broadcast column for a modulus chain."""
    col = np.array(moduli, dtype=np.int64)[:, None]
    col.setflags(write=False)
    return col


@lru_cache(maxsize=4096)
def _scalar_column(value: int, moduli: tuple[int, ...], invert: bool = False) -> np.ndarray:
    """(L, 1) column of ``value`` (or of its inverse) mod each limb, from
    :func:`_moduli_column`'s uncached body; bounded (FBS coefficients are < t)."""
    return _moduli_column.__wrapped__(
        [inv_mod(value, p) if invert else value % p for p in moduli])


def digit_groups(num_limbs: int, both: tuple[int, ...]) -> list[slice]:
    """The limbs of Q in each keyswitch digit: alpha consecutive limbs (the
    last digit may hold fewer), alpha being K, the number of special primes
    ``both`` = Q u P holds beyond Q's (:attr:`FheParams.special_moduli`)."""
    alpha = len(both) - num_limbs
    return [slice(lo, min(lo + alpha, num_limbs)) for lo in range(0, num_limbs, alpha)]


def _mod_up(data, moduli, both) -> np.ndarray:
    """Digits of an (..., L, N) component stack over Q, as an (..., D, L+K,
    N) stack over ``both`` = Q u P: digit j is the centred lift of the
    residues in group j — its own rows as they stand, one exact base
    extension into every other limb (the CRT idempotent sits in the key)."""
    digits = []
    for rows in digit_groups(len(moduli), both):
        lo, hi = rows.start, rows.stop
        ext = rns.base_extend(data[..., rows, :], moduli[rows], both[:lo] + both[hi:], True)
        digits.append(np.concatenate([ext[..., :lo, :], data[..., rows, :], ext[..., lo:, :]], -2))
    return np.stack(digits, axis=-3)


def _mod_down(x, moduli, both, lift=None) -> np.ndarray:
    """``round(x / P)`` over Q of an (..., L+K, N) stack over ``both`` = Q u
    P: subtract the centred lift of the P residues, multiply by P^-1 — exact,
    word-sized. Linear mod each limb, so it holds in either domain given
    ``lift`` in x's domain (default: x's own P limbs, extended)."""
    num_limbs = len(moduli)
    if lift is None:
        lift = rns.base_extend(x[..., num_limbs:, :], both[num_limbs:], moduli, True)
    mods = _moduli_column(moduli)
    p_inv = _scalar_column(math.prod(both[num_limbs:]), moduli, True)
    return (x[..., :num_limbs, :] - lift) % mods * p_inv % mods


def _galois_key(rotation_keys, k: int):
    """(Galois element, key) of X -> X^k."""
    if k not in rotation_keys:
        raise ParameterError(f"missing Galois key for element {k}")
    return k, rotation_keys[k]


def _key_products(fd, k0, k1, both):
    """Evaluation-domain (..., 2, L+K, N) (delta_c0, delta_c1) over ``both`` = Q u P
    of (..., D, L+K, N) transformed digits against (stacked) cached key halves."""
    mods = _moduli_column(both)
    # Products reduce below 2**31 before the lazy digit-axis sum.
    return np.stack([lazy_reduce_sum(fd * k % mods, both, axis=-3) for k in (k0, k1)], axis=-3)


def _stacked_keyswitch(data, ksk, moduli, perm=slice(None)):
    """The batched keyswitch of an (..., L, N) stack: all digits in one
    forward pass, gathered by ``perm`` (a rotation's evaluation-domain
    automorphism), the lazy key products, one inverse pass, the mod-down."""
    both = ksk.moduli
    fd = ntt_forward_rns(_mod_up(data, moduli, both), both)[..., perm]
    out = _mod_down(ntt_inverse_rns(_key_products(fd, ksk.k0, ksk.k1, both), both), moduli, both)
    return out[..., 0, :, :], out[..., 1, :, :]


def hoisted_rotations(f0, c1, elements, rotation_keys, moduli) -> np.ndarray:
    """(E, 2, L, N) evaluation-domain images: image e is the transformed
    :meth:`Backend.rotate_keyswitch` of its parent under ``elements[e]``.

    A parent is ``f0`` (its c0, evaluation domain) and ``c1`` (coefficient
    domain, where its digits are taken): (L, N) is one parent shared by
    every element, its digit transform paid once (babies); (E, L, N) one
    parent per element (giants). Per chunk of at most
    :data:`CMULT_BATCH_ELEMS` digit elements the stack pays each step once:
    mod-up and digit transform, a gather by the (E, N) table of
    :func:`ntt_automorphism_perm`, the lazy product against the stacked key
    halves, an evaluation-domain mod-down (only the K special limbs leave
    the domain). Dispatch-free: the batched mat-vec and the packing key use it.
    """
    n, num_limbs = c1.shape[-1], len(moduli)
    keys = [_galois_key(rotation_keys, k)[1] for k in elements]
    out = np.empty((len(keys), 2, num_limbs, n), dtype=np.int64)
    if not keys:
        return out
    both = keys[0].moduli  # one basis per parameter set: any key's Q u P serves all
    special, mods = both[num_limbs:], _moduli_column(moduli)
    shared = c1.ndim == 2
    if shared:
        fd, f0 = ntt_forward_rns(_mod_up(c1, moduli, both), both)[None], f0[None]
    perms = np.stack([ntt_automorphism_perm(n, k) for k in elements])[:, None, :]
    chunk = max(1, CMULT_BATCH_ELEMS // keys[0].k0.size)  # a digit stack is the key's shape
    for lo in range(0, len(keys), chunk):
        part = slice(lo, lo + chunk)
        if not shared:
            fd = ntt_forward_rns(_mod_up(c1[part], moduli, both), both)
        k0, k1 = (np.stack(half) for half in zip(*[(gk.k0, gk.k1) for gk in keys[part]]))
        wide = _key_products(np.take_along_axis(fd, perms[part, None], -1), k0, k1, both)
        lift = rns.base_extend(ntt_inverse_rns(wide[..., num_limbs:, :], special), special,
                               moduli, True)
        out[part] = _mod_down(wide, moduli, both, ntt_forward_rns(lift, moduli))
        f0_part = np.take_along_axis(f0 if shared else f0[part], perms[part], -1)
        out[part, 0] = (out[part, 0] + f0_part) % mods
    return out


class Backend:
    """Dispatch point for every homomorphic primitive, and its reference bodies.

    Four tiers:

    * **RNS tier** — limb arithmetic on (L, N) residue matrices
      (:meth:`add` .. :meth:`shift`). The bodies here are the per-prime
      loops, frozen as reference semantics; :class:`BatchedBackend`
      overrides each with one stacked numpy pass. :meth:`mod_switch` (an
      exact base conversion) has one body for both.
    * **fused tier** — the coarse-grained hot-path ops (keyswitch,
      rotation, mat-vec, giant steps), decomposed here to RNS-tier
      primitives.
    * **LWE tier** — the noise-control chain (:meth:`sample_extract`,
      :meth:`lwe_keyswitch`, :meth:`lwe_rescale`). Default
      implementations delegate to :mod:`repro.fhe.lwe`; a hardware
      backend may override them wholesale.
    * **composite tier** — :meth:`fbs`, :meth:`s2c`. Defaults delegate to
      the module implementations, whose inner ops re-enter the active
      backend, so a wrapper (e.g. :class:`CountingBackend`) observes every
      sub-op.

    Plus the two instrumentation hooks — the execution stack's only
    instrumentation seam, no-ops except on counting backends:
    :meth:`record` (a primitive event; the bodies above the RNS tier
    record their own) and :meth:`phase` (a phase label for subsequent
    events, used by the executed-trace model, and the region whose seconds
    a counting backend accumulates).
    """

    name = "base"

    #: Name of the RNS arithmetic actually executing (a wrapper reports
    #: its inner engine's).
    rns_name = "serial"

    # -- RNS tier ----------------------------------------------------------

    def add(self, a, b, moduli):
        data = a + b
        for i, p in enumerate(moduli):
            data[..., i, :] %= p
        return data

    def sub(self, a, b, moduli):
        data = a - b
        for i, p in enumerate(moduli):
            data[..., i, :] %= p
        return data

    def neg(self, a, moduli):
        data = -a
        for i, p in enumerate(moduli):
            data[..., i, :] %= p
        return data

    def mul(self, a, b, moduli):
        out = np.empty_like(a)
        for i, p in enumerate(moduli):
            out[..., i, :] = ntt_mul(a[..., i, :], b[..., i, :], p)
        return out

    def ntt(self, a, moduli):
        # (..., L, N): leading axes batch (a plan's whole diagonal stack).
        out = np.empty_like(a)
        for i, p in enumerate(moduli):
            out[..., i, :] = ntt_forward(a[..., i, :], p)
        return out

    def mul_ntt(self, a, fb, moduli):
        out = np.empty_like(a)
        for i, p in enumerate(moduli):
            out[..., i, :] = ntt_inverse(ntt_forward(a[..., i, :], p) * fb[..., i, :] % p, p)
        return out

    def scalar_mul(self, a, value, moduli):
        out = np.empty_like(a)
        for i, p in enumerate(moduli):
            out[..., i, :] = a[..., i, :] * (value % p) % p
        return out

    def automorphism(self, a, k, moduli):
        # (..., L, N): leading axes batch (a rotation's digit stack).
        dest, sign = automorphism_map(a.shape[-1], k)
        out = np.zeros_like(a)
        signed = a * sign  # safe: |value| < p < 2**31
        for i, p in enumerate(moduli):
            # k odd => dest is a permutation
            out[..., i, dest] = signed[..., i, :] % p
        return out

    def shift(self, a, shift, moduli):
        # X^(N + r) = -X^r, so X^shift rolls the length-2N (a, -a) by shift
        # mod 2N, any integer shift; the first N coefficients are the product.
        n = a.shape[-1]
        out = np.empty_like(a)
        for i, p in enumerate(moduli):
            limb = a[..., i, :]
            out[..., i, :] = np.roll(np.concatenate([limb, -limb], -1), shift, -1)[..., :n] % p
        return out

    def mod_switch(self, data, moduli, new_modulus):
        """Scale-and-round an (L, N) residue stack from Q to a word-sized
        ``new_modulus`` m (paper Eq. 2: q', or t to decrypt) as an int64
        vector: floor(y / Q) mod m, y = m * x + floor(Q/2) for the lift x in
        [0, Q). The quotient lies in [0, m], so it is exact modulo one prime
        r > m, which x and [y]_Q reach by one base extension."""
        if not 0 < new_modulus < ROUND_PRIME:
            raise ParameterError(f"scale-and-round target {new_modulus} is not below {ROUND_PRIME}")
        r, q, mods = ROUND_PRIME, rns.rns_modulus(moduli), _moduli_column(moduli)
        y = (data * new_modulus + (mods - 1) // 2) % mods  # floor(Q/2) = -1/2 mod odd limbs
        x_r, y_r = rns.base_extend(np.stack([data, y]), moduli, (r,))[:, 0]
        v = (x_r * new_modulus + q // 2 % r - y_r) % r
        return v * pow(q, -1, r) % r % new_modulus

    # -- fused tier --------------------------------------------------------
    #
    # Coarse-grained ops covering the hot paths. The reference bodies
    # below decompose to the RNS-tier primitives of *this* backend
    # (``self`` methods only — never ``current_backend()``), which is what
    # CountingBackend runs: it counts the decomposed stream one primitive
    # at a time, plus the events these bodies record.

    def hadd_many(self, arrays, moduli):
        """Sum k reduced (L, N) residue stacks; one chain, one result.

        Reference: the sequential left-fold. BatchedBackend defers the
        modular reduction across the whole chain (:func:`lazy_reduce_sum`).
        """
        acc = arrays[0]
        for other in arrays[1:]:
            acc = self.add(acc, other, moduli)
        return acc

    def _digit_loop(self, digits, ksk, moduli):
        """(D, L+K, N) digits against the key — one cached-operand product
        over Q u P per digit per output component — then both mod-downs."""
        both = ksk.moduli
        out = [np.zeros_like(digits[0]), np.zeros_like(digits[0])]
        for dig, *keys in zip(digits, ksk.k0, ksk.k1):
            out = [self.add(acc, self.mul_ntt(dig, k, both), both) for acc, k in zip(out, keys)]
        # Base-conversion outputs: the mod-up's D(L+K) - L, both mod-downs' 2L.
        self.record("rnsconv", (digits.size // digits.shape[-1] + len(moduli)) * digits.shape[-1])
        return tuple(_mod_down(acc, moduli, both) for acc in out)

    def keyswitch(self, data, ksk, moduli):
        """Hybrid keyswitch of one component's (L, N) residue stack (or of
        each of an (..., L, N) stack of components).

        Returns the (delta_c0, delta_c1) residue stacks to be added to the
        ciphertext. Reference: the mod-up, the digit loop.
        """
        if data.ndim > 2:
            return tuple(map(np.stack, zip(*(self.keyswitch(x, ksk, moduli) for x in data))))
        return self._digit_loop(_mod_up(data, moduli, ksk.moduli), ksk, moduli)

    def rotate_keyswitch(self, c0, c1, k, ksk, moduli):
        """Fused automorphism + keyswitch: the one rotation definition.

        *Take c1's digits, then apply X -> X^k to them*: a signed permutation
        commutes with each digit's centred lift, so ``sum_j phi_k(dig_j) * P
        * delta_j = P * phi_k(c1) (mod Q * P)`` and the Galois key for
        ``s(X^k)`` switches them with the noise of switching phi_k(c1)'s
        digits — every rotation of one ciphertext shares one digit stack,
        which :meth:`matvec` hoists. Returns the new (c0, c1) stacks.
        Reference: the mod-up, one automorphism over the digit stack and one
        over c0, the digit loop, the correction add.
        """
        both = ksk.moduli
        digits = self.automorphism(_mod_up(c1, moduli, both), k, both)
        d0, d1 = self._digit_loop(digits, ksk, moduli)
        return self.add(self.automorphism(c0, k, moduli), d0, moduli), d1

    def matvec(self, vec, plan, rotation_keys, moduli):
        """BSGS Halevi-Shoup plaintext-matrix x encrypted-vector product
        ``sum_g rot_{g*bs}( sum_j diag_{g,j} * src_j )`` over *sources*:
        images of one ciphertext under Galois elements.

        ``vec`` says where the sources come from. A (2, L, N) stack is the
        coefficient-domain (c0, c1) of one ciphertext, source 0, and the op
        derives the others as the :class:`repro.fhe.packing.MatvecPlan`
        spells out (S2C: the baby rotations, the row swap, the swap's baby
        rotations). An (S, 2, L, N) stack is every source ready, in the
        evaluation domain, indexed by source id — key material
        (:meth:`repro.fhe.packing.PackingKey.rotated_secrets`), so nothing
        is rotated. Returns the product's (c0, c1) stacks. Reference: one
        :meth:`rotate_keyswitch` per derived source, one cached-operand
        product per diagonal, one HAdd chain and one giant rotation per
        group, one chain over the groups.
        """
        n = vec.shape[-1]

        def rotate(pair, k):
            self.record("rotation")
            self.record("keyswitch")
            return self.rotate_keyswitch(*pair, *_galois_key(rotation_keys, k), moduli)

        def chain(pairs):
            if len(pairs) > 1:
                self.record("hadd", len(pairs) - 1)
            return [self.hadd_many([p[i] for p in pairs], moduli) for i in (0, 1)]

        if vec.ndim == 4:  # ready sources: back to where mul_ntt takes them
            src = np.empty_like(vec)
            for i, p in enumerate(moduli):
                src[..., i, :] = ntt_inverse(vec[..., i, :], p)
        else:
            src = {0: tuple(vec)}
            for parent, images in plan.derived:
                for s, k in images:
                    src[s] = rotate(src[parent], k)
        parts = []
        for g, ids, stack in plan.groups:
            self.record("pmult", len(ids))
            inner = chain([
                [self.mul_ntt(comp, w, moduli) for comp in src[s]]
                for s, w in zip(ids, stack)
            ])
            giant = rotation_galois_element(n, g * plan.baby_steps)
            parts.append(rotate(inner, giant) if g else inner)
        return tuple(chain(parts))

    def giant_step_batch(self, ctx, pairs, rlk):
        """The giant-step combination of one FBS: ``relin(sum_g inner_g *
        giant_g)`` over ``pairs``, a list of (inner, giant) BfvCiphertexts,
        as one ciphertext.

        The tensor is linear, so the G products accumulate in the
        evaluation domain of Q u P (:meth:`BfvContext.tensor_products`) and
        share one scale-round and one keyswitch. Reference: per-pair
        products joined by G - 1 additions over Q u P, the keyswitch, the
        two correction adds; BatchedBackend sums stacked products lazily.
        Both sums are exact, so the bodies are bit-identical.
        """
        from repro.fhe.bfv import BfvCiphertext
        from repro.fhe.poly import RnsPoly

        ctx.check_tensor_terms(len(pairs))
        moduli, both = ctx.params.moduli, ctx.tensor_moduli
        ctx.tensor_forms([ct for pair in pairs for ct in pair])
        acc = None
        for pair in pairs:
            self.record("cmult")
            (e,) = ctx.tensor_products([pair])
            acc = e if acc is None else self.add(acc, e, both)
        r0, r1, r2 = ctx.tensor_scale_round(acc)
        self.record("keyswitch")
        d0, d1 = self.keyswitch(r2, rlk, moduli)
        c0 = RnsPoly(self.add(r0, d0, moduli), moduli)
        c1 = RnsPoly(self.add(r1, d1, moduli), moduli)
        return BfvCiphertext(c0, c1, ctx.params, ctx.cmult_noise(pairs))

    def cmult_batch(self, ctx, pairs, rlk):
        """Relinearised products of independent CMults (one FBS ladder
        level), each bit-identical to
        :meth:`~repro.fhe.bfv.BfvContext.cmult` of its (a, b) pair.

        One dispatch-free body for every engine: the operands without a
        Q u P form enter it in one stacked pass, then per chunk of at most
        :data:`CMULT_BATCH_ELEMS` digit elements the tensors share one
        scale-round, one :meth:`keyswitch` of the (B, L, N) quadratic
        components and one call per correction add.
        """
        from repro.fhe.bfv import BfvCiphertext
        from repro.fhe.poly import RnsPoly

        params = ctx.params
        moduli = params.moduli
        chunk = max(1, CMULT_BATCH_ELEMS // rlk.k0.size)  # a digit stack is the key's shape
        ctx.tensor_forms([ct for pair in pairs for ct in pair])
        out = []
        for lo in range(0, len(pairs), chunk):
            part = pairs[lo : lo + chunk]
            self.record("cmult", len(part))
            self.record("keyswitch", len(part))
            r = ctx.tensor_scale_round(ctx.tensor_products(part))
            d0, d1 = self.keyswitch(r[:, 2], rlk, moduli)
            c0, c1 = self.add(r[:, 0], d0, moduli), self.add(r[:, 1], d1, moduli)
            out += [BfvCiphertext(RnsPoly(x, moduli), RnsPoly(y, moduli), params,
                                  ctx.cmult_noise([pair])) for x, y, pair in zip(c0, c1, part)]
        return out

    def lincomb(self, stack, coeffs, moduli):
        """Row g of the (G, 2, L, N) result is ``sum_j coeffs[g, j] *
        stack[j]`` over a (J, 2, L, N) ciphertext stack and a (G, J) matrix
        of small signed integers (FBS baby steps: one row per group); a zero
        coefficient is no term, an empty row the zero ciphertext.

        Reference: per nonzero term one scalar product per component, per
        row one HAdd chain. BatchedBackend: one exact matrix product.
        """
        out = np.zeros((len(coeffs),) + stack.shape[1:], dtype=np.int64)
        for row, weights in zip(out, coeffs):
            terms = [[self.scalar_mul(comp, int(c), moduli) for comp in stack[j]]
                     for j, c in enumerate(weights) if c]
            self.record("smult", len(terms))
            if terms:
                self.record("hadd", len(terms) - 1)
                row[...] = [self.hadd_many(list(comps), moduli) for comps in zip(*terms)]
        return out

    # -- LWE tier ----------------------------------------------------------

    def sample_extract(self, ct, indices=None):
        """Algorithm 1: RLWE coefficients -> independent LWE ciphertexts."""
        from repro.fhe import lwe

        out = lwe.sample_extract_impl(ct, indices)
        self.record("extract", out.count)
        return out

    def lwe_keyswitch(self, batch, ksk):
        """LWE dimension switch N -> n with gadget decomposition."""
        from repro.fhe import lwe

        self.record("lwe_keyswitch", batch.count)
        return lwe.keyswitch_impl(batch, ksk)

    def lwe_rescale(self, batch, new_modulus):
        """Scale-and-round a batch of LWE ciphertexts to ``new_modulus``."""
        from repro.fhe import lwe

        self.record("lwe_mod_switch", batch.count)
        return lwe.lwe_mod_switch_impl(batch, new_modulus)

    # -- composite tier ----------------------------------------------------

    def fbs(self, ctx, ct, lut, rlk):
        """Functional bootstrapping: evaluate a LUT polynomial on all slots."""
        from repro.fhe import fbs

        self.record("fbs")
        return fbs.fbs_evaluate_impl(ctx, ct, lut, rlk)

    def s2c(self, ctx, ct, key):
        """Slot-to-coefficient transform."""
        from repro.fhe import s2c

        self.record("s2c")
        return s2c.slot_to_coeff_impl(ctx, ct, key)

    # -- instrumentation hooks ---------------------------------------------

    def record(self, op: str, k: int = 1) -> None:
        """Note ``k`` occurrences of primitive ``op`` (no-op here)."""

    def phase(self, name: str):
        """Label subsequent events with ``name`` (no-op context here)."""
        return contextlib.nullcontext()


class BatchedBackend(Backend):
    """Residue-stacked execution engine (the default hot path).

    RNS tier: one numpy pass covers every limb. Fused tier: keyswitches run
    one batched (D, L+K, N) forward NTT over all digits — the component's
    digit groups, each extended into Q u P — against cached NTT-domain key
    stacks (:class:`repro.fhe.keys.KeySwitchKey`), accumulate in
    the NTT domain with lazy reduction, and pay two inverse transforms and
    a word-sized mod-down per keyswitch, not two inverses per digit; a
    mat-vec pays them once for all its products, rotates every image of one
    ciphertext on one digit transform (:func:`hoisted_rotations`) and all its
    giants in one call, and rotates nothing when its sources come ready
    (packing). Bit-identical to the reference bodies: the NTT is linear mod
    p, so
    ``intt(sum(f_d * k_d mod p) mod p) == sum(intt(f_d * k_d)) mod p``
    exactly, and the cached key transforms are the same deterministic
    ``ntt_forward_rns`` values the per-digit path recomputes.
    """

    name = "batched"
    rns_name = "batched"

    # -- RNS tier ----------------------------------------------------------

    def add(self, a, b, moduli):
        return (a + b) % _moduli_column(moduli)

    def sub(self, a, b, moduli):
        return (a - b) % _moduli_column(moduli)

    def neg(self, a, moduli):
        return -a % _moduli_column(moduli)

    def mul(self, a, b, moduli):
        return ntt_mul_rns(a, b, moduli)

    def ntt(self, a, moduli):
        return ntt_forward_rns(a, moduli)

    def mul_ntt(self, a, fb, moduli):
        fa = ntt_forward_rns(a, moduli)
        return ntt_inverse_rns(fa * fb % _moduli_column(moduli), moduli)

    def scalar_mul(self, a, value, moduli):
        return a * _scalar_column(value, moduli) % _moduli_column(moduli)

    def automorphism(self, a, k, moduli):
        # Accepts (..., L, N): leading axes batch, so the fused
        # rotate-keyswitch can permute both ciphertext components at once.
        dest, sign = automorphism_map(a.shape[-1], k)
        out = np.empty_like(a)
        # |a * sign| < p < 2**31, so the signed product is int64-exact.
        out[..., dest] = a * sign % _moduli_column(moduli)
        return out

    def shift(self, a, shift, moduli):
        rolled = np.roll(np.concatenate([a, -a], -1), shift, -1)  # shift mod 2N
        return rolled[..., : a.shape[-1]] % _moduli_column(moduli)

    # -- fused tier --------------------------------------------------------

    def hadd_many(self, arrays, moduli):
        if len(arrays) == 1:
            return arrays[0]
        return lazy_reduce_sum(np.stack(arrays), moduli)

    def keyswitch(self, data, ksk, moduli):
        return _stacked_keyswitch(data, ksk, moduli)

    def rotate_keyswitch(self, c0, c1, k, ksk, moduli):
        d0, d1 = _stacked_keyswitch(c1, ksk, moduli, ntt_automorphism_perm(c0.shape[-1], k))
        return (self.automorphism(c0, k, moduli) + d0) % _moduli_column(moduli), d1

    def matvec(self, vec, plan, rotation_keys, moduli):
        """The mat-vec without leaving the evaluation domain.

        Ready sources are used as handed in. Otherwise one stacked forward
        NTT of (c0, c1), then every image of one parent shares one
        (D, L+K, N) digit transform
        (:func:`hoisted_rotations`): the baby rotations and the row swap
        ride on c1's, the swap's babies on the swapped c1's — the only
        source inverse-transformed. Diagonal products and group sums are
        pointwise (chunked under :data:`GIANT_BATCH_ELEMS`); the giant steps
        are one :func:`hoisted_rotations` call, one parent per group, after
        one stacked inverse of their c1; the summed groups pay one stacked
        inverse. Bit-identical to the reference: the NTT is a ring
        isomorphism mod each prime, and every c1 taken as digits is the same
        canonical residues either way.
        """
        n = vec.shape[-1]
        mods = _moduli_column(moduli)
        if vec.ndim == 4:
            src = vec
        else:
            src = {0: ntt_forward_rns(vec, moduli)}
            for parent, images in plan.derived:
                ids, elements = zip(*images)
                c1 = ntt_inverse_rns(src[parent][1], moduli) if parent else vec[1]
                src.update(zip(ids, hoisted_rotations(
                    src[parent][0], c1, elements, rotation_keys, moduli)))
        chunk = max(1, GIANT_BATCH_ELEMS // (2 * len(moduli) * n))
        parts = np.empty((len(plan.groups), 2, len(moduli), n), dtype=np.int64)
        for part, (_, ids, stack) in zip(parts, plan.groups):
            sums = []
            for lo in range(0, len(ids), chunk):
                cts = np.stack([src[s] for s in ids[lo : lo + chunk]])
                sums.append(lazy_reduce_sum(
                    cts * stack[lo : lo + chunk, None] % mods, moduli))
            part[...] = lazy_reduce_sum(np.stack(sums), moduli)
        giants = [i for i, (g, _, _) in enumerate(plan.groups) if g]
        if giants:
            elements = [rotation_galois_element(n, plan.groups[i][0] * plan.baby_steps)
                        for i in giants]
            parts[giants] = hoisted_rotations(parts[giants, 0], ntt_inverse_rns(
                parts[giants, 1], moduli), elements, rotation_keys, moduli)
        out = ntt_inverse_rns(lazy_reduce_sum(parts, moduli), moduli)
        return out[0], out[1]

    def giant_step_batch(self, ctx, pairs, rlk):
        from repro.fhe.bfv import BfvCiphertext
        from repro.fhe.poly import RnsPoly

        ctx.check_tensor_terms(len(pairs))
        moduli = ctx.params.moduli
        # A chunk of G' pairs peaks at its (G', 2, 2, L+K, N) products; the
        # chunks' lazy sums add up unreduced (cmult_bounds: "lazy_sum").
        chunk = max(1, GIANT_BATCH_ELEMS // (4 * len(ctx.tensor_moduli) * ctx.params.n))
        e = sum(ctx.tensor_products(pairs[lo : lo + chunk]).sum(axis=0)
                for lo in range(0, len(pairs), chunk))
        r0, r1, r2 = ctx.tensor_scale_round(e)
        d0, d1 = self.keyswitch(r2, rlk, moduli)
        c0 = RnsPoly(self.add(r0, d0, moduli), moduli)
        c1 = RnsPoly(self.add(r1, d1, moduli), moduli)
        return BfvCiphertext(c0, c1, ctx.params, ctx.cmult_noise(pairs))

    def lincomb(self, stack, coeffs, moduli):
        # Exact in float64 while a chunk sums below 2**53 (one chunk at ATHENA).
        x, w = stack.astype(np.float64), coeffs.astype(np.float64)
        step = max(1, (2**53 - 1) // ((max(moduli) - 1) * int(np.abs(coeffs).max(initial=1))))
        out = np.zeros((len(coeffs),) + stack.shape[1:], dtype=np.int64)
        for lo in range(0, len(stack), step):
            out += np.tensordot(w[:, lo : lo + step], x[lo : lo + step], 1).astype(np.int64)
        return out % _moduli_column(moduli)


class SerialBackend(Backend):
    """The reference engine under its registry name: every body inherited."""

    name = "serial"


class CountingBackend(Backend):
    """Run the reference bodies over ``inner``'s RNS tier, counting per phase.

    Only the RNS tier (:meth:`add` .. :meth:`mod_switch`) and the two hooks
    are overridden here: each RNS call is counted, then delegated to
    ``inner``. Every op above that tier — the fused, LWE and composite
    tiers — is :class:`Backend`'s reference body, so a counted keyswitch,
    mat-vec or FBS executes its decomposition over ``inner``'s primitives
    (2–4× the batched engine's time on a whole inference) and every count
    is a primitive that ran. Two kinds of events land in ``phase -> {op:
    count}`` records:

    * RNS-tier work, derived from the dispatched array shapes in the same
      units as the analytical trace model (:mod:`repro.core.trace`):
      ``ntt`` (limb transforms), ``mod_mul`` / ``mod_add`` (elements),
      ``automorph`` / ``shift`` (one index map per limb per call, whatever
      leading axes ride along), ``rnsconv`` (base-conversion outputs).
    * primitive events the bodies and dispatch sites record: ``pmult``,
      ``smult``, ``hadd``, ``add_plain``, ``cmult``, ``rotation``,
      ``keyswitch``, ``extract``, ``lwe_keyswitch``, ``lwe_mod_switch``,
      ``mod_switch``, ``matvec``, ``pack``, ``fbs``, ``s2c``, ...

    Beside the counts, ``phase_s`` accumulates *self*-seconds per phase
    label of that same counted stream — the reference decomposition, not
    the batched engine's fused kernels (production per-phase seconds come
    from timing an uncounted run). Entering a nested phase pauses its
    parent (``fbs_giant`` inside ``fbs``), so on one thread the labels are
    disjoint and sum to at most the run's wall time. Time outside every
    phase is not attributed. Under a thread fan-out each worker's seconds
    are added to the same labels, so the sum is busy time and may exceed
    the wall.

    The phase label is thread-local (each thread of a fan-out opens its
    own phases); the counter store is lock-protected, so one recorder may
    be shared across the fan-out. Use
    :func:`repro.core.trace.executed_trace` to view the records as a
    :class:`~repro.core.trace.WorkloadTrace` for the accel scheduler.
    """

    name = "counting"

    def __init__(self, inner: "Backend | str | None" = None):
        self.inner = get_backend(inner) if inner is not None else default_backend()
        self._lock = threading.Lock()
        self._tls = threading.local()
        self.phase_ops: dict[str, dict[str, int]] = {}
        self.phase_s: dict[str, float] = {}

    @property
    def rns_name(self) -> str:
        return self.inner.rns_name

    # -- recording ----------------------------------------------------------

    def current_phase(self) -> str:
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else "other"

    @contextlib.contextmanager
    def phase(self, name: str):
        tls = self._tls
        stack = getattr(tls, "stack", None)
        if stack is None:
            stack = tls.stack = []
        now = time.perf_counter()
        if stack:
            self._credit(stack[-1], now - tls.since)
        stack.append(name)
        tls.since = now
        try:
            yield
        finally:
            now = time.perf_counter()
            self._credit(name, now - tls.since)
            stack.pop()
            tls.since = now

    def _credit(self, phase: str, seconds: float) -> None:
        """Add the stretch since this thread's last phase boundary."""
        with self._lock:
            self.phase_s[phase] = self.phase_s.get(phase, 0.0) + seconds

    def record(self, op: str, k: int = 1) -> None:
        self._bulk(**{op: k})

    def _bulk(self, **ops: int) -> None:
        phase = self.current_phase()
        with self._lock:
            store = self.phase_ops.setdefault(phase, {})
            for op, k in ops.items():
                if k:
                    store[op] = store.get(op, 0) + k

    # -- views --------------------------------------------------------------

    def ops_by_phase(self) -> dict[str, dict[str, int]]:
        """Snapshot of the per-phase records (phase -> {op: count})."""
        with self._lock:
            return {ph: dict(ops) for ph, ops in self.phase_ops.items()}

    def totals(self) -> dict[str, int]:
        """Op counts summed across phases."""
        out: dict[str, int] = {}
        for ops in self.ops_by_phase().values():
            for op, k in ops.items():
                out[op] = out.get(op, 0) + k
        return dict(sorted(out.items()))

    def summary(self) -> dict:
        """JSON-ready snapshot: per-phase records and seconds, plus totals."""
        with self._lock:
            phase_s = {ph: round(s, 6) for ph, s in sorted(self.phase_s.items())}
        return {
            "backend": self.inner.name,
            "phase_ops": {
                ph: dict(sorted(ops.items()))
                for ph, ops in sorted(self.ops_by_phase().items())
            },
            "phase_s": phase_s,
            "ops": self.totals(),
        }

    def reset(self) -> None:
        with self._lock:
            self.phase_ops.clear()
            self.phase_s.clear()

    # -- RNS tier (count, then delegate) ------------------------------------

    def add(self, a, b, moduli):
        self._bulk(mod_add=a.size)
        return self.inner.add(a, b, moduli)

    def sub(self, a, b, moduli):
        self._bulk(mod_add=a.size)
        return self.inner.sub(a, b, moduli)

    def neg(self, a, moduli):
        self._bulk(mod_add=a.size)
        return self.inner.neg(a, moduli)

    def mul(self, a, b, moduli):
        # Two forward transforms + one inverse, plus the pointwise product.
        self._bulk(ntt=3 * len(moduli), mod_mul=a.size)
        return self.inner.mul(a, b, moduli)

    def ntt(self, a, moduli):
        self._bulk(ntt=a.size // a.shape[-1])  # limb transforms, any stack
        return self.inner.ntt(a, moduli)

    def mul_ntt(self, a, fb, moduli):
        # The plan-cached operand skips its forward transform.
        self._bulk(ntt=2 * len(moduli), mod_mul=a.size)
        return self.inner.mul_ntt(a, fb, moduli)

    def scalar_mul(self, a, value, moduli):
        self._bulk(mod_mul=a.size)
        return self.inner.scalar_mul(a, value, moduli)

    def automorphism(self, a, k, moduli):
        self._bulk(automorph=len(moduli))
        return self.inner.automorphism(a, k, moduli)

    def shift(self, a, shift, moduli):
        self._bulk(shift=len(moduli))
        return self.inner.shift(a, shift, moduli)

    def mod_switch(self, data, moduli, new_modulus):
        self._bulk(rnsconv=data.size)
        return self.inner.mod_switch(data, moduli, new_modulus)


#: Singleton executing backends (stateless; counting backends are per-use).
BATCHED = BatchedBackend()
SERIAL = SerialBackend()

_NAMED: dict[str, Backend] = {
    "batched": BATCHED,
    "serial": SERIAL,
}

_ACTIVE: contextvars.ContextVar[Backend | None] = contextvars.ContextVar(
    "repro_fhe_backend", default=None
)

_DEFAULT: Backend | None = None


def get_backend(backend: "Backend | str") -> Backend:
    """Resolve a backend instance or name.

    Names: ``batched`` (default) | ``serial`` | ``counting``.
    ``counting`` returns a *fresh* CountingBackend over
    the batched engine each call — counters are per-use state, so there
    is no counting singleton to share.
    """
    if isinstance(backend, Backend):
        return backend
    if backend == "counting":
        return CountingBackend("batched")
    try:
        return _NAMED[backend]
    except KeyError:
        raise ParameterError(
            f"unknown backend {backend!r}; options: "
            f"{sorted([*_NAMED, 'counting'])}"
        ) from None


def default_backend() -> Backend:
    """The process-wide default, honoring ``REPRO_BACKEND`` once at first use.

    The variable is stripped and lower-cased; empty means unset.
    """
    global _DEFAULT
    if _DEFAULT is None:
        name = os.environ.get("REPRO_BACKEND", "").strip().lower()
        _DEFAULT = get_backend(name or "batched")
    return _DEFAULT


def current_backend() -> Backend:
    """The backend active in the *current context* (thread/task-local)."""
    active = _ACTIVE.get()
    return active if active is not None else default_backend()


@contextlib.contextmanager
def use_backend(backend: "Backend | str"):
    """Run the enclosed block with ``backend`` as the active dispatch target.

    Context-local: other threads (and other contexts on this thread) are
    unaffected, which is what makes concurrent sessions on different
    backends safe. Yields the resolved backend instance.
    """
    resolved = get_backend(backend)
    token = _ACTIVE.set(resolved)
    try:
        yield resolved
    finally:
        _ACTIVE.reset(token)
