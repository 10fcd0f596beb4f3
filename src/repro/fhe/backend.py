"""Op-dispatch backends: one reference engine, one fast engine, one wrapper.

Every primitive the Athena loop executes — RNS NTT/INTT and limb
arithmetic, modulus switching, LWE extraction and dimension switching, the
packing / S2C mat-vec, FBS — dispatches through the *active*
:class:`Backend`. An op has two bodies only where the engines' algorithms
differ:

* the **reference** body, on :class:`Backend`: per-prime radix-2 transforms
  (:meth:`~Backend.mul`, :meth:`~Backend.ntt`, :meth:`~Backend.mul_ntt`),
  fused ops decomposed to RNS-tier primitives, :meth:`~Backend.hadd_many`
  a left fold. Registered as ``serial`` (:class:`SerialBackend`), it is
  the oracle the fast bodies are pinned bit-identical to.
* the **fast** body, on :class:`BatchedBackend` (``batched``, the default):
  the four-step float64 transform over the stacked (L, N) residue matrix
  (:func:`repro.fhe.ntt.ntt_forward_rns`), and the fused tier as stacked
  kernels on cached NTT-domain key stacks, products summed unreduced in runs
  of :func:`lazy_product_limit`, residues in chains of
  :func:`lazy_chain_limit`.

Every other op has one body, on :class:`Backend`: the element-wise RNS ops
(``add``, ``sub``, ``neg``, ``scalar_mul``, ``automorphism``, ``shift``:
one numpy pass against the (L, 1) modulus column), :meth:`Backend.mod_switch`,
:meth:`Backend.cmult_batch`, :meth:`Backend.giant_step_batch` (the engines
differ in its product sum only), the LWE and composite tiers.
:class:`CountingBackend` (``counting``), the only wrapper and the one way to
observe a run, counts and delegates the RNS tier only: every op above runs
its reference body, each count — in the units of
:class:`repro.core.trace.OpCounts` — is a primitive that ran, and its
per-phase self-seconds time that stream. Selection is **context-local**
(:class:`contextvars.ContextVar`); the process-wide default honors
``REPRO_BACKEND`` (``batched`` | ``serial``), which is how CI runs tier-1
under the reference.

Bit-identity contract: both engines return the canonical residue in [0, p)
of the same integer; inside an op, a hand-off whose consumer reduces its own
input (a transform, an automorphism, a correction add) carries the residue
class unreduced, within a stated bound (``cmult_bounds``,
``keyswitch_bounds``, ``extension_bounds``). ``tests/test_ntt.py``,
``tests/test_backend.py``, ``tests/test_rns_batched.py`` and
``tests/test_fused_kernels.py`` pin it per transform, op and pipeline.

Fused tier: :meth:`Backend.hadd_many`, :meth:`Backend.keyswitch` (digits
extended into Q u P, multiplied against the key, divided by P),
:meth:`Backend.rotate_keyswitch` (take the digits, then X -> X^k on them),
:meth:`Backend.matvec` (a BSGS mat-vec over sources derived from the
request's ciphertext or ready key material, the giants under one mod-down),
:meth:`Backend.giant_step_batch` (a stack of FBS giant steps, one
inner-product CMult each), :meth:`Backend.cmult_batch` (one FBS ladder
level) and :meth:`Backend.lincomb` (the baby steps as one matrix
product). Both bodies
are *dispatch-free* — ``self`` methods and module-level transforms, never
:func:`current_backend` — so a counted primitive is counted once.
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
    "lazy_product_limit",
    "lazy_reduce_sum",
    "use_backend",
]


#: Soft element budget for one stacked chunk — (G', 2, 2, L+K, N) giant-step
#: products, (T, 2, L, N) gathered mat-vec sources, the (T, L, N) diagonals of a
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


def cmult_chunk(params) -> int:
    """CMult pairs per :meth:`Backend.cmult_batch` chunk: (B, D, L+K, N) digits."""
    return max(1, CMULT_BATCH_ELEMS // (params.num_digits * len(params.keyswitch_moduli) * params.n))


def lazy_chain_limit(moduli: tuple[int, ...]) -> int:
    """Max number of reduced residues that may be summed lazily in int64:
    each is <= max_p - 1, so a chain of k peaks at k * (max_p - 1). About
    2**32 for 31-bit limb primes, far above any HAdd chain or digit count
    (``tests/test_fused_kernels.py`` pins this across all presets)."""
    return (2**63 - 1) // (max(moduli) - 1)


def lazy_product_limit(moduli: tuple[int, ...]) -> int:
    """Max number of products of two reduced residues that may be summed
    lazily in int64: each is <= (max_p - 1)**2. Eight for the 30-bit limbs
    of Q at every preset; a basis where one product overflows is refused."""
    limit = (2**63 - 1) // (max(moduli) - 1) ** 2
    if not limit:
        raise ParameterError(f"a product of two residues mod {max(moduli)} overflows int64")
    return limit


def lazy_reduce_sum(stack: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """Sum reduced residue stacks along axis 0 with one ``%`` per chain, not
    one per addition (:meth:`Backend.hadd_many`, the mat-vec's run sums);
    chains longer than :func:`lazy_chain_limit` fold in overflow-safe chunks.
    The result's limb axis is -2, where the (L, 1) modulus column broadcasts.
    """
    mods, limit = _moduli_column(moduli), lazy_chain_limit(moduli)
    acc = stack[:limit].sum(axis=0) % mods
    for start in range(limit, len(stack), limit):
        acc = (acc + stack[start : start + limit].sum(axis=0) % mods) % mods
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
    extension into every other limb (the CRT idempotent sits in the key),
    written in place and left unreduced: the digits' consumers, transforms
    and automorphisms, reduce on entry."""
    groups = digit_groups(len(moduli), both)
    out = np.empty(data.shape[:-2] + (len(groups), len(both), data.shape[-1]), dtype=np.int64)
    for j, rows in enumerate(groups):
        lo, hi, digit = rows.start, rows.stop, out[..., j, :, :]
        digit[..., rows, :] = data[..., rows, :]
        ext = rns.base_extend(data[..., rows, :], moduli[rows], both[:lo] + both[hi:],
                              shift=rns.rns_modulus(moduli[rows]) // 2,
                              out=None if lo else digit[..., hi:, :])
        if lo:  # the extension's rows lie on both sides of the group's
            digit[..., :lo, :], digit[..., hi:, :] = ext[..., :lo, :], ext[..., lo:, :]
    return out


def _mod_down(x, moduli, both, ntt=False) -> np.ndarray:
    """``round(x / P)`` over Q of an (..., L+K, N) stack over ``both`` = Q u
    P: subtract the centred lift of the P residues, multiply by P^-1 — exact,
    word-sized. Linear mod each limb, so it holds in the evaluation domain
    too (``ntt``): only the K special limbs leave it, their lift comes back.
    ``x`` may be a key-product sum, the lift unreduced: one difference,
    one ``%`` before the P^-1 product and one after
    (:func:`repro.fhe.keys.keyswitch_bounds` "mod_down_difference")."""
    num_limbs, special = len(moduli), both[len(moduli):]
    p_limbs = ntt_inverse_rns(x[..., num_limbs:, :], special) if ntt else x[..., num_limbs:, :]
    lift = rns.base_extend(p_limbs, special, moduli, shift=rns.rns_modulus(special) // 2)
    lift = ntt_forward_rns(lift, moduli) if ntt else lift
    mods = _moduli_column(moduli)
    p_inv = _scalar_column(math.prod(special), moduli, True)
    return (x[..., :num_limbs, :] - lift) % mods * p_inv % mods


def _galois_key(rotation_keys, k: int):
    """(Galois element, key) of X -> X^k."""
    if k not in rotation_keys:
        raise ParameterError(f"missing Galois key for element {k}")
    return k, rotation_keys[k]


def _key_products(fd, halves, both):
    """Evaluation-domain (..., 2, L+K, N) (delta_c0, delta_c1) over ``both`` = Q u P
    of (..., D, L+K, N) transformed digits against a (stacked) cached (..., 2,
    D, L+K, N) key (:attr:`repro.fhe.keys.KeySwitchKey.halves`), unreduced: one
    contraction per run of :func:`lazy_product_limit` digits, a ``%`` each only
    if there are two ("key_sum" of :func:`repro.fhe.keys.keyswitch_bounds`)."""
    if fd.shape[-3] == 1:  # one digit: (d0, d1) is one product
        return np.multiply(fd, halves[..., 0, :, :])
    run = lazy_product_limit(both)
    sums = [np.einsum("...dln,...kdln->...kln", fd[..., r : r + run, :, :],
                      halves[..., r : r + run, :, :]) for r in range(0, fd.shape[-3], run)]
    return sums[0] if len(sums) == 1 else sum(part % _moduli_column(both) for part in sums)


def _stacked_keyswitch(data, ksk, moduli):
    """The batched keyswitch of an (..., L, N) stack: all digits in one
    forward pass, the lazy key products, one inverse pass, the mod-down."""
    both = ksk.moduli
    fd = ntt_forward_rns(_mod_up(data, moduli, both), both)
    out = _mod_down(ntt_inverse_rns(_key_products(fd, ksk.halves, both), both), moduli, both)
    return out[..., 0, :, :], out[..., 1, :, :]


def hoisted_rotations(f0, c1, elements, rotation_keys, moduli) -> np.ndarray:
    """Evaluation-domain :meth:`Backend.rotate_keyswitch` images of parents
    under ``elements``, hoisted; a parent is ``f0`` (its c0, evaluation
    domain) and ``c1`` (coefficient domain, where its digits are taken).

    An (L, N) parent shared by every element (babies) pays its digit
    transform once and returns the (E, 2, L, N) images. An (E, L, N) stack,
    one parent per element (giants), returns the (2, L, N) *sum* of the
    images under one mod-down, which is linear (``mod_down(P a + w) = a +
    mod_down(w)``). Per chunk of :data:`CMULT_BATCH_ELEMS` digit elements:
    mod-up and digit transform, a gather by :func:`ntt_automorphism_perm`,
    the key products against each key, never a stacked copy of the keys; the
    mod-down stays in the evaluation domain.
    """
    n, num_limbs = c1.shape[-1], len(moduli)
    shared = c1.ndim == 2
    keys = [_galois_key(rotation_keys, k)[1] for k in elements]
    out = np.zeros((len(keys), 2, num_limbs, n) if shared else (2, num_limbs, n), np.int64)
    if not keys:
        return out
    both = keys[0].moduli  # one basis per parameter set: any key's Q u P serves all
    if shared:
        fd = ntt_forward_rns(_mod_up(c1, moduli, both), both)[None]
    perms = np.stack([ntt_automorphism_perm(n, k) for k in elements])[:, None, :]
    chunk = max(1, CMULT_BATCH_ELEMS // keys[0].halves[0].size)  # a digit stack: one half's shape
    wide = 0
    for lo in range(0, len(keys), chunk):
        part = slice(lo, lo + chunk)
        if not shared:
            fd = ntt_forward_rns(_mod_up(c1[part], moduli, both), both)
        gathered = zip(np.take_along_axis(fd, perms[part, None], -1), keys[part])
        products = np.array([_key_products(x, gk.halves, both) for x, gk in gathered])
        if shared:
            out[part] = _mod_down(products, moduli, both, ntt=True)
        else:  # E reduced terms, far inside lazy_chain_limit
            wide = wide + (products % _moduli_column(both)).sum(axis=0)
    if not shared:
        out = _mod_down(wide, moduli, both, ntt=True)
    turned = np.take_along_axis(f0[None] if shared else f0, perms, -1)
    out[..., 0, :, :] += turned if shared else turned.sum(axis=0)
    out[..., 0, :, :] %= _moduli_column(moduli)
    return out


class Backend:
    """Dispatch point for every homomorphic primitive, and its reference bodies.

    Four tiers: **RNS** — limb arithmetic on (L, N) residue matrices
    (:meth:`add` .. :meth:`shift`), one numpy pass against the (L, 1)
    modulus column for both engines except the transforms (:meth:`mul`,
    :meth:`ntt`, :meth:`mul_ntt`: per-prime radix-2 here, stacked on
    :class:`BatchedBackend`), :meth:`mod_switch` one body for both;
    **fused** — the hot paths (keyswitch, rotation, mat-vec, CMult),
    decomposed here to RNS-tier primitives; **LWE** —
    :meth:`sample_extract`, :meth:`lwe_keyswitch`, :meth:`lwe_rescale`, in
    :mod:`repro.fhe.lwe`; **composite** — :meth:`fbs`, :meth:`s2c`, whose
    inner ops re-enter the active backend, so a wrapper observes each.

    Plus the only instrumentation seam, no-ops except on counting backends:
    :meth:`record` (a primitive event) and :meth:`phase` (a label for later
    events, and the region whose seconds a counting backend accumulates).
    """

    name = "base"

    #: Name of the RNS arithmetic actually executing (a wrapper reports
    #: its inner engine's).
    rns_name = "serial"

    # -- RNS tier ----------------------------------------------------------

    def add(self, a, b, moduli):
        return (a + b) % _moduli_column(moduli)

    def sub(self, a, b, moduli):
        return (a - b) % _moduli_column(moduli)

    def neg(self, a, moduli):
        return -a % _moduli_column(moduli)

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
        return a * _scalar_column(value, moduli) % _moduli_column(moduli)

    def automorphism(self, a, k, moduli):
        # (..., L, N): leading axes batch (a rotation's digit stack).
        dest, sign = automorphism_map(a.shape[-1], k)
        out = np.empty_like(a)
        # k odd => dest is a permutation; |a * sign| < p < 2**31, so the
        # signed product is int64-exact.
        out[..., dest] = a * sign % _moduli_column(moduli)
        return out

    def shift(self, a, shift, moduli):
        # X^(N + r) = -X^r, so X^shift rolls the length-2N (a, -a) by shift
        # mod 2N, any integer shift; the first N coefficients are the product.
        rolled = np.roll(np.concatenate([a, -a], -1), shift, -1)
        return rolled[..., : a.shape[-1]] % _moduli_column(moduli)

    def mod_switch(self, data, moduli, new_modulus):
        """Scale-and-round an (L, N) residue stack from Q to a word-sized
        ``new_modulus`` m (paper Eq. 2: q', or t to decrypt) as an int64
        vector: floor(y / Q) mod m, y = m * x + floor(Q/2) for the lift x in
        [0, Q). With w the centred lift of [m * x]_Q, ``floor(y / Q) = (m * x
        - w) / Q``. Taken for the centred lift x - b*Q instead, it moves by m*b,
        which vanishes mod m, into [-m/2, m/2]: exact modulo one odd prime r >
        m, read centred. x and w reach r by one centred base extension each."""
        if not 0 < new_modulus < ROUND_PRIME:
            raise ParameterError(f"scale-and-round target {new_modulus} is not below {ROUND_PRIME}")
        r, q = ROUND_PRIME, rns.rns_modulus(moduli)
        x_r = rns.base_extend(data, moduli, (r,), shift=q // 2)[0] % r
        w_r = rns.base_extend(data, moduli, (r,), new_modulus, q // 2)[0]
        quotient = (x_r * new_modulus - w_r) % r * pow(q, -1, r) % r
        return (quotient - r * (quotient > r // 2)) % new_modulus

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
        over Q u P per digit per output component: the (2, L+K, N) sum that
        :meth:`_divide_by_p` takes down to Q."""
        both = ksk.moduli
        out = [np.zeros_like(digits[0]), np.zeros_like(digits[0])]
        for dig, *keys in zip(digits, *ksk.halves):
            out = [self.add(acc, self.mul_ntt(dig, k, both), both) for acc, k in zip(out, keys)]
        # Base-conversion outputs of the mod-up: D(L+K) - L.
        self.record("rnsconv", (digits.size // digits.shape[-1] - len(moduli)) * digits.shape[-1])
        return np.stack(out)

    def _divide_by_p(self, wide, moduli, both):
        """Both mod-downs of a (2, L+K, N) digit-loop sum, as (d0, d1)."""
        self.record("rnsconv", 2 * len(moduli) * wide.shape[-1])  # L outputs per component
        return tuple(_mod_down(wide, moduli, both))

    def keyswitch(self, data, ksk, moduli):
        """Hybrid keyswitch of one component's (L, N) residue stack (or of
        each of an (..., L, N) stack of components).

        Returns the (delta_c0, delta_c1) residue stacks to be added to the
        ciphertext. Reference: the mod-up, the digit loop, the mod-down.
        """
        if data.ndim > 2:
            return tuple(map(np.stack, zip(*(self.keyswitch(x, ksk, moduli) for x in data))))
        both = ksk.moduli
        return self._divide_by_p(self._digit_loop(_mod_up(data, moduli, both), ksk, moduli),
                                 moduli, both)

    def rotate_keyswitch(self, c0, c1, k, ksk, moduli):
        """Fused automorphism + keyswitch: the one rotation definition.

        *Take c1's digits, then apply X -> X^k to them*: a signed permutation
        commutes with each digit's centred lift, so ``sum_j phi_k(dig_j) * P
        * delta_j = P * phi_k(c1) (mod Q * P)`` and the Galois key for
        ``s(X^k)`` switches them with the noise of switching phi_k(c1)'s
        digits — every rotation of one ciphertext shares one digit stack,
        which :meth:`matvec` hoists. Returns the new (c0, c1) stacks.
        Reference: the mod-up, one automorphism over the digit stack and one
        over c0, the digit loop, the mod-down, the correction add.
        """
        both = ksk.moduli
        digits = self.automorphism(_mod_up(c1, moduli, both), k, both)
        d0, d1 = self._divide_by_p(self._digit_loop(digits, ksk, moduli), moduli, both)
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
        product per diagonal and one HAdd chain per group; the mod-down is
        linear, ``mod_down(P a + w) = a + mod_down(w)``, so the giants'
        digit loops sum over Q u P and share one mod-down.
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
        parts, turned, wide = [], [], []
        for g, ids, stack in plan.groups:
            self.record("pmult", len(ids))
            inner = chain([
                [self.mul_ntt(comp, w, moduli) for comp in src[s]]
                for s, w in zip(ids, stack)
            ])
            if not g:
                parts.append(inner)
                continue
            self.record("rotation")
            self.record("keyswitch")
            k, ksk = _galois_key(rotation_keys, rotation_galois_element(n, g * plan.baby_steps))
            both = ksk.moduli
            turned.append(self.automorphism(inner[0], k, moduli))
            wide.append(self._digit_loop(
                self.automorphism(_mod_up(inner[1], moduli, both), k, both), ksk, moduli))
        if wide:
            d0, d1 = self._divide_by_p(self.hadd_many(wide, both), moduli, both)
            parts.append((self.hadd_many(turned + [d0], moduli), d1))
        self.record("hadd", len(plan.groups) - 1)
        return tuple(self.hadd_many([p[i] for p in parts], moduli) for i in (0, 1))

    def giant_step_batch(self, ctx, stacks, rlk):
        """The giant-step combinations of a stack of FBS: ``relin(sum_g
        inner_g * giant_g)`` for each list of (inner, giant) pairs in
        ``stacks``, one ciphertext each.

        The tensor is linear, so a ciphertext's G products accumulate in the
        evaluation domain of Q u P (:meth:`BfvContext.tensor_products`), and
        the whole stack shares one operand pass, one scale-round and one
        keyswitch. One body for every engine; only the sum
        (:meth:`_tensor_sums`) differs, and both sums are exact, so the
        engines are bit-identical.
        """
        for pairs in stacks:
            ctx.check_tensor_terms(len(pairs))
        ctx.tensor_forms([ct for pairs in stacks for pair in pairs for ct in pair])
        self.record("keyswitch", len(stacks))
        return self._relinearise(ctx, self._tensor_sums(ctx, stacks), rlk,
                                 [ctx.cmult_noise(pairs) for pairs in stacks])

    def _tensor_sums(self, ctx, stacks):
        """The (C, 3, L+K, N) sums of each ciphertext's products. Reference:
        per-pair products joined by G - 1 additions over Q u P (the first
        reduced, so each addition meets one unreduced pair); BatchedBackend
        sums stacked products in runs."""
        both = ctx.tensor_moduli
        sums = []
        for pairs in stacks:
            acc = None
            for pair in pairs:
                self.record("cmult")
                (e,) = ctx.tensor_products([pair])
                acc = e % _moduli_column(both) if acc is None else self.add(acc, e, both)
            sums.append(acc)
        return np.array(sums)

    def cmult_batch(self, ctx, pairs, rlk):
        """Relinearised products of independent CMults (one FBS ladder
        level, or one pair): per (a, b) pair, the tensor of the centred
        lifts scaled by t/Q and rounded, its quadratic term folded back to
        degree one by ``rlk``.

        One dispatch-free body for every engine: the operands without a
        Q u P form enter it in one stacked pass, then per chunk of at most
        :data:`CMULT_BATCH_ELEMS` digit elements the tensors share one
        scale-round, one :meth:`keyswitch` of the (B, L, N) quadratic
        components and one call per correction add.
        """
        chunk = cmult_chunk(ctx.params)
        ctx.tensor_forms([ct for pair in pairs for ct in pair])
        out = []
        for lo in range(0, len(pairs), chunk):
            part = pairs[lo : lo + chunk]
            self.record("cmult", len(part))
            self.record("keyswitch", len(part))
            out += self._relinearise(ctx, ctx.tensor_products(part), rlk,
                                     [ctx.cmult_noise([pair]) for pair in part])
        return out

    def _relinearise(self, ctx, e, rlk, noises):
        """The (B, 3, L+K, N) tensors ``e`` as B ciphertexts: one scale-round,
        one :meth:`keyswitch` of the quadratic components, the correction adds."""
        from repro.fhe.bfv import BfvCiphertext
        from repro.fhe.poly import RnsPoly

        moduli = ctx.params.moduli
        r = ctx.tensor_scale_round(e)
        d0, d1 = self.keyswitch(r[:, 2], rlk, moduli)
        c0, c1 = self.add(r[:, 0], d0, moduli), self.add(r[:, 1], d1, moduli)
        return [BfvCiphertext(RnsPoly(x, moduli), RnsPoly(y, moduli), ctx.params, noise)
                for x, y, noise in zip(c0, c1, noises)]

    def lincomb(self, stack, coeffs, moduli):
        """Row g of the (G, 2C, L, N) result is ``sum_j coeffs[g, j] *
        stack[j]`` over a (J, 2C, L, N) stack of C ciphertexts and a (G, J)
        matrix of small signed integers (FBS baby steps: one row per group);
        a zero coefficient is no term, an empty row the zero ciphertext.

        Reference: per nonzero term one scalar product per component, per
        row one HAdd chain. BatchedBackend: one exact matrix product.
        """
        out = np.zeros((len(coeffs),) + stack.shape[1:], dtype=np.int64)
        per = stack.shape[1] // 2  # the records count every ciphertext's ops
        for row, weights in zip(out, coeffs):
            terms = [[self.scalar_mul(comp, int(c), moduli) for comp in stack[j]]
                     for j, c in enumerate(weights) if c]
            self.record("smult", len(terms) * per)
            if terms:
                self.record("hadd", (len(terms) - 1) * per)
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

    def fbs(self, ctx, cts, lut, rlk):
        """Functional bootstrapping: evaluate a LUT polynomial on all slots
        of every ciphertext of the stack ``cts``, in lockstep."""
        from repro.fhe import fbs

        self.record("fbs", len(cts))
        return fbs.fbs_evaluate_impl(ctx, cts, lut, rlk)

    def s2c(self, ctx, ct, keys):
        """Slot-to-coefficient transform under its Galois ``keys``."""
        from repro.fhe import s2c

        self.record("s2c")
        return s2c.slot_to_coeff_impl(ctx, ct, keys)

    # -- instrumentation hooks ---------------------------------------------

    def record(self, op: str, k: int = 1) -> None:
        """Note ``k`` occurrences of primitive ``op`` (no-op here)."""

    def phase(self, name: str):
        """Label subsequent events with ``name`` (no-op context here)."""
        return contextlib.nullcontext()


class BatchedBackend(Backend):
    """Residue-stacked execution engine (the default hot path).

    RNS tier: the transforms (:meth:`mul`, :meth:`ntt`, :meth:`mul_ntt`)
    run the four-step float64 kernel over every limb at once; the
    element-wise ops are :class:`Backend`'s. Fused tier: a keyswitch runs
    one (D, L+K, N) forward NTT over its digits against cached NTT-domain
    key stacks (:class:`repro.fhe.keys.KeySwitchKey`), sums the products
    unreduced and pays one inverse and a word-sized mod-down; a mat-vec
    hoists every image of one ciphertext on one digit transform and its
    giants under one mod-down (:func:`hoisted_rotations`); a giant step sums
    its stacked products in runs. Bit-identical to the reference: the NTT is
    linear mod p.
    """

    name = "batched"
    rns_name = "batched"

    # -- RNS tier ----------------------------------------------------------

    def mul(self, a, b, moduli):
        return ntt_mul_rns(a, b, moduli)

    def ntt(self, a, moduli):
        return ntt_forward_rns(a, moduli)

    def mul_ntt(self, a, fb, moduli):
        fa = ntt_forward_rns(a, moduli)
        return ntt_inverse_rns(fa * fb % _moduli_column(moduli), moduli)

    # -- fused tier --------------------------------------------------------

    def hadd_many(self, arrays, moduli):
        if len(arrays) == 1:
            return arrays[0]
        return lazy_reduce_sum(np.array(arrays), moduli)

    def keyswitch(self, data, ksk, moduli):
        return _stacked_keyswitch(data, ksk, moduli)

    def matvec(self, vec, plan, rotation_keys, moduli):
        """The mat-vec without leaving the evaluation domain.

        Ready sources are used as handed in. Otherwise one stacked forward
        NTT of (c0, c1) into an (S, 2, L, N) source array, and every image
        of one parent shares one digit transform (:func:`hoisted_rotations`):
        the babies and the row swap ride on c1's, the swap's babies on the
        swapped c1's. Per chunk under :data:`GIANT_BATCH_ELEMS` a group
        gathers its rows once and sums its products unreduced, one ``%`` per
        run of :func:`lazy_product_limit`. The giants are one
        :func:`hoisted_rotations` sum under one mod-down. Bit-identical to
        the reference: the NTT is a ring isomorphism mod each prime, and
        both bodies round the same sum over Q u P.
        """
        n = vec.shape[-1]
        mods = _moduli_column(moduli)
        if vec.ndim == 4:
            src = vec
        else:
            size = 1 + max(max(ids) for _, ids, _ in plan.groups)  # the swap is below a live id
            src = np.empty((size, 2, len(moduli), n), dtype=np.int64)
            src[0] = ntt_forward_rns(vec, moduli)
            for parent, images in plan.derived:
                ids, elements = zip(*images)
                c1 = ntt_inverse_rns(src[parent, 1], moduli) if parent else vec[1]
                src[list(ids)] = hoisted_rotations(
                    src[parent, 0], c1, elements, rotation_keys, moduli)
        chunk = max(1, GIANT_BATCH_ELEMS // (2 * len(moduli) * n))
        run = lazy_product_limit(moduli)
        parts = np.empty((len(plan.groups), 2, len(moduli), n), dtype=np.int64)
        for part, (_, ids, stack) in zip(parts, plan.groups):
            sums = []
            for lo in range(0, len(ids), chunk):
                rows, diags = src[list(ids[lo : lo + chunk])], stack[lo : lo + chunk]
                sums += [np.einsum("tcln,tln->cln", rows[r : r + run], diags[r : r + run])
                         for r in range(0, len(rows), run)]
            part[...] = lazy_reduce_sum(np.stack(sums) % mods, moduli)
        elements = [rotation_galois_element(n, g * plan.baby_steps) for g, _, _ in plan.groups if g]
        head = len(parts) - len(elements)  # group 0, when live, is not rotated
        out = parts[0] if head else 0
        if elements:
            out = (out + hoisted_rotations(parts[head:, 0], ntt_inverse_rns(
                parts[head:, 1], moduli), elements, rotation_keys, moduli)) % mods
        out = ntt_inverse_rns(out, moduli)
        return out[0], out[1]

    def _tensor_sums(self, ctx, stacks):
        both = ctx.tensor_moduli
        mods, run = _moduli_column(both), lazy_product_limit(both)
        # A chunk of G' pairs peaks at 7 (G', L+K, N) operand and product
        # rows. Each ciphertext's components sum in runs of `run` products
        # (the middle holds two a pair), one % a run (cmult_bounds: "lazy_sum").
        chunk = max(1, GIANT_BATCH_ELEMS // (7 * len(both) * ctx.params.n))
        e = np.zeros((len(stacks), 3, len(both), ctx.params.n), dtype=np.int64)
        for acc, pairs in zip(e, stacks):
            for lo in range(0, len(pairs), chunk):
                products = ctx.tensor_products(pairs[lo : lo + chunk])
                for comp, pairs_a_run in ((slice(0, 3, 2), run), (1, run // 2)):
                    runs = np.add.reduceat(products[:, comp], range(0, len(products), pairs_a_run))
                    acc[comp] += (runs % mods).sum(axis=0)
        return e

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
    are overridden: each RNS call is counted, then delegated to ``inner``,
    so every op above runs :class:`Backend`'s reference body (2–4× the
    batched engine's time on an inference) and every count is a primitive
    that ran. ``phase -> {op: count}`` records hold RNS-tier work in the
    analytical model's units (:mod:`repro.core.trace`) — ``ntt`` (limb
    transforms), ``mod_mul`` / ``mod_add`` (elements), ``automorph`` /
    ``shift`` (one index map per limb per call), ``rnsconv`` (base-conversion
    outputs) — and the events bodies and dispatch sites record (``pmult``,
    ``hadd``, ``cmult``, ``rotation``, ``keyswitch``, ``extract``, ``fbs``,
    ``s2c``, ...).

    ``phase_s`` accumulates *self*-seconds per phase label of that counted
    stream (production per-phase seconds come from an uncounted run). A
    nested phase pauses its parent (``fbs_giant`` inside ``fbs``); under a
    thread fan-out each worker adds to the same labels, so the sum is busy
    time. The label is thread-local and the store lock-protected, so one
    recorder may be shared across a fan-out.
    :func:`repro.core.trace.executed_trace` views the records as a
    :class:`~repro.core.trace.WorkloadTrace`.
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
