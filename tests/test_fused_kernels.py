"""Fused-kernel tier: counting parity, bit-identity, and lazy-reduction safety.

Four claims pinned here:

1. *Counting parity* — a fused op is counted exactly once, in the
   primitive units the decomposed path would have dispatched. Pinned two
   ways: CountingBackend totals are identical whether its inner engine
   fuses (``batched``) or decomposes (``serial``) — the double-count
   regression — and the bulk-counted units match what a
   counting backend *without* the fused overrides records organically
   when the default decompositions drive its primitive counters.
2. *Bit-identity* — the batched fused kernels (stacked NTT keyswitch,
   fused rotate, the summed giant-step tensor) produce byte-for-byte the
   same results as the decomposed defaults and the serial reference.
3. *Lazy-reduction safety* — :func:`lazy_reduce_sum` equals the exact
   (arbitrary-precision) fold for any chain of reduced residues, and
   :func:`lazy_chain_limit` leaves orders-of-magnitude headroom over the
   longest chains the engine forms (keyswitch digit axes, HAdd fan-ins) for
   every parameter preset.
4. *One rotation, one mat-vec* — the evaluation-domain mat-vec of the
   batched engine equals the reference body and the composite spelled out
   from public ciphertext ops, executes the transform count it was built
   for, and rests on a permutation table checked against the coefficient-
   domain automorphism on every preset.
5. *Sources* — S2C is that one mat-vec over the rotations of a ciphertext
   and of its row swap; packing is it over the packing key's cached stack
   of rotated secrets. Both are bit-identical across the engines and pay
   only the rotations nobody else already paid.
6. *One relinearisation per LUT* — a whole FBS keyswitches once per ladder
   CMult and once for its giant-step combination, every CMult operand
   enters the evaluation domain of Q u P once, and nothing on the request
   path lifts a residue stack to Python integers; counted, not timed.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.framework import AthenaPipeline
from repro.errors import ParameterError
from repro.fhe import backend as backend_mod
from repro.fhe import bfv as bfv_mod
from repro.fhe import keys as keys_mod
from repro.fhe import packing as packing_mod
from repro.fhe import rns as rns_mod
from repro.fhe.backend import (
    BATCHED,
    SERIAL,
    Backend,
    BatchedBackend,
    CountingBackend,
    lazy_chain_limit,
    lazy_reduce_sum,
    ntt_automorphism_perm,
    use_backend,
)
from repro.fhe.bfv import BfvCiphertext, BfvContext, Plaintext, galois_noise_growth
from repro.fhe.fbs import FbsLut, FbsPlan, fbs_evaluate
from repro.fhe.keys import apply_keyswitch
from repro.fhe.lwe import LweBatch
from repro.fhe.ntt import ntt_forward_rns, ntt_inverse_rns
from repro.fhe.packing import (
    MatvecPlan,
    PackingKey,
    hypercube_diagonals,
    hypercube_matvec,
    pack_lwe,
)
from repro.fhe.params import PRESETS, TEST_FBS, TEST_LOOP, TEST_SMALL, TEST_TINY
from repro.fhe.poly import RnsPoly
from repro.fhe.s2c import S2CKey, S2CPlan, _evaluation_matrix, slot_to_coeff
from repro.fhe.slots import (
    baby_giant_amounts,
    rotation_galois_element,
    row_swap_element,
)
from tests.conftest import keyswitch_noise_bound

_slow = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class DecomposedCounting(CountingBackend):
    """Counting backend with the fused-tier overrides removed.

    The fused ops fall back to the ``Backend`` default decompositions,
    whose ``self.add`` / ``self.mul`` / ``self.automorphism`` calls land
    on CountingBackend's primitive counters — so this backend counts the
    decomposed op stream *organically*, one primitive at a time. Its
    totals are the ground truth the bulk ``_keyswitch_units`` formulas
    must reproduce.
    """

    hadd_many = Backend.hadd_many
    keyswitch = Backend.keyswitch
    rotate_keyswitch = Backend.rotate_keyswitch
    giant_step_batch = Backend.giant_step_batch
    matvec = Backend.matvec


def _fixture():
    ctx = BfvContext(TEST_FBS, seed=1234)
    sk, pk = ctx.keygen()
    rlk = ctx.relin_key(sk)
    gk = ctx.galois_key(sk, rotation_galois_element(TEST_FBS.n, 1))
    rng = np.random.default_rng(99)
    cts = [
        ctx.encrypt(
            Plaintext.from_coeffs(rng.integers(0, TEST_FBS.t, TEST_FBS.n), TEST_FBS),
            pk,
        )
        for _ in range(3)
    ]
    return ctx, sk, rlk, gk, cts


def _run_workload(be, ctx, rlk, gk, cts):
    """One of each fused op; returns the concatenated result arrays."""
    moduli = ctx.params.moduli
    a, b, c = cts
    k = rotation_galois_element(ctx.params.n, 1)
    d0, d1 = be.keyswitch(a.c1.data, rlk, moduli)
    r0, r1 = be.rotate_keyswitch(a.c0.data, a.c1.data, k, gk, moduli)
    prod = be.giant_step_batch(ctx, [(a, b), (b, c), (a, c)], rlk)
    s = be.hadd_many([a.c0.data, b.c0.data, c.c0.data, a.c1.data], moduli)
    return [d0, d1, r0, r1, s, prod.c0.data, prod.c1.data]


class TestCountingParity:
    def test_counts_independent_of_inner_fusion(self):
        """Regression for the double-count bug: totals must not depend on
        whether the delegated-to engine fuses or decomposes."""
        ctx, _, rlk, gk, cts = _fixture()
        fused = CountingBackend(BATCHED)
        unfused = CountingBackend(SERIAL)
        out_f = _run_workload(fused, ctx, rlk, gk, cts)
        out_u = _run_workload(unfused, ctx, rlk, gk, cts)
        assert fused.totals() == unfused.totals()
        assert fused.ops_by_phase() == unfused.ops_by_phase()
        for x, y in zip(out_f, out_u):
            assert np.array_equal(x, y)

    def test_bulk_units_match_organic_decomposed_counts(self):
        """The ``_keyswitch_units`` formulas equal the primitive stream the
        default decompositions actually dispatch."""
        ctx, _, rlk, gk, cts = _fixture()
        bulk = CountingBackend(BATCHED)
        organic = DecomposedCounting(BATCHED)
        out_b = _run_workload(bulk, ctx, rlk, gk, cts)
        out_o = _run_workload(organic, ctx, rlk, gk, cts)
        assert bulk.totals() == organic.totals()
        for x, y in zip(out_b, out_o):
            assert np.array_equal(x, y)

    def test_giant_step_batch_bills_one_keyswitch(self):
        """G products, G - 1 three-component additions over Q u P, then one
        keyswitch and its two correction adds — whichever body runs."""
        ctx, _, rlk, _, (a, b, c) = _fixture()
        params = ctx.params
        l, n = len(params.moduli), params.n
        wide = len(ctx.tensor_moduli)
        assert len(rlk.k0) == l and len(rlk.moduli) == l + 1
        totals = []
        for counting in (CountingBackend(BATCHED), CountingBackend(SERIAL),
                         DecomposedCounting(BATCHED)):
            counting.giant_step_batch(ctx, [(a, b), (b, c), (a, c)], rlk)
            totals.append(counting.totals())
        assert totals[0] == totals[1] == totals[2] == {
            "cmult": 3,
            "keyswitch": 1,
            "ntt": 6 * l * (l + 1),
            "mod_mul": 2 * l * (l + 1) * n,
            "mod_add": 2 * l * (l + 1) * n + 2 * l * n + 2 * 3 * wide * n,
            "rnsconv": 2 * l * n,
        }

    def test_keyswitch_unit_formula(self):
        """One keyswitch = per digit (one per limb): two full products + two
        adds over the L + 1 limbs of Q u {P}; then both mod-downs."""
        ctx, _, rlk, _, cts = _fixture()
        params = ctx.params
        l, n = len(params.moduli), params.n
        counting = CountingBackend(BATCHED)
        counting.keyswitch(cts[0].c1.data, rlk, params.moduli)
        assert counting.totals() == {
            "ntt": 6 * l * (l + 1),
            "mod_mul": 2 * l * (l + 1) * n,
            "mod_add": 2 * l * (l + 1) * n,
            "rnsconv": 2 * l * n,
        }


class TestFusedBitIdentity:
    """Batched fused kernels == decomposed defaults == serial reference."""

    def test_all_fused_ops_identical_across_backends(self):
        ctx, _, rlk, gk, cts = _fixture()
        rlk.warm()
        gk.warm()
        baseline = _run_workload(BATCHED, ctx, rlk, gk, cts)
        for be in (SERIAL, CountingBackend(SERIAL), CountingBackend(BATCHED)):
            outs = _run_workload(be, ctx, rlk, gk, cts)
            for x, y in zip(baseline, outs):
                assert np.array_equal(x, y), be.name

    def test_fused_ops_decrypt_correctly(self):
        """The fused giant step is a real relinearized sum of CMults."""
        ctx, sk, rlk, _, cts = _fixture()
        a, b, c = cts
        t = ctx.params.t
        ma, mb, mc = (ctx.decrypt(x, sk).coeffs.tolist() for x in cts)
        from repro.fhe.ntt import negacyclic_mul_exact

        ab = np.array(negacyclic_mul_exact(ma, mb))
        prod = BATCHED.giant_step_batch(ctx, [(a, b)], rlk)
        assert np.array_equal(ctx.decrypt(prod, sk).coeffs, ab % t)
        total = BATCHED.giant_step_batch(ctx, [(a, b), (b, c)], rlk)
        expect = (ab + np.array(negacyclic_mul_exact(mb, mc))) % t
        assert np.array_equal(ctx.decrypt(total, sk).coeffs, expect)


# --- lazy-reduction safety ----------------------------------------------------

_presets = st.sampled_from(sorted(PRESETS))
_chain_lengths = st.integers(min_value=1, max_value=96)


class TestLazyReduction:
    @given(_presets, _chain_lengths, st.integers(min_value=0, max_value=2**32))
    @_slow
    def test_lazy_sum_equals_exact_fold(self, preset, k, seed):
        """lazy_reduce_sum == the arbitrary-precision sum mod p, for reduced
        residue chains at every preset's modulus sizes."""
        params = PRESETS[preset]
        moduli = params.moduli
        rng = np.random.default_rng(seed)
        # Worst-case reduced inputs: residues up to max(p) - 1 on every limb.
        stack = rng.integers(0, max(moduli), (k, len(moduli), 8), dtype=np.int64)
        got = lazy_reduce_sum(stack, moduli)
        mods = np.array(moduli, dtype=np.int64)[:, None]
        exact = stack.astype(object).sum(axis=0) % mods
        assert got.dtype == np.int64
        assert np.array_equal(got, exact.astype(np.int64))

    @given(_presets)
    @settings(max_examples=len(PRESETS), deadline=None)
    def test_chain_limit_is_int64_safe_and_tight(self, preset):
        """k residues of max(p)-1 fit in int64 iff k <= lazy_chain_limit."""
        moduli = PRESETS[preset].moduli
        limit = lazy_chain_limit(moduli)
        peak = max(moduli) - 1
        assert limit * peak <= 2**63 - 1
        assert (limit + 1) * peak > 2**63 - 1

    def test_headroom_over_longest_engine_chains(self):
        """The longest lazy chains the engine forms — the digit axis of a
        keyswitch (one digit per limb, summed over Q u {P}) and the
        slot-count HAdd fan-ins — sit orders of magnitude below the
        overflow bound at every preset."""
        for params in PRESETS.values():
            limit = lazy_chain_limit(params.keyswitch_moduli)
            longest = max(len(params.moduli), params.n)
            assert limit >= 1000 * longest, params.name

    def test_chunked_fold_beyond_limit(self):
        """Chains longer than the limit fold in overflow-safe chunks and
        still match the exact sum (forced with a 62-bit modulus)."""
        moduli = ((1 << 62) - 57,)
        limit = lazy_chain_limit(moduli)
        assert limit == 2  # the chunk path actually engages below
        rng = np.random.default_rng(8)
        stack = rng.integers(0, moduli[0], (11, 1, 16), dtype=np.int64)
        got = lazy_reduce_sum(stack, moduli)
        exact = stack.astype(object).sum(axis=0) % moduli[0]
        assert np.array_equal(got, exact.astype(np.int64))

    def test_single_and_empty_axis_shapes(self):
        moduli = PRESETS["test-tiny"].moduli
        stack = np.arange(2 * 8, dtype=np.int64).reshape(1, 2, 8)
        assert np.array_equal(lazy_reduce_sum(stack, moduli), stack[0])


# --- one rotation definition, one mat-vec --------------------------------------


class TestRotation:
    """``rotate_keyswitch``: c1's residue rows are the digits; apply X -> X^k
    to them."""

    def test_fast_equals_reference_and_rotates_the_plaintext(self):
        ctx, sk, _, gk, cts = _fixture()
        params = ctx.params
        ct = cts[0]
        k = rotation_galois_element(params.n, 1)
        fast = BATCHED.rotate_keyswitch(ct.c0.data, ct.c1.data, k, gk, params.moduli)
        ref = SERIAL.rotate_keyswitch(ct.c0.data, ct.c1.data, k, gk, params.moduli)
        for x, y in zip(fast, ref):
            assert np.array_equal(x, y)
        out = ctx.apply_galois(ct, k, gk)
        assert np.array_equal(out.c0.data, fast[0]) and np.array_equal(out.c1.data, fast[1])
        want = np.roll(ctx.decrypt(ct, sk).to_slots().reshape(2, -1), -1, axis=1)
        assert np.array_equal(ctx.decrypt(out, sk).to_slots(), want.reshape(-1))

    def test_noise_matches_rotating_before_decomposing(self):
        """Same noise term as automorphism-then-keyswitch, composed here
        from public ops: the measured noise stays within a bit of it and
        under the ciphertext's own plus the hybrid bound ``L * N * 6 sigma *
        max(q_i) / P + (N + 1) / 2`` (``repro.fhe.keys``). And in absolute
        terms: one Galois keyswitch of a fresh ciphertext reads at most 10
        bits (7.9 at both; the base-2^w gadget read 21.3 at TEST_LOOP, 18.7 at
        TEST_FBS)."""
        ctx, sk, _, gk, cts = _fixture()
        params = ctx.params
        k = rotation_galois_element(params.n, 1)
        for ct in cts:
            d0, d1 = apply_keyswitch(ct.c1.automorphism(k), gk)
            old = BfvCiphertext(ct.c0.automorphism(k) + d0, d1, params, 0.0)
            new = ctx.apply_galois(ct, k, gk)
            measured = ctx.true_noise_bits(new, sk)
            assert abs(measured - ctx.true_noise_bits(old, sk)) <= 1.0
            assert 2**measured <= 2 ** ctx.true_noise_bits(ct, sk) + keyswitch_noise_bound(params)
            assert np.array_equal(ctx.decrypt(new, sk).coeffs, ctx.decrypt(old, sk).coeffs)
        for params in (TEST_LOOP, TEST_FBS):
            ctx = BfvContext(params, seed=1)
            sk, pk = ctx.keygen()
            gk = ctx.galois_key(sk, rotation_galois_element(params.n, 1))
            values = np.random.default_rng(0).integers(0, params.t, params.n)
            ct = ctx.encrypt(Plaintext.from_slots(values, params), pk)
            rotated = ctx.apply_galois(ct, rotation_galois_element(params.n, 1), gk)
            assert ctx.true_noise_bits(rotated, sk) <= 10, params.name

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_evaluation_domain_permutation(self, preset, seed):
        """ntt(automorphism(a, k)) == ntt(a)[..., perm_k] on every limb, for
        random odd k, on every preset (the paper's ring included)."""
        params = PRESETS[preset]
        n, moduli = params.n, params.moduli
        rng = np.random.default_rng(seed)
        k = 2 * int(rng.integers(0, n)) + 1
        a = rng.integers(0, min(moduli), (len(moduli), n), dtype=np.int64)
        rotated = ntt_forward_rns(BATCHED.automorphism(a, k, moduli), moduli)
        perm = ntt_automorphism_perm(n, k)
        assert np.array_equal(rotated, ntt_forward_rns(a, moduli)[..., perm])
        assert np.array_equal(SERIAL.automorphism(a, k, moduli),
                              BATCHED.automorphism(a, k, moduli))


def _composite_matvec(ctx, ct, diagonals, keys, baby_steps):
    """The BSGS product spelled out from public ciphertext ops; a second
    pass of ``diagonals`` meets the row-swapped ciphertext."""
    params = ctx.params
    half = params.n // 2
    passes = diagonals.reshape(-1, half, params.n)
    bases = [ct] if len(passes) == 1 else [ct, ctx.row_swap(ct, keys)]
    babies, parts = {}, []
    for p, base in enumerate(bases):  # every source, in the op's order
        for b in range(baby_steps):
            if passes[p, b::baby_steps].any():
                babies[p, b] = ctx.rotate_slots(base, b, keys)
    for g in range(-(-half // baby_steps)):
        terms = []
        for p, b in ((p, b) for p in range(len(passes)) for b in range(baby_steps)):
            d = g * baby_steps + b
            if d >= half or not passes[p, d].any():
                continue
            rolled = np.concatenate([np.roll(passes[p, d, :half], g * baby_steps),
                                     np.roll(passes[p, d, half:], g * baby_steps)])
            terms.append(ctx.pmult(babies[p, b], Plaintext.from_slots(rolled, params)))
        if terms:
            inner = ctx.add_many(terms)
            parts.append(ctx.rotate_slots(inner, g * baby_steps, keys) if g else inner)
    return ctx.add_many(parts)


@pytest.fixture(scope="module", params=[TEST_TINY, TEST_SMALL, TEST_FBS, TEST_LOOP],
                ids=lambda p: p.name)
def matvec_setup(request):
    params = request.param
    ctx = BfvContext(params, seed=77)
    sk, pk = ctx.keygen()
    key = S2CKey.generate(ctx, sk)
    rng = np.random.default_rng(78)
    ct = ctx.encrypt(Plaintext.from_slots(rng.integers(0, params.t, params.n), params), pk)
    return ctx, sk, key, ct


def _assert_same_ciphertext(a, b):
    assert np.array_equal(a.c0.data, b.c0.data)
    assert np.array_equal(a.c1.data, b.c1.data)
    assert a.noise_bits == b.noise_bits


def _three_ways(ctx, ct, diagonals, keys, baby_steps, fast=BATCHED):
    """Fast body, reference body and the spelled-out composite must agree
    bit for bit (noise estimate included); returns the fast result."""
    plan = MatvecPlan.build(diagonals, ctx.params, baby_steps)
    with use_backend(fast):
        got = hypercube_matvec(ctx, ct, plan, keys)
    with use_backend(SERIAL):
        _assert_same_ciphertext(got, hypercube_matvec(ctx, ct, plan, keys))
    with use_backend(BATCHED):
        _assert_same_ciphertext(
            got, _composite_matvec(ctx, ct, diagonals, keys, baby_steps))
    return got


def _s2c_passes(params):
    """Both diagonal sets of the S2C matrix: (direct, crossed)."""
    half = params.n // 2
    p = _evaluation_matrix(params.n, params.t)
    return np.stack([hypercube_diagonals(p[:half, :half], p[half:, half:], half),
                     hypercube_diagonals(p[:half, half:], p[half:, :half], half)])


class TestMatvecBitIdentity:
    def test_s2c_plans_and_a_dense_matrix(self, matvec_setup):
        ctx, sk, key, ct = matvec_setup
        params = ctx.params
        half = params.n // 2
        both = _s2c_passes(params)
        dense = np.random.default_rng(5).integers(
            -(params.t // 2), params.t // 2 + 1, (half, params.n))
        v = ctx.decrypt(ct, sk).to_slots().reshape(2, half)
        sources = (v, v[::-1])  # the second pass reads the row swap
        for diagonals in (both[0], both[1], dense, both):
            got = _three_ways(ctx, ct, diagonals, key.rotation_keys, key.baby_steps)
            passes = diagonals.reshape(-1, half, params.n)
            want = sum(passes[p, d].reshape(2, half) * np.roll(sources[p], -d, axis=1)
                       for p in range(len(passes)) for d in range(half)) % params.t
            assert np.array_equal(ctx.decrypt(got, sk).to_slots(), want.reshape(-1))
        # The whole S2C: slots become coefficients.
        assert np.array_equal(ctx.decrypt(got, sk).coeffs, v.reshape(-1))

    def test_sparse_matrices(self, matvec_setup):
        ctx, _, key, ct = matvec_setup
        params = ctx.params
        half, bs = params.n // 2, key.baby_steps
        rng = np.random.default_rng(6)

        def sparse(rows):
            out = np.zeros((half, params.n), dtype=np.int64)
            out[rows] = rng.integers(1, params.t, (len(rows), params.n))
            return out

        dead_baby = sparse([d for d in range(half) if d % bs != 1])
        one_group = sparse(list(range(bs, 2 * bs)))
        one_diagonal = sparse([0])
        for diagonals in (dead_baby, one_group, one_diagonal):
            _three_ways(ctx, ct, diagonals, key.rotation_keys, bs)
        ((parent, images),) = MatvecPlan.build(dead_baby, params, bs).derived
        assert parent == 0 and [s for s, _ in images] == list(range(2, bs))
        assert len(MatvecPlan.build(one_group, params, bs).groups) == 1
        assert MatvecPlan.build(one_diagonal, params, bs).derived == ()

    def test_baby_steps_one_and_chunked_products(self, monkeypatch):
        params = TEST_TINY
        ctx = BfvContext(params, seed=79)
        sk, pk = ctx.keygen()
        half = params.n // 2
        rng = np.random.default_rng(80)
        ct = ctx.encrypt(Plaintext.from_slots(rng.integers(0, params.t, params.n), params), pk)
        dense = rng.integers(0, params.t, (half, params.n))
        _three_ways(ctx, ct, dense, ctx.rotation_keys(sk, baby_giant_amounts(half, 1)), 1)

        # A one-element budget: every diagonal product is its own chunk.
        tight = BatchedBackend()
        tight.giant_batch_elems = 1
        sums = []
        real = backend_mod.lazy_reduce_sum

        def spy(stack, moduli, axis=0):
            sums.append(stack.shape)
            return real(stack, moduli, axis)

        monkeypatch.setattr(backend_mod, "lazy_reduce_sum", spy)
        bs = math.isqrt(half)
        keys = ctx.rotation_keys(sk, baby_giant_amounts(half, bs))
        _three_ways(ctx, ct, dense, keys, bs, fast=tight)
        one_term = (1, 2, len(params.moduli), params.n)
        assert sums.count(one_term) == half  # unchunked: one sum per group

    def test_missing_key_and_wrong_shape_raise(self, matvec_setup):
        ctx, _, key, ct = matvec_setup
        params = ctx.params
        plan = S2CPlan.build(params, key.baby_steps).matvec
        for k in (rotation_galois_element(params.n, key.baby_steps),  # a giant
                  rotation_galois_element(params.n, 1),  # a baby, both passes
                  row_swap_element(params.n)):
            without = {e: gk for e, gk in key.rotation_keys.items() if e != k}
            for be in (BATCHED, SERIAL, CountingBackend(BATCHED)):
                with use_backend(be), pytest.raises(ParameterError, match=f"element {k}$"):
                    hypercube_matvec(ctx, ct, plan, without)
        for shape in ((params.n, params.n), (3, params.n // 2, params.n)):
            with pytest.raises(ParameterError, match="wrong shape"):
                MatvecPlan.build(np.zeros(shape, dtype=np.int64), params, key.baby_steps)


def _pack_setup(params, seed=3):
    """A pipeline's keys plus ``batch(count)``: LWE samples of a fresh
    ciphertext's first ``count`` coefficients, and those coefficients."""
    pipe = AthenaPipeline(params, seed=seed)
    values = np.random.default_rng(seed).integers(0, params.t, params.n)
    ct = pipe.encrypt_coeffs(values)
    return pipe, values, lambda count: pipe.refresh_to_lwe(ct, np.arange(count))


def _spy_transforms(monkeypatch):
    """Count limb transforms and CRT lifts to Python integers as they
    execute."""
    executed = {"limb_transforms": 0, "crt_lifts": 0}

    def spy(module, name, unit):
        real = getattr(module, name)

        def wrapper(a, *args, **kwargs):
            executed[unit] += a.size // a.shape[-1] if unit == "limb_transforms" else 1
            return real(a, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(backend_mod, "ntt_forward_rns", "limb_transforms")
    spy(backend_mod, "ntt_inverse_rns", "limb_transforms")
    # The CMult tensor's own transforms, over Q u P (none in a mat-vec).
    spy(bfv_mod, "ntt_forward_rns", "limb_transforms")
    spy(bfv_mod, "ntt_inverse_rns", "limb_transforms")
    # The lift to Python integers: every site on the ciphertext path reaches
    # it as ``rns.from_rns_object`` (none binds the name), so one spy sees all.
    for module in (backend_mod, keys_mod, bfv_mod, packing_mod):
        assert not hasattr(module, "from_rns_object")
    spy(rns_mod, "from_rns_object", "crt_lifts")
    return executed


class TestMatvecAccounting:
    def test_counting_parity(self, matvec_setup):
        """One mat-vec bills the same totals and per-phase events whether
        the wrapper's bulk formula, or the reference body's own dispatches
        on a wrapper without the fused overrides, do the counting."""
        ctx, _, key, ct = matvec_setup
        plan = S2CPlan.build(ctx.params, key.baby_steps).matvec
        records = []
        for counting in (CountingBackend(BATCHED), CountingBackend(SERIAL),
                         DecomposedCounting(BATCHED)):
            with use_backend(counting), counting.phase("s2c"):
                hypercube_matvec(ctx, ct, plan, key.rotation_keys)
            records.append((counting.totals(), counting.ops_by_phase()))
        assert records[0] == records[1] == records[2]
        totals = records[0][0]
        bs = key.baby_steps
        gs = -(-ctx.params.n // 2 // bs)
        # Both passes' babies, the row swap, one merged giant per group.
        assert totals["rotation"] == totals["keyswitch"] == 2 * (bs - 1) + 1 + (gs - 1)
        assert totals["pmult"] == ctx.params.n and totals["hadd"] == ctx.params.n - 1
        assert totals["matvec"] == 1
        if ctx.params is TEST_LOOP:
            assert totals["rotation"] == 22  # two passes and a swap billed 29

    @pytest.mark.parametrize("params", [TEST_FBS, TEST_LOOP], ids=lambda p: p.name)
    def test_packing_bills_products_only(self, params):
        """Same three-way parity for packing's shape, whose sources come
        ready: a PMult per live diagonal, no rotation, no keyswitch."""
        pipe, _, batch = _pack_setup(params)
        lwe = batch(params.n // 2 + 3)
        records = []
        for counting in (CountingBackend(BATCHED), CountingBackend(SERIAL),
                         DecomposedCounting(BATCHED)):
            with use_backend(counting):
                pack_lwe(pipe.ctx, lwe, pipe.packing_key)
            records.append((counting.totals(), counting.ops_by_phase()))
        assert records[0] == records[1] == records[2]
        totals = records[0][0]
        assert totals["pmult"] == params.n // 2 and totals["hadd"] == params.n // 2 - 1
        assert totals["matvec"] == totals["pack"] == 1
        assert not {"rotation", "keyswitch", "automorph"} & set(totals)

    def test_executed_transforms_of_one_s2c_matvec(self, monkeypatch):
        """The work the fast body was built to avoid, pinned where it is
        done: limb transforms and big-integer lifts of one whole S2C at
        TEST_LOOP. Two passes, a coefficient-domain row swap and an add
        executed 3 276 transforms and 17 decompositions; nine base-2^14
        decompositions of 20 digits each, 1 728 and 9 lifts."""
        pipe = AthenaPipeline(TEST_LOOP, seed=81)
        plan = S2CPlan.build(TEST_LOOP)
        ct = pipe.ctx.encrypt(
            Plaintext.from_slots(np.arange(TEST_LOOP.n), TEST_LOOP), pipe.pk)
        executed = _spy_transforms(monkeypatch)
        with use_backend(BATCHED):
            slot_to_coeff(pipe.ctx, ct, pipe.s2c_key, plan=plan)
        assert len(plan.matvec.groups) == 8
        assert executed == {"limb_transforms": 1358, "crt_lifts": 0}

    def test_executed_transforms_of_one_pack(self, monkeypatch):
        """One ``pack_lwe`` of 43 LWE samples at TEST_LOOP: the request's own
        diagonals (64 x 9 limbs) and one stacked inverse. Rotating the
        secret on every request executed 2 115 and 8."""
        pipe, _, batch = _pack_setup(TEST_LOOP)
        lwe = batch(43)
        executed = _spy_transforms(monkeypatch)
        with use_backend(BATCHED):
            pack_lwe(pipe.ctx, lwe, pipe.packing_key)
        assert executed == {"limb_transforms": 594, "crt_lifts": 0}


    def test_executed_transforms_of_one_keyswitch(self, monkeypatch):
        """One standalone keyswitch at TEST_LOOP: the (L, L+1, N) digit
        transform and the (2, L+1, N) inverse, L (L + 1) + 2 (L + 1) = 110.
        Twenty base-2^14 digits over nine limbs executed 198 and one lift."""
        ctx = BfvContext(TEST_LOOP, seed=84)
        sk, pk = ctx.keygen()
        rlk = ctx.relin_key(sk).warm()
        ct = ctx.encrypt(Plaintext.from_slots(np.arange(TEST_LOOP.n), TEST_LOOP), pk)
        executed = _spy_transforms(monkeypatch)
        BATCHED.keyswitch(ct.c1.data, rlk, TEST_LOOP.moduli)
        assert executed == {"limb_transforms": 110, "crt_lifts": 0}


class TestFbsAccounting:
    """One relinearisation per LUT and one Q u P entry per operand, as counts."""

    def test_executed_transforms_of_one_full_domain_fbs(self, monkeypatch):
        """The t = 257 ReLU table at TEST_LOOP: 30 ladder CMults and a
        15-term combination. One keyswitch per combination pair executed 45
        decompositions and 14 325 limb transforms (8 910 under keyswitches,
        5 415 in tensors that re-extended every operand); 31 base-2^14
        keyswitches of 198 transforms each, 9 387 and 31 lifts."""
        ctx = BfvContext(TEST_LOOP, seed=83)
        sk, pk = ctx.keygen()
        rlk = ctx.relin_key(sk).warm()
        lut = FbsLut.from_function(lambda x: np.maximum(x, 0), TEST_LOOP.t, "relu")
        plan = FbsPlan.from_lut(lut)
        x = np.random.default_rng(83).integers(0, TEST_LOOP.t, TEST_LOOP.n)
        ct = ctx.encrypt(Plaintext.from_slots(x, TEST_LOOP), pk)
        executed = _spy_transforms(monkeypatch)
        with use_backend(BATCHED):
            out = fbs_evaluate(ctx, ct, lut, rlk, plan=plan)
        assert executed == {"limb_transforms": 6659, "crt_lifts": 0}
        assert np.array_equal(ctx.decrypt(out, sk).to_slots(), lut.apply_plain(x))
        assert len(plan.ladder) == 30
        assert sum(1 for g, _, _ in plan.groups if g) == 15

    def test_counting_parity_of_one_fbs(self):
        """A whole FBS bills the same totals and per-phase events whether
        the wrapper's bulk formulas or the reference bodies' own dispatches
        count it: G + ladder CMults, ladder + 1 keyswitches."""
        ctx, _, rlk, _, (ct, *_) = _fixture()
        lut = FbsLut.from_function(lambda x: np.maximum(x, 0), TEST_FBS.t, "relu")
        plan = FbsPlan.from_lut(lut).materialize(TEST_FBS)  # constants encoded once
        records = []
        for counting in (CountingBackend(BATCHED), CountingBackend(SERIAL),
                         DecomposedCounting(BATCHED)):
            with use_backend(counting):
                fbs_evaluate(ctx, ct, lut, rlk, plan=plan)
            records.append((counting.totals(), counting.ops_by_phase()))
        assert records[0] == records[1] == records[2]
        giant = records[0][1]["fbs_giant"]
        assert giant["cmult"] == len(plan.ladder) + 15 == 45
        assert giant["keyswitch"] == len(plan.ladder) + 1 == 31


def _same_on_every_engine(run):
    """``run()`` under batched, serial and counting(batched): one result."""
    results = []
    for be in (BATCHED, SERIAL, CountingBackend(BATCHED)):
        with use_backend(be):
            results.append(run())
    for other in results[1:]:
        _assert_same_ciphertext(results[0], other)
    return results[0]


@pytest.fixture(scope="module", params=[TEST_SMALL, TEST_FBS, TEST_LOOP],
                ids=lambda p: p.name)
def pack_setup(request):
    return _pack_setup(request.param)


@lru_cache(maxsize=None)
def _fbs_s2c():
    """One pipeline for the hypothesis sweep (no fixture per example)."""
    return AthenaPipeline(TEST_FBS, seed=3), S2CPlan.build(TEST_FBS)


class TestSources:
    """S2C derives its sources from the request; packing's are key material."""

    def test_s2c_identical_on_every_engine(self, pack_setup):
        pipe, values, _ = pack_setup
        params = pipe.params
        ct = pipe.ctx.encrypt(Plaintext.from_slots(values, params), pipe.pk)
        plan = S2CPlan.build(params)
        out = _same_on_every_engine(
            lambda: slot_to_coeff(pipe.ctx, ct, pipe.s2c_key, plan=plan))
        assert np.array_equal(pipe.decrypt_coeffs(out), values)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_s2c_sweep_of_slot_vectors(self, seed):
        pipe, plan = _fbs_s2c()
        params = pipe.params
        rng = np.random.default_rng(seed)
        # Dense, sparse and constant vectors alike.
        values = rng.integers(0, params.t, params.n) * (rng.random(params.n) < rng.random())
        ct = pipe.ctx.encrypt(Plaintext.from_slots(values, params), pipe.pk)
        out = _same_on_every_engine(
            lambda: slot_to_coeff(pipe.ctx, ct, pipe.s2c_key, plan=plan))
        assert np.array_equal(pipe.decrypt_coeffs(out), values)

    def test_pack_identical_on_every_engine(self, pack_setup):
        pipe, _, batch = pack_setup
        params = pipe.params
        half = params.n // 2
        for count in (1, half - 1, half, half + 1, params.n):
            lwe = batch(count)
            out = _same_on_every_engine(
                lambda: pack_lwe(pipe.ctx, lwe, pipe.packing_key))
            # Homomorphic decryption: slot i holds b_i + <a_i, s'> exactly.
            want = np.zeros(params.n, dtype=np.int64)
            want[:count] = (lwe.b + lwe.a @ pipe.lwe_secret) % params.t
            assert np.array_equal(pipe.decrypt_slots(out), want)

    def test_all_zero_batch_is_the_transparent_zero(self, pack_setup):
        pipe, _, batch = pack_setup
        lwe = batch(5)
        lwe = LweBatch(np.zeros_like(lwe.a), lwe.b, lwe.modulus)
        out = _same_on_every_engine(lambda: pack_lwe(pipe.ctx, lwe, pipe.packing_key))
        assert out.noise_bits == 0.0 and not out.c1.data.any()
        assert np.array_equal(pipe.decrypt_slots(out)[:5], lwe.b)

    def test_rotated_secrets_are_the_rotations(self, pack_setup):
        pipe, _, _ = pack_setup
        params, key = pipe.params, pipe.packing_key
        half = params.n // 2
        stack, noise = key.rotated_secrets()
        assert stack.shape == (half, 2, len(params.moduli), params.n)
        assert key.rotated_secrets()[0] is stack and not stack.flags.writeable
        row = np.zeros(half, dtype=np.int64)
        row[: key.lwe_dim] = pipe.lwe_secret % params.t
        for d in range(half):
            c0, c1 = ntt_inverse_rns(stack[d], params.moduli)
            ct = BfvCiphertext(RnsPoly(c0, params.moduli), RnsPoly(c1, params.moduli),
                               params, noise[d])
            assert np.array_equal(pipe.decrypt_slots(ct), np.tile(np.roll(row, -d), 2))
        # At most two keyswitches deep, whatever d.
        growth = galois_noise_growth(params.n)
        fresh = key.encrypted_secret.noise_bits
        assert set(noise) == {fresh, fresh + growth, fresh + 2 * growth}

    def test_missing_galois_key_raises_when_the_stack_is_built(self):
        params = TEST_FBS
        ctx = BfvContext(params, seed=82)
        sk, pk = ctx.keygen()
        key = PackingKey.generate(ctx, np.ones(params.lwe_n, dtype=np.int64), sk, pk)
        k = rotation_galois_element(params.n, key.baby_steps)  # a giant's key
        del key.rotation_keys[k]
        for be in (BATCHED, SERIAL):
            with use_backend(be), pytest.raises(ParameterError, match=f"element {k}$"):
                key.rotated_secrets()

    def test_measured_noise_within_the_estimate_and_the_old_bodies(self):
        """TEST_LOOP, pipeline seed 3. The two-pass S2C measured 35.2 bits
        and the per-request rotations 34.9 (of a 270-bit Q): merged giants
        draw 7 fewer keyswitch terms, the stack's rows at most two each."""
        pipe, values, batch = _pack_setup(TEST_LOOP)
        ct = pipe.ctx.encrypt(Plaintext.from_slots(values, TEST_LOOP), pipe.pk)
        for out, before in ((pipe.to_coeffs(ct), 35.2),
                            (pack_lwe(pipe.ctx, batch(43), pipe.packing_key), 34.9)):
            measured = pipe.ctx.true_noise_bits(out, pipe.sk)
            assert measured <= out.noise_bits and measured <= before + 1

