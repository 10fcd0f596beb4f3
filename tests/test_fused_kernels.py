"""Fused-kernel tier: counting parity, bit-identity, and lazy-reduction safety.

The claims pinned here:

1. *Counting parity* — a counted fused op is its reference decomposition,
   each primitive counted as it runs: CountingBackend totals are
   identical whether its inner engine fuses (``batched``) or decomposes
   (``serial``) — the double-count regression — and equal the closed-form
   units of a keyswitch, a giant step, a mat-vec and a whole FBS.
2. *Bit-identity* — the batched fused kernels (stacked NTT keyswitch,
   fused rotate, the summed giant-step tensor) produce byte-for-byte the
   same results as the decomposed defaults and the serial reference.
3. *Lazy-reduction safety* — :func:`lazy_reduce_sum` equals the exact
   (arbitrary-precision) fold for any chain of reduced residues, and
   :func:`lazy_chain_limit` leaves orders-of-magnitude headroom over the
   longest chains the engine forms (keyswitch digit axes, HAdd fan-ins) for
   every parameter preset; the mat-vec's unreduced product runs, bounded by
   :func:`lazy_product_limit`, equal the exact sum too.
4. *One rotation, one mat-vec* — the evaluation-domain mat-vec of the
   batched engine equals the reference body bit for bit, and the composite
   spelled out from public ciphertext ops up to the giants' one shared
   mod-down; it executes the transform count it was built for, and rests on
   a permutation table checked against the coefficient-domain automorphism
   on every preset.
5. *Sources* — S2C is that one mat-vec over the rotations of a ciphertext
   and of its row swap; packing is it over the packing key's cached stack
   of rotated secrets. Both are bit-identical across the engines and pay
   only the rotations nobody else already paid.
6. *One relinearisation per LUT* — a whole FBS keyswitches once per ladder
   CMult and once for its giant-step combination, every CMult operand
   enters the evaluation domain of Q u P once, and nothing on the request
   path lifts a residue stack to Python integers; counted, not timed.
7. *Prepared state* — the kernels' per-thread scratch buffer and cached
   tables never show through a result, a later call never rewrites an
   earlier result, and concurrent threads match one-thread runs.
8. *Fixed cost* — one small ``cmult_batch`` stays within a budget of
   Python-level calls.
"""

import math
import sys
import threading
from dataclasses import replace
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
from repro.fhe import ntt as ntt_mod
from repro.fhe import packing as packing_mod
from repro.fhe import rns as rns_mod
from repro.fhe.backend import (
    BATCHED,
    SERIAL,
    CountingBackend,
    lazy_chain_limit,
    lazy_product_limit,
    lazy_reduce_sum,
    ntt_automorphism_perm,
    use_backend,
)
from repro.fhe.bfv import BfvCiphertext, BfvContext, Plaintext, galois_noise_growth
from repro.fhe.fbs import FbsLut, fbs_evaluate
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
from repro.fhe.s2c import _evaluation_matrix, s2c_plan, slot_to_coeff
from repro.fhe.slots import (
    baby_giant_amounts,
    default_baby_steps,
    rotation_galois_element,
    row_swap_element,
)
from tests.conftest import assert_rounding_apart, keyswitch_noise_bound, s2c_keys

_slow = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


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


def _components(ct) -> np.ndarray:
    return np.stack([ct.c0.data, ct.c1.data])


def _run_workload(be, ctx, rlk, gk, cts):
    """One of each fused op; returns the concatenated result arrays."""
    moduli = ctx.params.moduli
    a, b, c = cts
    k = rotation_galois_element(ctx.params.n, 1)
    d0, d1 = be.keyswitch(a.c1.data, rlk, moduli)
    r0, r1 = be.rotate_keyswitch(a.c0.data, a.c1.data, k, gk, moduli)
    (prod,) = be.giant_step_batch(ctx, [[(a, b), (b, c), (a, c)]], rlk)
    s = be.hadd_many([a.c0.data, b.c0.data, c.c0.data, a.c1.data], moduli)
    stacked = be.keyswitch(np.stack([a.c1.data, c.c0.data]), rlk, moduli)
    level = be.cmult_batch(ctx, [(a, b), (b, c), (c, c)], rlk)
    rows = be.lincomb(np.stack([_components(x) for x in cts]),
                      np.array([[1, -128, 0], [0, 0, 0], [5, 7, 128]]), moduli)
    return [d0, d1, r0, r1, s, prod.c0.data, prod.c1.data, *stacked, rows,
            *(_components(x) for x in level)]


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

    def test_giant_step_batch_bills_one_keyswitch(self):
        """G products, G - 1 three-component additions over Q u P, then one
        keyswitch and its two correction adds — whichever body runs."""
        ctx, _, rlk, _, (a, b, c) = _fixture()
        params = ctx.params
        l, n = len(params.moduli), params.n
        wide = len(ctx.tensor_moduli)
        assert rlk.halves.shape[1] == 1 and len(rlk.moduli) == 2 * l  # one digit, K = L
        totals = []
        for counting in (CountingBackend(BATCHED), CountingBackend(SERIAL)):
            counting.giant_step_batch(ctx, [[(a, b), (b, c), (a, c)]], rlk)
            totals.append(counting.totals())
        assert totals[0] == totals[1] == {
            "cmult": 3,
            "keyswitch": 1,
            "ntt": 4 * 2 * l,
            "mod_mul": 2 * 2 * l * n,
            "mod_add": 2 * 2 * l * n + 2 * l * n + 2 * 3 * wide * n,
            "rnsconv": 3 * l * n,
        }

    def test_keyswitch_unit_formula(self):
        """One keyswitch = per digit: two cached-key products + two adds over
        the L + K limbs of Q u P; the base conversions' outputs, D (L + K) - L
        for the mod-up and 2 L for both mod-downs. TEST_FBS has one digit
        over L + K = 2 L limbs (the old per-limb digits billed L (L + 1))."""
        ctx, _, rlk, _, cts = _fixture()
        params = ctx.params
        l, n = len(params.moduli), params.n
        wide = rlk.halves.shape[1] * len(rlk.moduli)
        assert wide == 2 * l
        counting = CountingBackend(BATCHED)
        counting.keyswitch(cts[0].c1.data, rlk, params.moduli)
        assert counting.totals() == {
            "ntt": 4 * wide,
            "mod_mul": 2 * wide * n,
            "mod_add": 2 * wide * n,
            "rnsconv": (wide + l) * n,
        }


class TestFusedBitIdentity:
    """Batched fused kernels == decomposed defaults == serial reference."""

    def test_all_fused_ops_identical_across_backends(self):
        ctx, _, rlk, gk, cts = _fixture()
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
        (prod,) = BATCHED.giant_step_batch(ctx, [[(a, b)]], rlk)
        assert np.array_equal(ctx.decrypt(prod, sk).coeffs, ab % t)
        (total,) = BATCHED.giant_step_batch(ctx, [[(a, b), (b, c)]], rlk)
        expect = (ab + np.array(negacyclic_mul_exact(mb, mc))) % t
        assert np.array_equal(ctx.decrypt(total, sk).coeffs, expect)


# --- prepared kernel state ---------------------------------------------------


def _fresh(pairs):
    """Copies of ``pairs`` without a tensor form: every call forms its operands."""
    return [(replace(a), replace(b)) for a, b in pairs]


def _encrypted(ctx, pk, count, seed):
    rng = np.random.default_rng(seed)
    params = ctx.params
    return [ctx.encrypt(Plaintext.from_coeffs(rng.integers(0, params.t, params.n), params), pk)
            for _ in range(count)]


def _results(ctx, rlk, pairs):
    """One output array per result of each op this section pins."""
    moduli = ctx.params.moduli
    level = BATCHED.cmult_batch(ctx, _fresh(pairs), rlk)
    (giant,) = BATCHED.giant_step_batch(ctx, [_fresh(pairs)], rlk)
    stack = np.stack([ct.c1.data for pair in pairs for ct in pair])
    return ([x for ct in level + [giant] for x in (ct.c0.data, ct.c1.data)]
            + list(BATCHED.keyswitch(stack, rlk, moduli))
            + [ntt_forward_rns(stack, ctx.params.moduli), ntt_inverse_rns(stack, rlk.moduli[:1])])


class TestPreparedState:
    """The kernels keep tables per basis and one scratch buffer per thread:
    no result is a view of either, a later call never rewrites an earlier
    result, and threads sharing a parameter set share nothing they write."""

    def test_no_result_shares_memory_with_a_cache(self):
        ctx, _, rlk, _, cts = _fixture()
        pairs = [(cts[0], cts[1]), (cts[1], cts[2])]
        results = _results(ctx, rlk, pairs)
        params, tb = ctx.params, bfv_mod._tensor_tables(ctx.params)
        cached = [rns_mod.scratch(1).base, rlk.halves, tb.t_digits,
                  *tb.to_aux[1:], *tb.to_q[1:]]
        for moduli in (params.moduli, tb.both, rlk.moduli, rlk.moduli[:1]):
            forward, inverse, cols = ntt_mod._gemm_tables(params.n, moduli)
            cached += [*cols, *(x for st in forward + inverse
                                for x in (st[2], st[3], *(st[4] or ())[1:]))]
        for arr in results:
            assert not any(np.shares_memory(arr, c) for c in cached)

    def test_a_result_survives_the_next_call(self):
        """Later calls, on other operands at the same shapes and on a larger
        stack, reuse the scratch buffer; the first call's results stay put."""
        ctx, _, rlk, _, cts = _fixture()
        _, pk = ctx.keygen()
        first = _results(ctx, rlk, [(cts[0], cts[1])])
        kept = [arr.copy() for arr in first]
        more = _encrypted(ctx, pk, 10, seed=5)
        _results(ctx, rlk, [tuple(more[:2])])  # the same shapes
        _results(ctx, rlk, list(zip(more[2::2], more[3::2])))
        assert all(np.array_equal(a, b) for a, b in zip(first, kept))

    def test_two_threads_match_serial_runs(self):
        """Two threads run ``cmult_batch`` at once on one parameter set, each
        on its own operands at its own stack sizes: residues equal the
        one-thread runs bit for bit."""
        ctx, _, rlk, _, _ = _fixture()
        _, pk = ctx.keygen()
        jobs = [[tuple(_encrypted(ctx, pk, 2, seed=10 * t + b)) for b in range(size)]
                for t, size in ((1, 1), (2, 3), (3, 2), (4, 5))]
        want = [[_components(ct) for ct in BATCHED.cmult_batch(ctx, _fresh(job), rlk)]
                for job in jobs]
        got: dict[int, list] = {}
        start = threading.Barrier(2)

        def worker(ids):
            start.wait()
            for _ in range(12):
                for i in ids:
                    got.setdefault(i, []).append(
                        [_components(ct) for ct in BATCHED.cmult_batch(ctx, _fresh(jobs[i]), rlk)])

        threads = [threading.Thread(target=worker, args=(ids,)) for ids in ((0, 1), (2, 3))]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert sorted(got) == [0, 1, 2, 3]
        for i, runs in got.items():
            assert len(runs) == 12
            for run in runs:
                assert all(np.array_equal(x, y) for x, y in zip(run, want[i]))


class TestFixedCost:
    """The fixed cost of a fused call, as a count that repeats exactly: the
    Python-level calls (functions and C functions; numpy's ufuncs are
    neither) of one fresh-operand, one-pair ``cmult_batch`` at TEST_FBS.
    BUDGET is what the prepared kernels reach (299 before them); a change
    that adds per-call glue fails here, where a timing would only drift."""

    BUDGET = 233

    def test_one_pair_cmult_stays_within_its_call_budget(self):
        ctx, _, rlk, _, cts = _fixture()
        BATCHED.cmult_batch(ctx, _fresh([cts[:2]]), rlk)  # tables and scratch built
        pairs = _fresh([cts[:2]])
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event in ("call", "c_call")

        outer = sys.getprofile()  # an enclosing profiler or coverage tool
        sys.setprofile(count)
        try:
            BATCHED.cmult_batch(ctx, pairs, rlk)
        finally:
            sys.setprofile(outer)
        assert calls <= self.BUDGET, f"one-pair cmult_batch made {calls} Python-level calls"


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

    @given(_presets)
    @settings(max_examples=len(PRESETS), deadline=None)
    def test_product_limit_is_int64_safe_and_tight(self, preset):
        """k products of two residues of max(p)-1 fit in int64 iff k <=
        lazy_product_limit: eight at every preset (30-bit limbs of Q)."""
        moduli = PRESETS[preset].moduli
        limit = lazy_product_limit(moduli)
        peak = (max(moduli) - 1) ** 2
        assert limit * peak <= 2**63 - 1 < (limit + 1) * peak
        assert limit == 8

    @given(_presets, _chain_lengths, st.integers(min_value=0, max_value=2**32))
    @_slow
    def test_lazy_product_sums_equal_exact_fold(self, preset, k, seed):
        """A mat-vec group of k diagonal x source products, summed in runs of
        lazy_product_limit, == the arbitrary-precision sum mod p: worst-case
        residues (p - 1 on both sides) in the first half of the chain."""
        moduli = PRESETS[preset].moduli
        mods = np.array(moduli, dtype=np.int64)[:, None]
        rng = np.random.default_rng(seed)
        src = rng.integers(0, mods, (k, 2, len(moduli), 8), dtype=np.int64)
        diag = rng.integers(0, mods, (k, len(moduli), 8), dtype=np.int64)
        src[: k // 2 + 1], diag[: k // 2 + 1] = mods - 1, mods - 1
        plan = MatvecPlan(k, (), ((0, tuple(range(k)), diag),))
        got = np.stack(BATCHED.matvec(src, plan, {}, moduli))
        exact = (src.astype(object) * diag[:, None].astype(object)).sum(axis=0) % mods
        assert np.array_equal(got, ntt_inverse_rns(exact.astype(np.int64), moduli))

    def test_product_limit_refuses_a_32_bit_prime(self):
        """One product of two residues mod 2^32 - 5 can reach 2^64: such a
        basis is refused, by the helper and by the mat-vec that uses it."""
        moduli = PRESETS["test-tiny"].moduli + (2**32 - 5,)
        with pytest.raises(ParameterError, match="overflows int64"):
            lazy_product_limit(moduli)
        src = np.ones((1, 2, len(moduli), 8), dtype=np.int64)
        plan = MatvecPlan(1, (), ((0, (0,), src[:, 0]),))
        with pytest.raises(ParameterError, match="overflows int64"):
            BATCHED.matvec(src, plan, {}, moduli)
        assert lazy_product_limit(((1 << 31) - 1,)) == 2

    def test_headroom_over_longest_engine_chains(self):
        """The longest lazy chains the engine forms — the digit axis of a
        keyswitch (D digits, summed over Q u P) and the
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
        under the ciphertext's own, plus Q mod t (a signed permutation of
        Delta * m wraps it in), plus the hybrid bound ``D * N * 6 sigma *
        max(Q_j) / 2 / P + (N + 1) / 2`` (``repro.fhe.keys``). And in
        absolute terms: one Galois keyswitch of a fresh ciphertext reads at
        most 10 bits on every key seed 0-7 — median 7.93 / 7.70 at TEST_LOOP
        / TEST_FBS under one grouped digit, 7.95 / 7.83 under one digit per
        limb; the base-2^w gadget read 21.3 / 18.7 on one seed."""
        ctx, sk, _, gk, cts = _fixture()
        params = ctx.params
        k = rotation_galois_element(params.n, 1)
        for ct in cts:
            d0, d1 = (RnsPoly(d, params.moduli) for d in BATCHED.keyswitch(
                ct.c1.automorphism(k).data, gk, params.moduli))
            old = BfvCiphertext(ct.c0.automorphism(k) + d0, d1, params, 0.0)
            new = ctx.apply_galois(ct, k, gk)
            measured = ctx.true_noise_bits(new, sk)
            assert abs(measured - ctx.true_noise_bits(old, sk)) <= 1.0
            assert 2**measured <= (2 ** ctx.true_noise_bits(ct, sk) + params.q % params.t
                                   + keyswitch_noise_bound(params))
            assert np.array_equal(ctx.decrypt(new, sk).coeffs, ctx.decrypt(old, sk).coeffs)
        for params in (TEST_LOOP, TEST_FBS):
            k = rotation_galois_element(params.n, 1)
            values = np.random.default_rng(0).integers(0, params.t, params.n)
            for seed in range(8):
                ctx = BfvContext(params, seed=seed)
                sk, pk = ctx.keygen()
                gk = ctx.galois_key(sk, k)
                ct = ctx.encrypt(Plaintext.from_slots(values, params), pk)
                rotated = ctx.apply_galois(ct, k, gk)
                assert ctx.true_noise_bits(rotated, sk) <= 10, (params.name, seed)

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


def _composite_groups(ctx, ct, diagonals, keys, baby_steps):
    """Each live group's (g, inner sum) of the BSGS product, spelled out
    from public ciphertext ops; a second pass of ``diagonals`` meets the
    row-swapped ciphertext."""
    params = ctx.params
    half = params.n // 2
    passes = diagonals.reshape(-1, half, params.n)
    bases = [ct] if len(passes) == 1 else [ct, ctx.row_swap(ct, keys)]
    babies, groups = {}, []
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
            groups.append((g, ctx.add_many(terms)))
    return groups


def _composite_matvec(ctx, ct, diagonals, keys, baby_steps):
    """The BSGS product from public ops, one ``apply_galois`` per giant."""
    groups = _composite_groups(ctx, ct, diagonals, keys, baby_steps)
    return ctx.add_many([ctx.rotate_slots(inner, g * baby_steps, keys) if g else inner
                         for g, inner in groups])


@pytest.fixture(scope="module", params=[TEST_TINY, TEST_SMALL, TEST_FBS, TEST_LOOP],
                ids=lambda p: p.name)
def matvec_setup(request):
    params = request.param
    ctx = BfvContext(params, seed=77)
    sk, pk = ctx.keygen()
    keys = s2c_keys(ctx, sk)
    rng = np.random.default_rng(78)
    ct = ctx.encrypt(Plaintext.from_slots(rng.integers(0, params.t, params.n), params), pk)
    return ctx, sk, keys, ct


def _assert_same_ciphertext(a, b):
    assert np.array_equal(a.c0.data, b.c0.data)
    assert np.array_equal(a.c1.data, b.c1.data)
    assert a.noise_bits == b.noise_bits


def _three_ways(ctx, ct, diagonals, keys, baby_steps):
    """Fast body and reference body must agree bit for bit (noise estimate
    included). The spelled-out composite mods down each giant rotation on
    its own, so it sits within ``G // 2`` of them on every coefficient —
    bit for bit at one giant — with the same estimate. Returns the fast
    result."""
    plan = MatvecPlan.build(diagonals, ctx.params, baby_steps)
    with use_backend(BATCHED):
        got = hypercube_matvec(ctx, ct, plan, keys)
    with use_backend(SERIAL):
        _assert_same_ciphertext(got, hypercube_matvec(ctx, ct, plan, keys))
    with use_backend(BATCHED):
        spelled = _composite_matvec(ctx, ct, diagonals, keys, baby_steps)
    giants = sum(1 for g, _, _ in plan.groups if g)
    for x, y in ((got.c0, spelled.c0), (got.c1, spelled.c1)):
        assert_rounding_apart(x.data, y.data, ctx.params.moduli, giants)
    assert got.noise_bits == spelled.noise_bits
    return got


def _s2c_passes(params):
    """Both diagonal sets of the S2C matrix: (direct, crossed)."""
    half = params.n // 2
    p = _evaluation_matrix(params.n, params.t)
    return np.stack([hypercube_diagonals(p[:half, :half], p[half:, half:], half),
                     hypercube_diagonals(p[:half, half:], p[half:, :half], half)])


class TestMatvecBitIdentity:
    def test_s2c_plans_and_a_dense_matrix(self, matvec_setup):
        ctx, sk, keys, ct = matvec_setup
        params = ctx.params
        half = params.n // 2
        both = _s2c_passes(params)
        dense = np.random.default_rng(5).integers(
            -(params.t // 2), params.t // 2 + 1, (half, params.n))
        v = ctx.decrypt(ct, sk).to_slots().reshape(2, half)
        sources = (v, v[::-1])  # the second pass reads the row swap
        for diagonals in (both[0], both[1], dense, both):
            got = _three_ways(ctx, ct, diagonals, keys, default_baby_steps(half))
            passes = diagonals.reshape(-1, half, params.n)
            want = sum(passes[p, d].reshape(2, half) * np.roll(sources[p], -d, axis=1)
                       for p in range(len(passes)) for d in range(half)) % params.t
            assert np.array_equal(ctx.decrypt(got, sk).to_slots(), want.reshape(-1))
        # The whole S2C: slots become coefficients.
        assert np.array_equal(ctx.decrypt(got, sk).coeffs, v.reshape(-1))

    def test_sparse_matrices(self, matvec_setup):
        ctx, _, keys, ct = matvec_setup
        params = ctx.params
        half = params.n // 2
        bs = default_baby_steps(half)
        rng = np.random.default_rng(6)

        def sparse(rows):
            out = np.zeros((half, params.n), dtype=np.int64)
            out[rows] = rng.integers(1, params.t, (len(rows), params.n))
            return out

        dead_baby = sparse([d for d in range(half) if d % bs != 1])
        one_group = sparse(list(range(bs, 2 * bs)))
        one_diagonal = sparse([0])
        for diagonals in (dead_baby, one_group, one_diagonal):
            _three_ways(ctx, ct, diagonals, keys, bs)
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

        # Each group's products sum in runs of lazy_product_limit, one
        # reduction per run; the group's lazy sum then folds its runs.
        sums = []
        real = backend_mod.lazy_reduce_sum

        def spy(stack, moduli):
            sums.append(stack.shape)
            return real(stack, moduli)

        monkeypatch.setattr(backend_mod, "lazy_reduce_sum", spy)
        one = (2, len(params.moduli), params.n)
        run = backend_mod.lazy_product_limit(params.moduli)
        assert run == 8
        budget = backend_mod.GIANT_BATCH_ELEMS
        # Four groups of four products (one run each), one group of 16 (two).
        for bs in (math.isqrt(half), half):
            keys = ctx.rotation_keys(sk, baby_giant_amounts(half, bs))
            sizes = [len(ids) for _, ids, _ in MatvecPlan.build(dense, params, bs).groups]
            assert sizes == [bs] * (half // bs)
            # A one-element budget: every product is its own chunk, so its own run.
            for elems, runs in ((budget, -(-bs // run)), (1, bs)):
                monkeypatch.setattr(backend_mod, "GIANT_BATCH_ELEMS", elems)
                sums.clear()
                _three_ways(ctx, ct, dense, keys, bs)
                assert [s for s in sums if s[1:] == one] == [(runs, *one)] * (half // bs)

    def test_missing_key_and_wrong_shape_raise(self, matvec_setup):
        ctx, _, keys, ct = matvec_setup
        params = ctx.params
        plan = s2c_plan.__wrapped__(params)
        for k in (rotation_galois_element(params.n, plan.baby_steps),  # a giant
                  rotation_galois_element(params.n, 1),  # a baby, both passes
                  row_swap_element(params.n)):
            without = {e: gk for e, gk in keys.items() if e != k}
            for be in (BATCHED, SERIAL, CountingBackend(BATCHED)):
                with use_backend(be), pytest.raises(ParameterError, match=f"element {k}$"):
                    hypercube_matvec(ctx, ct, plan, without)
        for shape in ((params.n, params.n), (3, params.n // 2, params.n)):
            with pytest.raises(ParameterError, match="wrong shape"):
                MatvecPlan.build(np.zeros(shape, dtype=np.int64), params, plan.baby_steps)


def _pack_setup(params, seed=3):
    """A pipeline's keys plus ``batch(count)``: LWE samples of a fresh
    ciphertext's first ``count`` coefficients, and those coefficients."""
    pipe = AthenaPipeline(params, seed=seed)
    values = np.random.default_rng(seed).integers(0, params.t, params.n)
    ct = pipe.encrypt_coeffs(values)
    return pipe, values, lambda count: pipe.refresh_to_lwe(ct, np.arange(count))


def _spy_transforms(monkeypatch):
    """Count limb transforms, the calls that run them, and CRT lifts to
    Python integers as they execute."""
    executed = {"limb_transforms": 0, "transform_calls": 0, "crt_lifts": 0}

    def spy(module, name, unit):
        real = getattr(module, name)

        def wrapper(a, *args, **kwargs):
            if unit == "limb_transforms":
                executed[unit] += a.size // a.shape[-1]
                executed["transform_calls"] += 1
            else:
                executed[unit] += 1
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


def _keyswitch_transforms(params) -> int:
    """Limb transforms one batched keyswitch executes: the (D, L+K, N) digit
    transform and the (2, L+K, N) inverse."""
    width = len(params.keyswitch_moduli)
    return params.num_digits * width + 2 * width


class TestMatvecAccounting:
    def test_counting_parity(self, matvec_setup):
        """One counted mat-vec records the same totals and per-phase events
        whether the reference body runs over the batched or the serial RNS
        tier."""
        ctx, _, keys, ct = matvec_setup
        plan = s2c_plan.__wrapped__(ctx.params)
        records = []
        for counting in (CountingBackend(BATCHED), CountingBackend(SERIAL)):
            with use_backend(counting), counting.phase("s2c"):
                hypercube_matvec(ctx, ct, plan, keys)
            records.append((counting.totals(), counting.ops_by_phase()))
        assert records[0] == records[1]
        totals = records[0][0]
        bs = plan.baby_steps
        gs = -(-ctx.params.n // 2 // bs)
        # Both passes' babies, the row swap, one merged giant per group.
        assert totals["rotation"] == totals["keyswitch"] == 2 * (bs - 1) + 1 + (gs - 1)
        assert totals["pmult"] == ctx.params.n and totals["hadd"] == ctx.params.n - 1
        assert totals["matvec"] == 1
        if ctx.params is TEST_LOOP:
            assert totals["rotation"] == 22  # two passes and a swap billed 29

    @pytest.mark.parametrize("params", [TEST_FBS, TEST_LOOP], ids=lambda p: p.name)
    def test_packing_bills_products_only(self, params):
        """Same parity for packing's shape, whose sources come
        ready: a PMult per live diagonal, no rotation, no keyswitch."""
        pipe, _, batch = _pack_setup(params)
        lwe = batch(params.n // 2 + 3)
        records = []
        for counting in (CountingBackend(BATCHED), CountingBackend(SERIAL)):
            with use_backend(counting):
                pack_lwe(pipe.ctx, lwe, pipe.packing_key)
            records.append((counting.totals(), counting.ops_by_phase()))
        assert records[0] == records[1]
        totals = records[0][0]
        assert totals["pmult"] == params.n // 2 and totals["hadd"] == params.n // 2 - 1
        assert totals["matvec"] == totals["pack"] == 1
        assert not {"rotation", "keyswitch", "automorph"} & set(totals)

    def test_executed_transforms_of_one_s2c_matvec(self, monkeypatch):
        """The work the fast body was built to avoid, pinned where it is
        done: limb transforms and big-integer lifts of one whole S2C at
        TEST_LOOP. Nine hoisted parents (c1, the swap's c1, seven giants)
        pay a (D, L+K, N) digit transform each; 16 evaluation-domain
        mod-downs — one per image of the 8 + 7 babies and the swap, one for
        the seven giants' summed key products — pay 2K inverse and 2L
        forward limbs each; the sources' entry and exit and the nine c1
        inverses pay 12 L: 846. They run in 13 calls: the entry, three per
        hoisting call (digits, special inverse, lift) and the swap's and the
        giants' c1 inverses, the exit; one call per giant made it 37. One
        mod-down per giant executed 1 062; per-limb digits 1 358; two
        passes, a coefficient-domain row swap and an add 3 276 and 17
        decompositions; nine base-2^14 decompositions of 20 digits each,
        1 728 and 9 lifts."""
        pipe = AthenaPipeline(TEST_LOOP, seed=81)
        plan = s2c_plan(TEST_LOOP)  # built before the spy: requests never build it
        ct = pipe.ctx.encrypt(
            Plaintext.from_slots(np.arange(TEST_LOOP.n), TEST_LOOP), pipe.pk)
        executed = _spy_transforms(monkeypatch)
        with use_backend(BATCHED):
            slot_to_coeff(pipe.ctx, ct, pipe.s2c_keys)
        assert len(plan.groups) == 8
        l, width = TEST_LOOP.num_limbs, len(TEST_LOOP.keyswitch_moduli)
        hoisted = 9 * TEST_LOOP.num_digits * width + 16 * 2 * width + 12 * l
        assert executed == {"limb_transforms": hoisted, "transform_calls": 1 + 3 * 3 + 2 + 1,
                            "crt_lifts": 0}
        assert hoisted == 846

    def test_executed_transforms_of_one_pack(self, monkeypatch):
        """One ``pack_lwe`` of 43 LWE samples at TEST_LOOP: the request's own
        diagonals (N/2 x L limbs) and one stacked (2, L, N) inverse, no
        keyswitch — the packing key rotated its secret once. Rotating the
        secret on every request executed 2 115 and 8."""
        pipe, _, batch = _pack_setup(TEST_LOOP)
        lwe = batch(43)
        executed = _spy_transforms(monkeypatch)
        with use_backend(BATCHED):
            pack_lwe(pipe.ctx, lwe, pipe.packing_key)
        l = TEST_LOOP.num_limbs
        assert executed == {"limb_transforms": TEST_LOOP.n // 2 * l + 2 * l,
                            "transform_calls": 2, "crt_lifts": 0}
        assert executed["limb_transforms"] == 594


    def test_executed_transforms_of_one_keyswitch(self, monkeypatch):
        """One standalone keyswitch at TEST_LOOP: the (D, L+K, N) digit
        transform and the (2, L+K, N) inverse, D (L + K) + 2 (L + K) = 54 at
        one digit over K = 9 special primes. One digit per limb executed
        L (L + 1) + 2 (L + 1) = 110; twenty base-2^14 digits over nine limbs
        198 and one lift."""
        ctx = BfvContext(TEST_LOOP, seed=84)
        sk, pk = ctx.keygen()
        rlk = ctx.relin_key(sk)
        ct = ctx.encrypt(Plaintext.from_slots(np.arange(TEST_LOOP.n), TEST_LOOP), pk)
        executed = _spy_transforms(monkeypatch)
        BATCHED.keyswitch(ct.c1.data, rlk, TEST_LOOP.moduli)
        assert executed == {"limb_transforms": _keyswitch_transforms(TEST_LOOP),
                            "transform_calls": 2, "crt_lifts": 0}
        assert executed["limb_transforms"] == 54


class TestFbsAccounting:
    """One relinearisation per LUT and one Q u P entry per operand, as counts."""

    def test_executed_transforms_of_one_full_domain_fbs(self, monkeypatch):
        """The t = 257 ReLU table at TEST_LOOP: 30 ladder CMults and a
        15-term combination. 39 operands enter Q u aux (two rows each) and
        31 tensors leave it (three rows each), 171 rows of L + 9 limbs; 31
        keyswitches of 54: 4 923. Per-limb digits executed 6 659 (keyswitches
        of 110); one keyswitch per combination pair 45 decompositions and
        14 325 (8 910 under keyswitches, 5 415 in tensors that re-extended
        every operand); 31 base-2^14 keyswitches of 198 transforms each,
        9 387 and 31 lifts."""
        ctx = BfvContext(TEST_LOOP, seed=83)
        sk, pk = ctx.keygen()
        rlk = ctx.relin_key(sk)
        lut = FbsLut.from_function(lambda x: np.maximum(x, 0), TEST_LOOP.t, "relu")
        plan = lut.plan
        x = np.random.default_rng(83).integers(0, TEST_LOOP.t, TEST_LOOP.n)
        ct = ctx.encrypt(Plaintext.from_slots(x, TEST_LOOP), pk)
        executed = _spy_transforms(monkeypatch)
        with use_backend(BATCHED):
            (out,) = fbs_evaluate(ctx, [ct], lut, rlk)
        tensors = (2 * 39 + 3 * 31) * len(ctx.tensor_moduli)
        keyswitches = (len(plan.ladder) + 1) * _keyswitch_transforms(TEST_LOOP)
        # Four calls per stacked stage (operand entry, tensor exit, the
        # keyswitch's two): nine ladder levels and the combination.
        assert executed == {"limb_transforms": tensors + keyswitches,
                            "transform_calls": 4 * (9 + 1), "crt_lifts": 0}
        assert executed["limb_transforms"] == 4923
        assert np.array_equal(ctx.decrypt(out, sk).to_slots(), lut.apply_plain(x))
        assert len(plan.ladder) == 30
        assert np.count_nonzero(plan.live) == 15

    def test_counting_parity_of_one_fbs(self):
        """A whole counted FBS records the same totals and per-phase events
        over either RNS tier: G + ladder CMults, ladder + 1 keyswitches."""
        ctx, _, rlk, _, (ct, *_) = _fixture()
        lut = FbsLut.from_function(lambda x: np.maximum(x, 0), TEST_FBS.t, "relu")
        plan = lut.plan
        records = []
        for counting in (CountingBackend(BATCHED), CountingBackend(SERIAL)):
            with use_backend(counting):
                fbs_evaluate(ctx, [ct], lut, rlk)
            records.append((counting.totals(), counting.ops_by_phase()))
        assert records[0] == records[1]
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
    return AthenaPipeline(TEST_FBS, seed=3)


class TestSources:
    """S2C derives its sources from the request; packing's are key material."""

    def test_s2c_identical_on_every_engine(self, pack_setup):
        pipe, values, _ = pack_setup
        params = pipe.params
        ct = pipe.ctx.encrypt(Plaintext.from_slots(values, params), pipe.pk)
        out = _same_on_every_engine(lambda: slot_to_coeff(pipe.ctx, ct, pipe.s2c_keys))
        assert np.array_equal(pipe.decrypt_coeffs(out), values)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_s2c_sweep_of_slot_vectors(self, seed):
        pipe = _fbs_s2c()
        params = pipe.params
        rng = np.random.default_rng(seed)
        # Dense, sparse and constant vectors alike.
        values = rng.integers(0, params.t, params.n) * (rng.random(params.n) < rng.random())
        ct = pipe.ctx.encrypt(Plaintext.from_slots(values, params), pipe.pk)
        out = _same_on_every_engine(lambda: slot_to_coeff(pipe.ctx, ct, pipe.s2c_keys))
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
        k = rotation_galois_element(params.n, default_baby_steps(params.n // 2))  # a giant's key
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


    @pytest.mark.parametrize("params", [TEST_FBS, TEST_LOOP], ids=lambda p: p.name)
    def test_giants_share_one_mod_down(self, params):
        """S2C's giants sum their key products over Q u P under one mod-down;
        the old body, one ``apply_galois`` per giant group then ``add_many``,
        is rebuilt here from public ops. Over key seeds 0-7 both decrypt to
        the same coefficients and the estimate covers the measured noise.
        The phase the giant keyswitches add — the result's c0 + c1 s less
        the rotated phases of the groups, exact over Q — is at most the old
        body's: 2-4 against 5-6 at TEST_FBS, 7-10 against 16-25 at
        TEST_LOOP (one rounding in place of seven). The whole noise is the
        diagonal products' (19-22 bits): the two agree in it to 1/1000 bit,
        and either one may be the larger."""
        bs = default_baby_steps(params.n // 2)
        values = np.random.default_rng(0).integers(0, params.t, params.n)

        def phase(ct):
            return ct.c0 + ct.c1 * sk.poly

        def peak(poly):
            lifted = rns_mod.from_rns_object(poly.data, params.moduli) % params.q
            return max(min(int(x), params.q - int(x)) for x in lifted)

        for seed in range(8):
            ctx = BfvContext(params, seed=seed)
            sk, pk = ctx.keygen()
            keys = s2c_keys(ctx, sk)
            ct = ctx.encrypt(Plaintext.from_slots(values, params), pk)
            shared = slot_to_coeff(ctx, ct, keys)
            groups = _composite_groups(ctx, ct, _s2c_passes(params), keys, bs)
            giants = [(rotation_galois_element(params.n, g * bs), inner)
                      for g, inner in groups if g]
            old = ctx.add_many([inner for g, inner in groups if not g] + [
                ctx.apply_galois(inner, k, keys[k]) for k, inner in giants])
            assert np.array_equal(ctx.decrypt(shared, sk).coeffs, ctx.decrypt(old, sk).coeffs)
            measured = ctx.true_noise_bits(shared, sk)
            assert measured <= shared.noise_bits == old.noise_bits
            assert abs(measured - ctx.true_noise_bits(old, sk)) < 1e-3
            rotated = [phase(inner) for g, inner in groups if not g]
            rotated += [phase(inner).automorphism(k) for k, inner in giants]
            ideal = sum(rotated[1:], rotated[0])
            assert peak(phase(shared) - ideal) <= peak(phase(old) - ideal), seed
