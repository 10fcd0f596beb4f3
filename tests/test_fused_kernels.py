"""Fused-kernel tier: counting parity, bit-identity, and lazy-reduction safety.

Three claims pinned here:

1. *Counting parity* — a fused op is counted exactly once, in the
   primitive units the decomposed path would have dispatched. Pinned two
   ways: CountingBackend totals are identical whether its inner engine
   fuses (``batched``) or decomposes (``serial``) — the double-count
   regression — and the bulk-counted units match what a
   counting backend *without* the fused overrides records organically
   when the default decompositions drive its primitive counters.
2. *Bit-identity* — the batched fused kernels (stacked NTT keyswitch,
   fused rotate, giant-step batching) produce byte-for-byte the same
   results as the decomposed defaults and the serial reference.
3. *Lazy-reduction safety* — :func:`lazy_reduce_sum` equals the exact
   (arbitrary-precision) fold for any chain of reduced residues, and
   :func:`lazy_chain_limit` leaves orders-of-magnitude headroom over the
   longest chains the engine forms (gadget digit axes, HAdd fan-ins) for
   every parameter preset.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fhe.backend import (
    BATCHED,
    SERIAL,
    Backend,
    CountingBackend,
    lazy_chain_limit,
    lazy_reduce_sum,
)
from repro.fhe.bfv import BfvContext, Plaintext
from repro.fhe.params import PRESETS, TEST_FBS
from repro.fhe.slots import rotation_galois_element

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
    prods = be.giant_step_batch(ctx, [(a, b), (b, c), (a, c)], rlk)
    s = be.hadd_many([a.c0.data, b.c0.data, c.c0.data, a.c1.data], moduli)
    outs = [d0, d1, r0, r1, s]
    for p in prods:
        outs.extend([p.c0.data, p.c1.data])
    return outs


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

    def test_keyswitch_unit_formula(self):
        """One keyswitch = per digit: two full products + two adds."""
        ctx, _, rlk, _, cts = _fixture()
        params = ctx.params
        l, n, d = len(params.moduli), params.n, rlk.num_digits
        counting = CountingBackend(BATCHED)
        counting.keyswitch(cts[0].c1.data, rlk, params.moduli)
        assert counting.totals() == {
            "ntt": 6 * l * d,
            "mod_mul": 2 * d * l * n,
            "mod_add": 2 * d * l * n,
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
        """The fused giant-step products are real relinearized CMults."""
        ctx, sk, rlk, _, cts = _fixture()
        a, b, _ = cts
        t = ctx.params.t
        ma = ctx.decrypt(a, sk).coeffs
        mb = ctx.decrypt(b, sk).coeffs
        from repro.fhe.ntt import negacyclic_mul_exact

        expect = np.mod(negacyclic_mul_exact(ma.tolist(), mb.tolist()), t)
        (prod,) = BATCHED.giant_step_batch(ctx, [(a, b)], rlk)
        assert np.array_equal(ctx.decrypt(prod, sk).coeffs, expect)


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
        """The longest lazy chains the engine forms — the gadget digit axis
        of a keyswitch and the slot-count HAdd fan-ins — sit orders of
        magnitude below the overflow bound at every preset."""
        for params in PRESETS.values():
            limit = lazy_chain_limit(params.moduli)
            num_digits = -(-params.q.bit_length() // params.decomp_bits)
            longest = max(num_digits, params.n)
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
