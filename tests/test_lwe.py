"""Tests for the LWE chain: modswitch, sample extraction, keyswitch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.fhe import lwe
from repro.fhe.bfv import Plaintext
from repro.utils.sampling import SIGMA, Sampler


@pytest.fixture(scope="module")
def chain(small_ctx):
    """Context, keys, and a small LWE secret + keyswitch key."""
    ctx = small_ctx
    sk, pk = ctx.keygen()
    samp = Sampler(99)
    s_small = samp.ternary(ctx.params.lwe_n)
    ksk = lwe.keyswitch_keygen(
        sk.coeffs, s_small, ctx.params.lwe_q, base_bits=7, sampler=samp
    )
    return ctx, sk, pk, s_small, ksk


class TestRlweModSwitch:
    def test_message_survives(self, chain, rng):
        ctx, sk, pk, _, _ = chain
        p = ctx.params
        m = rng.integers(-100, 100, p.n)
        ct = ctx.encrypt(Plaintext.from_coeffs(m, p), pk)
        small = lwe.rlwe_mod_switch(ct, p.lwe_q)
        assert small.modulus == p.lwe_q
        batch = lwe.sample_extract(small)
        dec = lwe.lwe_decrypt(batch, sk.coeffs, delta=p.lwe_q // p.t, t=p.t)
        assert np.array_equal(dec, m % p.t)

    def test_output_dtype_and_range(self, chain, rng):
        ctx, _, pk, _, _ = chain
        p = ctx.params
        ct = ctx.encrypt(Plaintext.from_coeffs(rng.integers(0, p.t, p.n), p), pk)
        small = lwe.rlwe_mod_switch(ct, p.lwe_q)
        assert small.c0.max() < p.lwe_q and small.c0.min() >= 0
        assert small.c1.max() < p.lwe_q and small.c1.min() >= 0


class TestSampleExtract:
    def test_matches_algorithm1_reference(self, rng):
        # Scalar reference implementation of Alg. 1 vs the vectorized one.
        n, q = 16, 97
        c0 = rng.integers(0, q, n)
        c1 = rng.integers(0, q, n)
        ct = lwe.SmallRlwe(c0.astype(np.int64), c1.astype(np.int64), q)
        batch = lwe.sample_extract(ct)
        for i in range(n):
            for j in range(n):
                expected = c1[i - j] if j <= i else -c1[n + i - j]
                assert batch.a[i, j] == expected % q
            assert batch.b[i] == c0[i]

    def test_phase_equals_ring_phase(self, chain, rng):
        # b_i + <a_i, s> must equal coefficient i of c0 + c1*s.
        ctx, sk, pk, _, _ = chain
        p = ctx.params
        m = rng.integers(0, p.t, p.n)
        ct = ctx.encrypt(Plaintext.from_coeffs(m, p), pk)
        small = lwe.rlwe_mod_switch(ct, p.lwe_q)
        batch = lwe.sample_extract(small)
        # ring phase mod q'
        from repro.fhe.ntt import negacyclic_mul_exact

        prod = np.mod(
            negacyclic_mul_exact(list(small.c1), list(sk.coeffs)), p.lwe_q
        )
        ring_phase = (small.c0 + prod) % p.lwe_q
        assert np.array_equal(batch.phase(sk.coeffs), ring_phase)

    def test_subset_extraction(self, chain, rng):
        ctx, sk, pk, _, _ = chain
        p = ctx.params
        m = rng.integers(0, p.t, p.n)
        ct = ctx.encrypt(Plaintext.from_coeffs(m, p), pk)
        small = lwe.rlwe_mod_switch(ct, p.lwe_q)
        idx = np.array([0, 5, p.n - 1])
        batch = lwe.sample_extract(small, idx)
        assert batch.count == 3
        dec = lwe.lwe_decrypt(batch, sk.coeffs, delta=p.lwe_q // p.t, t=p.t)
        assert np.array_equal(dec, m[idx] % p.t)

    def test_bad_index_raises(self, chain):
        ctx, *_ = chain
        ct = lwe.SmallRlwe(
            np.zeros(ctx.params.n, dtype=np.int64),
            np.zeros(ctx.params.n, dtype=np.int64),
            17,
        )
        with pytest.raises(ParameterError):
            lwe.sample_extract(ct, np.array([ctx.params.n]))


class TestKeyswitch:
    def test_dimension_switch_preserves_message(self, chain, rng):
        ctx, sk, pk, s_small, ksk = chain
        p = ctx.params
        m = rng.integers(-50, 50, p.n)
        ct = ctx.encrypt(Plaintext.from_coeffs(m, p), pk)
        batch = lwe.sample_extract(lwe.rlwe_mod_switch(ct, p.lwe_q))
        switched = lwe.keyswitch(batch, ksk)
        assert switched.dim == p.lwe_n
        dec = lwe.lwe_decrypt(switched, s_small, delta=p.lwe_q // p.t, t=p.t)
        assert np.array_equal(dec, m % p.t)

    def test_keygen_entries_encrypt_the_gadget_rows(self, chain):
        """Every (j, d) entry of the vectorised key is an LWE encryption of
        big_secret[j] * 2^(d * base_bits) under the small secret."""
        ctx, sk, _, s_small, ksk = chain
        q = ksk.modulus
        assert ksk.alpha.shape == (ctx.params.n, ksk.num_digits, s_small.shape[0])
        assert 0 <= ksk.alpha.min() and ksk.alpha.max() < q
        gadget = sk.coeffs[:, None] * 2 ** (ksk.base_bits * np.arange(ksk.num_digits))
        noise = (ksk.beta + ksk.alpha @ s_small - gadget) % q
        noise = np.where(noise > q // 2, noise - q, noise)
        assert np.abs(noise).max() <= 6 * SIGMA

    def test_modulus_mismatch_raises(self, chain):
        *_, ksk = chain
        bad = lwe.LweBatch(np.zeros((1, 4), dtype=np.int64), np.zeros(1, dtype=np.int64), 31)
        with pytest.raises(ParameterError):
            lwe.keyswitch(bad, ksk)


class TestLweModSwitch:
    def test_full_chain_error_is_small(self, chain, rng):
        # End-to-end: Q -> q' -> extract -> keyswitch -> t. The message lands
        # at Delta=1 perturbed by only a few units (the e_ms regime).
        ctx, sk, pk, s_small, ksk = chain
        p = ctx.params
        m = rng.integers(-100, 100, p.n)
        ct = ctx.encrypt(Plaintext.from_coeffs(m, p), pk)
        batch = lwe.sample_extract(lwe.rlwe_mod_switch(ct, p.lwe_q))
        switched = lwe.keyswitch(batch, ksk)
        final = lwe.lwe_mod_switch(switched, p.t)
        dec = lwe.lwe_decrypt(final, s_small, delta=1, t=p.t)
        err = (dec - m) % p.t
        err = np.where(err > p.t // 2, err - p.t, err)
        assert np.abs(err).max() <= 16
        assert np.abs(err).mean() <= 4

    def test_ems_std_formula_positive(self, chain):
        ctx, sk, *_ = chain
        norm_sq = int(np.sum(sk.coeffs**2))
        std = lwe.expected_ems_std(ctx.params, norm_sq)
        assert std > 0
        # dominated by the rounding term sqrt((||s||^2+1)/12)
        assert std == pytest.approx(np.sqrt((norm_sq + 1) / 12), rel=1e-3)

    @given(st.integers(min_value=2, max_value=60))
    @settings(max_examples=20)
    def test_modswitch_scales_phase(self, shift):
        # Deterministic property: switching a noiseless phase scales it.
        q = 1 << 30
        new_q = 257
        a = np.zeros((4, 8), dtype=np.int64)
        b = np.full(4, (1 << shift) % q, dtype=np.int64)
        batch = lwe.LweBatch(a, b, q)
        out = lwe.lwe_mod_switch(batch, new_q)
        expected = ((b * new_q + q // 2) // q) % new_q
        assert np.array_equal(out.b, expected)
