"""Tests for the BFV scheme: encryption, homomorphic ops, slots, Galois."""

import math

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.fhe import slots as slotlib
from repro.fhe.backend import current_backend
from repro.fhe.bfv import Plaintext
from repro.fhe.ntt import negacyclic_mul_exact
from repro.fhe.params import TEST_TINY


class TestPlaintext:
    def test_from_coeffs_pads(self):
        pt = Plaintext.from_coeffs([1, 2, 3], TEST_TINY)
        assert pt.coeffs.shape == (TEST_TINY.n,)
        assert pt.coeffs[0] == 1 and pt.coeffs[3] == 0

    @pytest.mark.parametrize("coeffs", [
        np.ones(TEST_TINY.n + 1), np.ones((2, 4)), np.ones((1, TEST_TINY.n)), 3,
    ], ids=["too-many", "matrix", "row", "scalar"])
    def test_from_coeffs_rejects_what_is_not_a_short_vector(self, coeffs):
        """Typed like ``from_slots``: a caller catching ``ReproError`` sees it."""
        with pytest.raises(ParameterError, match=f"at most {TEST_TINY.n} coefficients"):
            Plaintext.from_coeffs(coeffs, TEST_TINY)

    def test_slot_roundtrip(self, rng):
        v = rng.integers(0, TEST_TINY.t, TEST_TINY.n)
        pt = Plaintext.from_slots(v, TEST_TINY)
        assert np.array_equal(pt.to_slots(), v % TEST_TINY.t)

    def test_slot_encode_is_linear(self, rng):
        t, n = TEST_TINY.t, TEST_TINY.n
        a = rng.integers(0, t, n)
        b = rng.integers(0, t, n)
        ea = slotlib.slot_encode(a, n, t)
        eb = slotlib.slot_encode(b, n, t)
        eab = slotlib.slot_encode((a + b) % t, n, t)
        assert np.array_equal(eab, (ea + eb) % t)

    def test_slot_product_is_pointwise(self, rng):
        # ring product of encodings == slot-wise product of values
        t, n = TEST_TINY.t, TEST_TINY.n
        a = rng.integers(0, t, n)
        b = rng.integers(0, t, n)
        pa = slotlib.slot_encode(a, n, t)
        pb = slotlib.slot_encode(b, n, t)
        prod = np.mod(negacyclic_mul_exact(list(pa), list(pb)), t)
        assert np.array_equal(
            slotlib.slot_decode(prod.astype(np.int64), n, t), a * b % t
        )

    def test_unsupported_slot_count(self):
        with pytest.raises(ParameterError):
            slotlib.slot_encode(np.zeros(64, dtype=np.int64), 64, 17)  # 128 !| 16


class TestEncryptDecrypt:
    def test_roundtrip(self, small_ctx, small_keys, rng):
        sk, pk = small_keys
        m = rng.integers(0, small_ctx.params.t, small_ctx.params.n)
        ct = small_ctx.encrypt(Plaintext.from_coeffs(m, small_ctx.params), pk)
        assert np.array_equal(small_ctx.decrypt(ct, sk).coeffs, m)

    def test_fresh_noise_within_estimate(self, small_ctx, small_keys, rng):
        sk, pk = small_keys
        m = rng.integers(0, small_ctx.params.t, small_ctx.params.n)
        ct = small_ctx.encrypt(Plaintext.from_coeffs(m, small_ctx.params), pk)
        assert small_ctx.true_noise_bits(ct, sk) <= ct.noise_bits + 1

    def test_distinct_encryptions_differ(self, small_ctx, small_keys):
        _, pk = small_keys
        pt = Plaintext.from_coeffs([1], small_ctx.params)
        c1 = small_ctx.encrypt(pt, pk)
        c2 = small_ctx.encrypt(pt, pk)
        assert not np.array_equal(c1.c0.data, c2.c0.data)  # fresh randomness per encryption


class TestHomomorphicOps:
    def test_add_sub(self, small_ctx, small_keys, rng):
        sk, pk = small_keys
        p = small_ctx.params
        m1 = rng.integers(0, p.t, p.n)
        m2 = rng.integers(0, p.t, p.n)
        c1 = small_ctx.encrypt(Plaintext.from_coeffs(m1, p), pk)
        c2 = small_ctx.encrypt(Plaintext.from_coeffs(m2, p), pk)
        assert np.array_equal(
            small_ctx.decrypt(small_ctx.add(c1, c2), sk).coeffs, (m1 + m2) % p.t
        )
        assert np.array_equal(
            small_ctx.decrypt(small_ctx.sub(c1, c2), sk).coeffs, (m1 - m2) % p.t
        )

    def test_add_plain(self, small_ctx, small_keys, rng):
        sk, pk = small_keys
        p = small_ctx.params
        m1 = rng.integers(0, p.t, p.n)
        m2 = rng.integers(0, p.t, p.n)
        ct = small_ctx.encrypt(Plaintext.from_coeffs(m1, p), pk)
        out = small_ctx.add_plain(ct, Plaintext.from_coeffs(m2, p))
        assert np.array_equal(small_ctx.decrypt(out, sk).coeffs, (m1 + m2) % p.t)

    @pytest.mark.parametrize("scalar", [0, 1, 7, -3, 256])
    def test_smult(self, small_ctx, small_keys, rng, scalar):
        sk, pk = small_keys
        p = small_ctx.params
        m = rng.integers(0, p.t, p.n)
        ct = small_ctx.encrypt(Plaintext.from_coeffs(m, p), pk)
        out = small_ctx.smult(ct, scalar)
        assert np.array_equal(small_ctx.decrypt(out, sk).coeffs, m * scalar % p.t)

    def test_pmult_polynomial(self, small_ctx, small_keys, rng):
        sk, pk = small_keys
        p = small_ctx.params
        m = rng.integers(0, p.t, p.n)
        w = rng.integers(-4, 5, p.n)
        ct = small_ctx.encrypt(Plaintext.from_coeffs(m, p), pk)
        out = small_ctx.pmult(ct, Plaintext.from_coeffs(w, p))
        expected = np.mod(negacyclic_mul_exact(list(m), list(w)), p.t)
        assert np.array_equal(small_ctx.decrypt(out, sk).coeffs, expected)

    def test_cmult(self, small_ctx, small_keys, rng):
        sk, pk = small_keys
        p = small_ctx.params
        rlk = small_ctx.relin_key(sk)
        m1 = rng.integers(0, p.t, p.n)
        m2 = rng.integers(0, p.t, p.n)
        c1 = small_ctx.encrypt(Plaintext.from_coeffs(m1, p), pk)
        c2 = small_ctx.encrypt(Plaintext.from_coeffs(m2, p), pk)
        (out,) = current_backend().cmult_batch(small_ctx, [(c1, c2)], rlk)
        expected = np.mod(negacyclic_mul_exact(list(m1), list(m2)), p.t)
        assert np.array_equal(small_ctx.decrypt(out, sk).coeffs, expected)

    def test_cmult_slotwise(self, small_ctx, small_keys, rng):
        # In slot view, CMult is pointwise multiplication.
        sk, pk = small_keys
        p = small_ctx.params
        rlk = small_ctx.relin_key(sk)
        v1 = rng.integers(0, p.t, p.n)
        v2 = rng.integers(0, p.t, p.n)
        c1 = small_ctx.encrypt(Plaintext.from_slots(v1, p), pk)
        c2 = small_ctx.encrypt(Plaintext.from_slots(v2, p), pk)
        (out,) = current_backend().cmult_batch(small_ctx, [(c1, c2)], rlk)
        assert np.array_equal(
            small_ctx.decrypt(out, sk).to_slots(), v1 * v2 % p.t
        )

    def test_square(self, small_ctx, small_keys, rng):
        sk, pk = small_keys
        p = small_ctx.params
        rlk = small_ctx.relin_key(sk)
        v = rng.integers(0, p.t, p.n)
        ct = small_ctx.encrypt(Plaintext.from_slots(v, p), pk)
        (out,) = current_backend().cmult_batch(small_ctx, [(ct, ct)], rlk)
        assert np.array_equal(small_ctx.decrypt(out, sk).to_slots(), v * v % p.t)

    def test_noise_grows_with_ops(self, small_ctx, small_keys, rng):
        sk, pk = small_keys
        p = small_ctx.params
        m = rng.integers(0, p.t, p.n)
        ct = small_ctx.encrypt(Plaintext.from_coeffs(m, p), pk)
        before = small_ctx.true_noise_bits(ct, sk)
        after = small_ctx.true_noise_bits(
            small_ctx.pmult(ct, Plaintext.from_coeffs(rng.integers(0, p.t, p.n), p)),
            sk,
        )
        assert after > before

    def test_true_noise_matches_coefficient_loop(self, small_ctx, small_keys, rng):
        """The vectorised measurement equals the per-coefficient definition,
        on a fresh, a multiplied and a transparent ciphertext."""
        sk, pk = small_keys
        p = small_ctx.params
        q = p.q

        def by_loop(ct):
            phase = ct.c0 + ct.c1 * sk.poly
            worst = 0
            for v in phase.to_int_coeffs(centered=False):
                m = ((v * p.t + q // 2) // q) % p.t
                residual = (v - p.delta * m) % q
                if residual > q // 2:
                    residual -= q
                worst = max(worst, abs(residual))
            return math.log2(worst) if worst else 0.0

        ct = small_ctx.encrypt(Plaintext.from_coeffs(rng.integers(0, p.t, p.n), p), pk)
        (squared,) = current_backend().cmult_batch(small_ctx, [(ct, ct)], small_ctx.relin_key(sk))
        for subject in (ct, squared, small_ctx.encrypt_zero()):
            assert small_ctx.true_noise_bits(subject, sk) == by_loop(subject)
        assert small_ctx.true_noise_bits(small_ctx.encrypt_zero(), sk) == 0.0


class TestGaloisAndRotations:
    def test_rotate_by_zero_is_identity(self, small_ctx, small_keys, rng):
        _, pk = small_keys
        p = small_ctx.params
        ct = small_ctx.encrypt(Plaintext.from_slots(rng.integers(0, p.t, p.n), p), pk)
        assert small_ctx.rotate_slots(ct, 0, {}) is ct

    @pytest.mark.parametrize("amount", [1, 2, 5])
    def test_rotation(self, small_ctx, small_keys, rng, amount):
        sk, pk = small_keys
        p = small_ctx.params
        half = p.n // 2
        gks = small_ctx.rotation_keys(sk, [amount])
        v = rng.integers(0, p.t, p.n)
        ct = small_ctx.encrypt(Plaintext.from_slots(v, p), pk)
        out = small_ctx.rotate_slots(ct, amount, gks)
        expected = np.concatenate(
            [np.roll(v[:half], -amount), np.roll(v[half:], -amount)]
        )
        assert np.array_equal(small_ctx.decrypt(out, sk).to_slots(), expected % p.t)

    def test_row_swap(self, small_ctx, small_keys, rng):
        sk, pk = small_keys
        p = small_ctx.params
        half = p.n // 2
        gks = small_ctx.galois_keys(sk, [slotlib.row_swap_element(p.n)])
        v = rng.integers(0, p.t, p.n)
        ct = small_ctx.encrypt(Plaintext.from_slots(v, p), pk)
        out = small_ctx.row_swap(ct, gks)
        expected = np.concatenate([v[half:], v[:half]])
        assert np.array_equal(small_ctx.decrypt(out, sk).to_slots(), expected % p.t)

    def test_rotation_composes(self, small_ctx, small_keys, rng):
        sk, pk = small_keys
        p = small_ctx.params
        gks = small_ctx.rotation_keys(sk, [1, 2, 3])
        v = rng.integers(0, p.t, p.n)
        ct = small_ctx.encrypt(Plaintext.from_slots(v, p), pk)
        once = small_ctx.rotate_slots(small_ctx.rotate_slots(ct, 1, gks), 2, gks)
        direct = small_ctx.rotate_slots(ct, 3, gks)
        assert np.array_equal(
            small_ctx.decrypt(once, sk).to_slots(),
            small_ctx.decrypt(direct, sk).to_slots(),
        )

    def test_missing_key_raises(self, small_ctx, small_keys, rng):
        _, pk = small_keys
        p = small_ctx.params
        ct = small_ctx.encrypt(Plaintext.from_slots(rng.integers(0, p.t, p.n), p), pk)
        with pytest.raises(ParameterError):
            small_ctx.rotate_slots(ct, 1, {})
