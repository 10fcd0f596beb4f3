"""Tests for RNS representation and RnsPoly ring arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.fhe import rns
from repro.fhe.backend import BATCHED, ROUND_PRIME, SERIAL, CountingBackend
from repro.fhe.params import PRESETS, TEST_LOOP, TEST_SMALL, TEST_TINY
from repro.fhe.poly import RnsPoly, automorphism_map

MODULI = TEST_TINY.moduli
N = TEST_TINY.n


def random_poly(rng, lo=-(10**6), hi=10**6, n=N, moduli=MODULI):
    return RnsPoly.from_int_coeffs(rng.integers(lo, hi, n), moduli)


class TestRnsConversions:
    def test_roundtrip_small(self, rng):
        vals = rng.integers(0, 1000, 16)
        mat = rns.to_rns(vals, MODULI)
        back = rns.from_rns(mat, MODULI)
        assert list(vals) == back

    def test_roundtrip_big_values(self):
        q = rns.rns_modulus(MODULI)
        vals = [q - 1, q // 2, q // 3, 12345678901234567890 % q]
        mat = rns.to_rns(vals, MODULI)
        assert rns.from_rns(mat, MODULI) == vals

    def test_centered_range(self, rng):
        q = rns.rns_modulus(MODULI)
        vals = rng.integers(0, 10**9, 32)
        mat = rns.to_rns(vals, MODULI)
        for v in rns.from_rns_centered(mat, MODULI):
            assert -q // 2 <= v <= q // 2

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            rns.from_rns(np.zeros((1, 4), dtype=np.int64), MODULI)

    @given(st.integers(min_value=0))
    @settings(max_examples=50)
    def test_single_coeff_roundtrip(self, x):
        q = rns.rns_modulus(MODULI)
        x %= q
        mat = rns.to_rns([x], MODULI)
        assert rns.from_rns(mat, MODULI) == [x]


class TestRnsPolyArithmetic:
    def test_add_sub_neg(self, rng):
        a = random_poly(rng)
        b = random_poly(rng)
        assert (a + b) - b == a
        assert a + (-a) == RnsPoly.zeros(N, MODULI)

    def test_mul_commutes(self, rng):
        a = random_poly(rng)
        b = random_poly(rng)
        assert a * b == b * a

    def test_mul_distributes(self, rng):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c

    def test_mul_matches_exact(self, rng):
        a = random_poly(rng)
        b = random_poly(rng)
        assert a * b == a.mul_exact_then_reduce(b)

    def test_scalar_mul_big_scalar(self, rng):
        a = random_poly(rng)
        q = a.modulus
        s = q - 3  # equivalent to -3
        assert a.scalar_mul(s) == a.scalar_mul(-3)

    def test_constant_identity(self, rng):
        a = random_poly(rng)
        one = RnsPoly.from_int_coeffs([1] + [0] * (N - 1), MODULI)
        assert a * one == a

    def test_ring_mismatch_raises(self, rng):
        a = random_poly(rng)
        b = RnsPoly.zeros(TEST_SMALL.n, TEST_SMALL.moduli)
        with pytest.raises(ParameterError):
            _ = a + b


class TestAutomorphism:
    def test_composition(self, rng):
        a = random_poly(rng)
        assert a.automorphism(3).automorphism(3) == a.automorphism(9)

    def test_identity(self, rng):
        a = random_poly(rng)
        assert a.automorphism(1) == a

    def test_inverse_element(self, rng):
        a = random_poly(rng)
        # 3 * inv3 = 1 mod 2N => composition is identity
        inv3 = pow(3, -1, 2 * N)
        assert a.automorphism(3).automorphism(inv3) == a

    def test_even_element_rejected(self):
        with pytest.raises(ParameterError):
            automorphism_map(N, 2)

    def test_is_ring_homomorphism(self, rng):
        a = random_poly(rng)
        b = random_poly(rng)
        k = 5
        assert (a * b).automorphism(k) == a.automorphism(k) * b.automorphism(k)
        assert (a + b).automorphism(k) == a.automorphism(k) + b.automorphism(k)


class TestShiftAndModSwitch:
    def test_shift_roundtrip(self, rng):
        a = random_poly(rng)
        for s in (1, 5, N - 1, N, 2 * N - 1):
            assert a.negacyclic_shift(s).negacyclic_shift(-s) == a

    def test_shift_full_cycle_negates(self, rng):
        a = random_poly(rng)
        assert a.negacyclic_shift(N) == -a
        assert a.negacyclic_shift(2 * N) == a

    def test_shift_matches_monomial_mul(self, rng):
        a = random_poly(rng)
        x5 = np.zeros(N, dtype=np.int64)
        x5[5] = 1
        mono = RnsPoly.from_int_coeffs(x5, MODULI)
        assert a.negacyclic_shift(5) == a * mono

    def test_mod_switch_preserves_message(self, rng):
        # Scale a message up by Delta, switch down: recover it.
        q = rns.rns_modulus(MODULI)
        t = 257
        delta = q // t
        msg = rng.integers(0, t, N)
        a = RnsPoly.from_int_coeffs(msg * 0, MODULI).scalar_mul(0)
        scaled = RnsPoly.from_int_coeffs(msg, MODULI).scalar_mul(delta)
        switched = scaled.mod_switch(t)
        assert np.array_equal(switched % t, msg % t)


def _big_int_scale_round(data, moduli, modulus):
    """The oracle: floor((modulus * x + floor(Q/2)) / Q) mod modulus of the
    CRT lift x, over Python integers."""
    q = rns.rns_modulus(moduli)
    x = rns.from_rns_object(data, moduli)
    return ((x * modulus + q // 2) // q % modulus).astype(np.int64)


class TestScaleRound:
    """``Backend.mod_switch`` and ``BfvContext.decrypt`` scale and round
    word-sized, bit for bit the big-integer formula."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_matches_the_big_integer_formula(self, name, rng):
        params = PRESETS[name]
        moduli, q = params.moduli, params.q
        edges = [0, 1, q - 1, q // 2 - 1, q // 2, q // 2 + 1]
        for m in (params.t, params.lwe_q, 2, ROUND_PRIME - 1):
            for k in (1, m // 2, m - 1):  # either side of a rounding step
                step = -(-(k * q - q // 2) // m)
                edges += [step - 1, step]
        data = np.stack([rng.integers(0, p, 96) for p in moduli])
        data[:, : len(edges)] = rns.to_rns(edges, moduli)
        for m in (params.t, params.lwe_q, 2, ROUND_PRIME - 1):
            want = _big_int_scale_round(data, moduli, m)
            for be in (SERIAL, BATCHED, CountingBackend(BATCHED)):
                got = be.mod_switch(data, moduli, m)
                assert got.dtype == np.int64 and np.array_equal(got, want), (name, m, be.name)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_zero_and_small_coefficients_skip_the_exact_route(self, name, exact_route_calls,
                                                              rng):
        """Both lifts are centred, so a zero stack and small coefficients of
        either sign sit mid-interval: no coefficient takes the big-integer
        route, and every target still gets the formula's result."""
        params = PRESETS[name]
        zero = np.zeros((params.num_limbs, 64), dtype=np.int64)
        small = rns.to_rns([int(v) for v in rng.integers(-300, 301, 64)], params.moduli)
        for data in (zero, small):
            for m in (params.t, params.lwe_q, 2, ROUND_PRIME - 1):
                want = _big_int_scale_round(data, params.moduli, m)
                assert np.array_equal(BATCHED.mod_switch(data, params.moduli, m), want)
        assert exact_route_calls == []

    def test_target_must_be_below_the_round_prime(self):
        data = np.zeros((len(MODULI), 4), dtype=np.int64)
        for m in (0, ROUND_PRIME, 2**40):
            with pytest.raises(ParameterError, match="scale-and-round"):
                BATCHED.mod_switch(data, MODULI, m)

    def test_decrypt_is_the_formula_on_the_phase(self, rng):
        from repro.fhe.bfv import BfvContext, Plaintext

        ctx = BfvContext(TEST_LOOP, seed=9)
        sk, pk = ctx.keygen()
        values = rng.integers(0, TEST_LOOP.t, TEST_LOOP.n)
        ct = ctx.encrypt(Plaintext.from_coeffs(values, TEST_LOOP), pk)
        phase = ct.c0 + ct.c1 * sk.poly
        want = _big_int_scale_round(phase.data, TEST_LOOP.moduli, TEST_LOOP.t)
        assert np.array_equal(ctx.decrypt(ct, sk).coeffs, want)
        assert np.array_equal(want, values)
