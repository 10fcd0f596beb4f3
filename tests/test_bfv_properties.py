"""Property-based tests: algebraic laws of the homomorphic operations.

These use hypothesis to check ring/vector-space laws of BFV over random
messages at tiny parameters — the invariants every downstream layer
(packing, FBS, the framework) silently relies on.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fhe.backend import current_backend
from repro.fhe.bfv import BfvContext, Plaintext
from repro.fhe.ntt import negacyclic_mul_exact
from repro.fhe.params import TEST_TINY

CTX = BfvContext(TEST_TINY, seed=7331)
SK, PK = CTX.keygen()
RLK = CTX.relin_key(SK)
T = TEST_TINY.t
N = TEST_TINY.n

messages = st.integers(min_value=0, max_value=2**32).map(
    lambda seed: np.random.default_rng(seed).integers(0, T, N)
)
scalars = st.integers(min_value=-T + 1, max_value=T - 1)

_slow = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def enc(m):
    return CTX.encrypt(Plaintext.from_coeffs(m, TEST_TINY), PK)


def dec(ct):
    return CTX.decrypt(ct, SK).coeffs


def cmult(a, b):
    (out,) = current_backend().cmult_batch(CTX, [(a, b)], RLK)
    return out


class TestAdditiveLaws:
    @given(messages, messages)
    @_slow
    def test_add_homomorphic(self, m1, m2):
        assert np.array_equal(dec(CTX.add(enc(m1), enc(m2))), (m1 + m2) % T)

    @given(messages, messages)
    @_slow
    def test_add_commutes(self, m1, m2):
        a, b = enc(m1), enc(m2)
        assert np.array_equal(dec(CTX.add(a, b)), dec(CTX.add(b, a)))

    @given(messages)
    @_slow
    def test_sub_self_is_zero(self, m):
        ct = enc(m)
        assert np.array_equal(dec(CTX.sub(ct, ct)), np.zeros(N, dtype=np.int64))

    @given(messages, scalars, scalars)
    @_slow
    def test_smult_distributes(self, m, a, b):
        ct = enc(m)
        left = CTX.smult(ct, a + b)
        right = CTX.add(CTX.smult(ct, a), CTX.smult(ct, b))
        assert np.array_equal(dec(left), dec(right))


class TestMultiplicativeLaws:
    @given(messages, messages)
    @_slow
    def test_cmult_homomorphic(self, m1, m2):
        got = dec(cmult(enc(m1), enc(m2)))
        expected = np.mod(negacyclic_mul_exact(list(m1), list(m2)), T)
        assert np.array_equal(got, expected)

    @given(messages)
    @_slow
    def test_mult_by_one_is_identity(self, m):
        one = enc(np.concatenate([[1], np.zeros(N - 1, dtype=np.int64)]))
        assert np.array_equal(dec(cmult(enc(m), one)), m % T)

    @given(messages, scalars)
    @_slow
    def test_smult_matches_cmult_by_constant(self, m, s):
        const = np.zeros(N, dtype=np.int64)
        const[0] = s % T
        via_cmult = dec(cmult(enc(m), enc(const)))
        via_smult = dec(CTX.smult(enc(m), s))
        assert np.array_equal(via_cmult, via_smult)


class TestSlotLaws:
    @given(messages)
    @_slow
    def test_slot_coeff_duality(self, m):
        # decode(encode(v)) == v for both views of the same data
        pt = Plaintext.from_slots(m, TEST_TINY)
        assert np.array_equal(pt.to_slots(), m % T)

    @given(messages, messages)
    @_slow
    def test_slotwise_product(self, v1, v2):
        out = cmult(
            CTX.encrypt(Plaintext.from_slots(v1, TEST_TINY), PK),
            CTX.encrypt(Plaintext.from_slots(v2, TEST_TINY), PK),
        )
        assert np.array_equal(CTX.decrypt(out, SK).to_slots(), v1 * v2 % T)


class TestNoiseMonotonicity:
    @given(messages)
    @_slow
    def test_ops_never_reduce_estimated_noise(self, m):
        ct = enc(m)
        assert CTX.add(ct, ct).noise_bits >= ct.noise_bits
        assert CTX.smult(ct, 3).noise_bits >= ct.noise_bits
        assert CTX.pmult(ct, Plaintext.from_coeffs(m, TEST_TINY)).noise_bits >= ct.noise_bits
