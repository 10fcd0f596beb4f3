"""Unit tests for the NTT layer: transforms, exact multiplier, cyclic DFT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.fhe import ntt
from repro.utils.modmath import find_ntt_primes, inv_mod, primitive_root

P64 = find_ntt_primes(1, 30, 128)[0]  # supports N = 64


def naive_negacyclic(a, b, p):
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            k = i + j
            if k < n:
                out[k] = (out[k] + int(a[i]) * int(b[j])) % p
            else:
                out[k - n] = (out[k - n] - int(a[i]) * int(b[j])) % p
    return np.array(out, dtype=np.int64)


class TestForwardInverse:
    def test_roundtrip(self, rng):
        a = rng.integers(0, P64, 64)
        back = ntt.ntt_inverse(ntt.ntt_forward(a.copy(), P64), P64)
        assert np.array_equal(back, a)

    def test_linear(self, rng):
        a = rng.integers(0, P64, 64)
        b = rng.integers(0, P64, 64)
        fa = ntt.ntt_forward(a.copy(), P64)
        fb = ntt.ntt_forward(b.copy(), P64)
        fsum = ntt.ntt_forward((a + b) % P64, P64)
        assert np.array_equal(fsum, (fa + fb) % P64)

    def test_batched_rows(self, rng):
        batch = rng.integers(0, P64, (5, 64))
        fwd = ntt.ntt_forward(batch.copy(), P64)
        for i in range(5):
            assert np.array_equal(fwd[i], ntt.ntt_forward(batch[i].copy(), P64))

    def test_rejects_bad_size(self):
        with pytest.raises(ParameterError):
            ntt.ntt_forward(np.zeros(48, dtype=np.int64), P64)


class TestMultiplication:
    def test_matches_naive(self, rng):
        a = rng.integers(0, P64, 64)
        b = rng.integers(0, P64, 64)
        assert np.array_equal(ntt.ntt_mul(a, b, P64), naive_negacyclic(a, b, P64))

    def test_x_times_xn_minus_1_wraps_negative(self):
        # X * X^(N-1) = X^N = -1 in the negacyclic ring.
        n = 64
        a = np.zeros(n, dtype=np.int64)
        b = np.zeros(n, dtype=np.int64)
        a[1] = 1
        b[n - 1] = 1
        out = ntt.ntt_mul(a, b, P64)
        expected = np.zeros(n, dtype=np.int64)
        expected[0] = P64 - 1
        assert np.array_equal(out, expected)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30)
    def test_scalar_mul_consistency(self, c):
        rng = np.random.default_rng(c)
        a = rng.integers(0, P64, 64)
        b = np.zeros(64, dtype=np.int64)
        b[0] = c % P64
        assert np.array_equal(ntt.ntt_mul(a, b, P64), a * (c % P64) % P64)


class TestExactMultiplier:
    def test_matches_ntt_small_coeffs(self, rng):
        a = rng.integers(-1000, 1000, 64)
        b = rng.integers(-1000, 1000, 64)
        exact = np.mod(ntt.negacyclic_mul_exact(list(a), list(b)), P64)
        assert np.array_equal(exact.astype(np.int64), ntt.ntt_mul(a, b, P64))

    def test_big_coefficients(self):
        # Coefficients far beyond int64.
        a = [2**100 + i for i in range(8)]
        b = [-(2**90) + 7 * i for i in range(8)]
        got = ntt.negacyclic_mul_exact(a, b)
        exp = [0] * 8
        for i in range(8):
            for j in range(8):
                k = i + j
                if k < 8:
                    exp[k] += a[i] * b[j]
                else:
                    exp[k - 8] -= a[i] * b[j]
        assert got == exp

    def test_zero_operand(self):
        a = [0] * 16
        b = list(range(16))
        assert ntt.negacyclic_mul_exact(a, b) == [0] * 16

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            ntt.negacyclic_mul_exact([1, 2], [1, 2, 3])

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_length_not_power_of_two(self, n):
        with pytest.raises(ParameterError, match="power-of-two"):
            ntt.negacyclic_mul_exact([1] * n, [1] * n)

    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=16, max_size=16),
           st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=16, max_size=16))
    @settings(max_examples=30)
    def test_property_vs_schoolbook(self, a, b):
        got = ntt.negacyclic_mul_exact(a, b)
        exp = [0] * 16
        for i in range(16):
            for j in range(16):
                k = i + j
                if k < 16:
                    exp[k] += a[i] * b[j]
                else:
                    exp[k - 16] -= a[i] * b[j]
        assert got == exp


class TestCyclicNtt:
    @pytest.mark.parametrize("t", [17, 257])
    def test_matches_direct_dft(self, t):
        g = primitive_root(t)
        root = inv_mod(g, t)
        n = t - 1
        rng = np.random.default_rng(t)
        x = rng.integers(0, t, n)
        direct = np.array(
            [sum(int(x[m]) * pow(root, k * m, t) for m in range(n)) % t for k in range(n)]
        )
        assert np.array_equal(ntt.cyclic_ntt(x, t, root), direct)

    def test_rejects_non_pow2(self):
        with pytest.raises(ParameterError):
            ntt.cyclic_ntt(np.zeros(6, dtype=np.int64), 17, 2)

    def test_rejects_wrong_order_root(self):
        with pytest.raises(ParameterError):
            ntt.cyclic_ntt(np.zeros(16, dtype=np.int64), 17, 16)  # 16 has order 2
