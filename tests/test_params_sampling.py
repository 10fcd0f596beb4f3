"""Tests for parameter sets and the randomness source."""

import math

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.fhe.params import (
    ATHENA,
    ATHENA_MEDIUM,
    PRESETS,
    TEST_LOOP,
    TEST_SMALL,
    FheParams,
    get_params,
)
from repro.utils.sampling import SIGMA, Sampler


class TestAthenaParams:
    def test_paper_values(self):
        assert ATHENA.n == 1 << 15
        assert ATHENA.t == 65537
        assert ATHENA.lwe_n == 2048
        assert 719 <= ATHENA.q.bit_length() <= 721

    def test_ciphertext_size_matches_paper(self):
        # Paper Table 1: 5.6 MB.
        assert ATHENA.ciphertext_bytes == pytest.approx(5.6 * 2**20, rel=0.05)

    def test_full_slot_packing_supported(self):
        # t - 1 = 2^16 is divisible by 2N = 2^16: all slots available.
        assert (ATHENA.t - 1) % (2 * ATHENA.n) == 0

    def test_moduli_are_distinct_ntt_primes(self):
        assert len(set(ATHENA.moduli)) == ATHENA.num_limbs
        for p in ATHENA.moduli:
            assert p % (2 * ATHENA.n) == 1
            assert p < 1 << 30

    def test_delta_definition(self):
        assert ATHENA.delta == ATHENA.q // ATHENA.t


class TestPresets:
    def test_all_presets_valid(self):
        for params in PRESETS.values():
            assert (params.t - 1) % (2 * params.n) == 0
            assert params.q == np.prod([], initial=1) or params.q > 0
            assert params.lwe_q == params.moduli[0]

    def test_lookup(self):
        assert get_params("athena") is ATHENA
        assert get_params("test-loop") is TEST_LOOP
        with pytest.raises(ParameterError):
            get_params("toy")


class TestValidation:
    def test_non_pow2_degree(self):
        with pytest.raises(ParameterError):
            FheParams("bad", n=100, limb_bits=30, num_limbs=2, t=257, lwe_n=16)

    def test_composite_t(self):
        with pytest.raises(ParameterError):
            FheParams("bad", n=32, limb_bits=30, num_limbs=2, t=256, lwe_n=16)

    def test_wide_limbs(self):
        with pytest.raises(ParameterError):
            FheParams("bad", n=32, limb_bits=32, num_limbs=2, t=257, lwe_n=16)

    def test_lwe_dim_exceeds_ring(self):
        with pytest.raises(ParameterError):
            FheParams("bad", n=32, limb_bits=30, num_limbs=2, t=257, lwe_n=64)

    def test_non_pow2_lwe(self):
        with pytest.raises(ParameterError):
            FheParams("bad", n=64, limb_bits=30, num_limbs=2, t=257, lwe_n=24)

    def test_zero_lwe_dim(self):
        """``0 & -1 == 0`` passes a bare power-of-two test; an LWE dimension
        of 0 would expose every message."""
        with pytest.raises(ParameterError, match="LWE dimension"):
            FheParams("bad", n=32, limb_bits=30, num_limbs=2, t=257, lwe_n=0)

    def test_zero_limbs(self):
        """No limb prime: Q would be 1."""
        with pytest.raises(ParameterError, match="limb"):
            FheParams("bad", n=32, limb_bits=30, num_limbs=0, t=257, lwe_n=16)


class TestSizing:
    def test_keyswitch_key_scales_with_digits(self):
        """D digits, each two ring elements over Q u P: one digit where Q
        alone is above the 128-bit ceiling, five at ATHENA (24 digits of
        751 bits under one digit per limb)."""
        for params in (TEST_SMALL, ATHENA_MEDIUM, ATHENA):
            bits = math.prod(params.keyswitch_moduli).bit_length()
            digit = 2 * params.n * bits // 8
            assert params.keyswitch_key_bytes() == params.num_digits * digit
            assert digit > params.ciphertext_bytes  # the special basis' share
        assert (TEST_SMALL.num_digits, ATHENA_MEDIUM.num_digits) == (1, 1)
        assert (len(ATHENA.special_moduli), ATHENA.num_digits) == (5, 5)
        assert ATHENA.keyswitch_key_bytes() == 5 * 2 * 2**15 * 875 // 8

    def test_medium_between_small_and_full(self):
        assert TEST_SMALL.ciphertext_bytes < ATHENA_MEDIUM.ciphertext_bytes < ATHENA.ciphertext_bytes


class TestSampler:
    def test_deterministic_with_seed(self):
        a = Sampler(5).uniform(1000, 100)
        b = Sampler(5).uniform(1000, 100)
        assert np.array_equal(a, b)

    def test_uniform_range(self):
        vals = Sampler(1).uniform(257, 10000)
        assert vals.min() >= 0 and vals.max() < 257

    def test_ternary_values(self):
        vals = Sampler(2).ternary(10000)
        assert set(np.unique(vals)) <= {-1, 0, 1}
        # roughly balanced
        assert 0.25 < (vals == 0).mean() < 0.42

    def test_gaussian_std(self):
        vals = Sampler(3).gaussian(50000)
        assert SIGMA == 3.2 and 2.9 < vals.std() < 3.5
