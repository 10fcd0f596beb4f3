"""Tests for the HE-standard security estimator."""

import pytest

from repro.fhe.params import ATHENA, PRESETS
from repro.fhe.security import check_params, max_logq, security_level


class TestMaxLogQ:
    def test_table_values(self):
        assert max_logq(32768, 128) == 881
        assert max_logq(2048, 128) == 54
        assert max_logq(4096, 256) == 58

    def test_interpolation_monotone(self):
        assert max_logq(1024) < max_logq(3000) < max_logq(4096)

    def test_levels_ordered(self):
        for n in (2048, 32768):
            assert max_logq(n, 128) > max_logq(n, 192) > max_logq(n, 256)


class TestSecurityLevel:
    def test_at_ceiling_is_128(self):
        assert security_level(32768, 881) == pytest.approx(128.0)

    def test_smaller_q_is_stronger(self):
        assert security_level(32768, 720) > security_level(32768, 881)


class TestAthenaClaim:
    def test_paper_claim_holds(self):
        # §3.3: "These parameters guarantee > 128 bits security."
        result = check_params(ATHENA)
        assert result["rlwe_bits"] > 128
        assert result["lwe_bits"] > 128
        assert result["meets_target"] == 1.0

    def test_rlwe_margin(self):
        # logQ = 720 under the 881-bit ceiling at N = 2^15.
        result = check_params(ATHENA)
        assert result["rlwe_bits"] == pytest.approx(128 * 881 / 720, rel=0.01)


class TestKeysJudgedAtQP:
    """Keyswitch keys are RLWE samples modulo Q * P, so the report judges
    them at log2(QP), not at Q."""

    def test_athena_keys_stay_above_128_under_the_digit_rule(self):
        result = check_params(ATHENA)
        assert (len(ATHENA.special_moduli), ATHENA.num_digits) == (5, 5)
        assert result["logqp"] == 875 <= max_logq(ATHENA.n, 128)
        assert 128 <= result["key_bits"] < result["rlwe_bits"]
        assert result["key_bits"] == pytest.approx(128 * 881 / 875)
        assert result["meets_target"] == 1.0

    @pytest.mark.parametrize("name", sorted(n for n in PRESETS if n.startswith("test-")))
    def test_toy_sets_are_reported_as_toys(self, name):
        result = check_params(PRESETS[name])
        assert result["key_bits"] < result["rlwe_bits"] < 128
        assert result["meets_target"] == 0.0
