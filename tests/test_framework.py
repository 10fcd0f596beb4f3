"""End-to-end tests of the five-step Athena loop on real ciphertexts.

These validate the claims the simulated engine relies on: the loop computes
conv -> LUT with at most +/-1 remap deviation, and the measured modswitch
noise matches the analytic e_ms model used by the fast engine.
"""

import numpy as np
import pytest

from repro.core.encoding import (
    conv_via_coefficients,
    encode_features,
    encode_kernels,
    valid_output_positions,
)
from repro.core.framework import AthenaPipeline
from repro.core.inference import AthenaNoiseModel
from repro.core.keyinventory import build_inventory
from repro.core.lut import remap_lut
from repro.fhe import lwe as lwelib
from repro.fhe.backend import CountingBackend, use_backend
from repro.fhe.fbs import FbsLut
from repro.fhe.params import TEST_FBS, TEST_LOOP
from repro.fhe.slots import row_swap_element
from tests.conftest import REFRESH_SIGMAS


@pytest.fixture(scope="module")
def pipeline():
    return AthenaPipeline(TEST_LOOP, seed=41)


class TestKeygen:
    @pytest.mark.parametrize("params, count", [(TEST_LOOP, 15), (TEST_FBS, 7)],
                             ids=lambda v: getattr(v, "name", v))
    def test_one_galois_key_per_element(self, params, count):
        """Packing and S2C rotate by the same BSGS amounts under the same
        secret: the pipeline generates each Galois key once — the count
        ``build_inventory`` models — and both holders share the object.
        S2C rotates with them on every request; packing uses them once, to
        build its stack of rotated secrets."""
        pipe = AthenaPipeline(params, seed=41)
        packing, s2c = pipe.packing_key.rotation_keys, pipe.s2c_keys
        assert packing and all(s2c[k] is gk for k, gk in packing.items())
        distinct = {id(gk) for gk in (*packing.values(), *s2c.values())}
        assert len(distinct) == len(packing | s2c) == count
        assert build_inventory(params).num_galois_keys == count
        assert set(s2c) - set(packing) == {row_swap_element(params.n)}


@pytest.mark.slow
class TestFullLoop:
    CIN, COUT, HW, WK = 1, 2, 6, 3

    def _conv_setup(self, rng, pipe, cout=COUT):
        p = pipe.params
        m = rng.integers(-4, 5, (self.CIN, self.HW, self.HW))
        k = rng.integers(-4, 5, (cout, self.CIN, self.WK, self.WK))
        mh = encode_features(m, p.n)
        kh = encode_kernels(k, self.HW, self.HW, p.n)
        pos = valid_output_positions(cout, self.CIN, self.HW, self.HW, self.WK, 1)
        macs = conv_via_coefficients(m, k, p.n).reshape(-1)
        return mh, kh, pos, macs

    @staticmethod
    def _remap_bound(pipe, multiplier):
        """§3.3: refresh noise e_ms (std sigma_ms = 1.89 for this LWE secret)
        moves a remap of multiplier mu by at most ceil(mu * |e_ms|), taken
        at REFRESH_SIGMAS sigma."""
        secret = pipe.lwe_secret
        sigma = AthenaNoiseModel(pipe.params, secret_norm_sq=float(secret @ secret)).std
        return np.ceil(multiplier * REFRESH_SIGMAS * sigma)

    def test_linear_step_exact(self, pipeline, rng):
        mh, kh, pos, macs = self._conv_setup(rng, pipeline)
        ct = pipeline.encrypt_coeffs(mh)
        out = pipeline.linear(ct, kh)
        dec = pipeline.decrypt_coeffs(out)
        got = dec[pos]
        t = pipeline.params.t
        assert np.array_equal(got, macs % t)

    def test_refresh_chain_small_error(self, pipeline, rng):
        mh, kh, pos, macs = self._conv_setup(rng, pipeline)
        ct = pipeline.linear(pipeline.encrypt_coeffs(mh), kh)
        batch = pipeline.refresh_to_lwe(ct, pos)
        dec = lwelib.lwe_decrypt(batch, pipeline.lwe_secret, delta=1, t=pipeline.params.t)
        t = pipeline.params.t
        err = (dec - macs) % t
        err = np.where(err > t // 2, err - t, err)
        # e_ms regime: a few units of perturbation at Delta = 1.
        assert np.abs(err).max() <= 15

    def test_measured_ems_matches_model(self, pipeline, rng):
        """The analytic noise model the fast engine injects must match the
        real chain's measured error distribution (same order of magnitude)."""
        p = pipeline.params
        m = rng.integers(-50, 50, p.n)
        ct = pipeline.encrypt_coeffs(m)
        batch = pipeline.refresh_to_lwe(ct, np.arange(p.n))
        dec = lwelib.lwe_decrypt(batch, pipeline.lwe_secret, delta=1, t=p.t)
        err = (dec - m) % p.t
        err = np.where(err > p.t // 2, err - p.t, err).astype(np.float64)
        predicted = np.sqrt((2 * p.lwe_n / 3 + 1) / 12.0)
        assert 0.3 * predicted < err.std() < 3.0 * predicted

    def test_full_loop_remap_within_one(self, pipeline, rng):
        mh, kh, pos, macs = self._conv_setup(rng, pipeline)
        p = pipeline.params
        lut = remap_lut(multiplier=0.25, activation="relu", a_max=63, t=p.t)
        counting = CountingBackend()
        with use_backend(counting):
            out = pipeline.loop(pipeline.encrypt_coeffs(mh), kh, lut, pos)
        dec = pipeline.decrypt_coeffs(out)[: pos.shape[0]]
        got = np.where(dec > p.t // 2, dec - p.t, dec)
        expected = lut.apply_plain_signed(macs)
        assert np.abs(got - expected).max() <= self._remap_bound(pipeline, 0.25)
        ops = counting.ops_by_phase()
        assert ops["linear"]["pmult"] == 1
        assert ops["se"]["extract"] == pos.shape[0]
        assert ops["fbs"]["smult"] > 0 and ops["fbs_giant"]["cmult"] > 0

    def test_loop_zeroes_every_row_it_leaves(self, pipeline, rng):
        """LUT(0) = 4 — the ReLU remap + 4 — over three output channels: 48
        rows at period 64. The outputs sit within the remap bound of the
        plaintext table, and every coefficient from 48 up is an exact zero:
        the pad rows [48, 64) too, which a round without its -LUT(0)
        correction leaves at 4."""
        p = pipeline.params
        mh, kh, pos, macs = self._conv_setup(rng, pipeline, cout=3)
        relu = remap_lut(multiplier=0.25, activation="relu", a_max=63, t=p.t)
        lut = FbsLut(relu.values + 4, p.t, "remap-relu+4")
        assert pos.shape[0] == 48 and lut.values[0] == 4
        dec = pipeline.decrypt_coeffs(pipeline.loop(pipeline.encrypt_coeffs(mh), kh, lut, pos))
        assert not dec[48:].any()
        got = np.where(dec[:48] > p.t // 2, dec[:48] - p.t, dec[:48])
        expected = lut.apply_plain_signed(macs)
        assert np.abs(got - expected).max() <= self._remap_bound(pipeline, 0.25)

    def test_loop_output_feeds_next_linear(self, pipeline, rng):
        # After S2C the data is back in coefficients: apply another PMult.
        p = pipeline.params
        mh, kh, pos, macs = self._conv_setup(rng, pipeline)
        lut = remap_lut(multiplier=0.25, activation="relu", a_max=63, t=p.t)
        out = pipeline.loop(pipeline.encrypt_coeffs(mh), kh, lut, pos)
        two = np.zeros(p.n, dtype=np.int64)
        two[0] = 2
        doubled = pipeline.linear(out, two)
        dec = pipeline.decrypt_coeffs(doubled)[: pos.shape[0]]
        got = np.where(dec > p.t // 2, dec - p.t, dec)
        expected = 2 * lut.apply_plain_signed(macs)
        # Doubled here: 4. The ±2 this replaces is |e| <= 4, a 2.1-sigma
        # draw (one remap in 200 lands beyond it at any commit).
        assert np.abs(got - expected).max() <= 2 * self._remap_bound(pipeline, 0.25)

    def test_sim_engine_noise_model_agrees_with_real_chain(self, pipeline, rng):
        """The fast engine injects N(0, sqrt((2n/3+1)/12)); the real chain's
        measured remap-flip rate must sit in the same band as the model's
        prediction for the same LUT step size."""
        p = pipeline.params
        lut = remap_lut(multiplier=0.25, activation="identity", a_max=63, t=p.t)
        m = rng.integers(-100, 100, p.n)
        ct = pipeline.encrypt_coeffs(m)
        batch = pipeline.refresh_to_lwe(ct, np.arange(p.n))
        dec = lwelib.lwe_decrypt(batch, pipeline.lwe_secret, delta=1, t=p.t)
        real_flips = (
            lut.apply_plain_signed(dec) != lut.apply_plain_signed(m)
        ).mean()
        # model prediction: same LUT applied to model-perturbed inputs
        model = AthenaNoiseModel(p)
        base = rng.integers(-100, 100, 20000)
        sim_flips = (
            lut.apply_plain_signed(base + model.sample(np.random.default_rng(1), base.shape))
            != lut.apply_plain_signed(base)
        ).mean()
        assert 0.2 * sim_flips < real_flips < 5.0 * max(sim_flips, 1e-3)

    def test_budget_survives_loop(self, pipeline, rng):
        mh, kh, pos, macs = self._conv_setup(rng, pipeline)
        p = pipeline.params
        lut = remap_lut(multiplier=0.25, activation="relu", a_max=63, t=p.t)
        out = pipeline.loop(pipeline.encrypt_coeffs(mh), kh, lut, pos)
        # The decisive check: true noise below half Delta.
        true_bits = pipeline.ctx.true_noise_bits(out, pipeline.sk)
        assert true_bits < np.log2(p.delta / 2)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 4(a): the bit-max Table-4 estimate (293.2 bits) "
        "calls this round undecryptable (limit 261.0; measured noise ~178 bits)",
    )
    def test_noise_estimate_certifies_one_loop(self, pipeline, rng):
        """The same round as test_budget_survives_loop: its noise estimate
        must leave budget. XPASSes once the estimate certifies; then the
        marker goes."""
        mh, kh, pos, _ = self._conv_setup(rng, pipeline)
        lut = remap_lut(multiplier=0.25, activation="relu", a_max=63, t=pipeline.params.t)
        out = pipeline.loop(pipeline.encrypt_coeffs(mh), kh, lut, pos)
        assert out.noise_budget_bits > 0
