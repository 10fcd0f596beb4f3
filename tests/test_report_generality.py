"""Tests for the schedule report and the framework-generality extension
(a non-benchmark model run through the entire pipeline)."""

import numpy as np
import pytest

from repro.accel.baselines import calibrated_athena
from repro.accel.report import bound_census, phase_summary, render_schedule
from repro.accel.scheduler import schedule
from repro.core.inference import SimulatedAthenaEngine
from repro.core.trace import trace_model
from repro.data import synthetic_cifar
from repro.fhe.params import ATHENA
from repro.quant.models import build, vgg_lite
from repro.quant.nn import Sgd, train_epoch
from repro.quant.quantize import QuantConfig, quantize_model


@pytest.fixture(scope="module")
def vgg_setup():
    rng = np.random.default_rng(4)
    x, y = synthetic_cifar(500, rng)
    model = vgg_lite(rng=np.random.default_rng(5), width=0.5)
    opt = Sgd(lr=0.05)
    for _ in range(2):
        train_epoch(model, x, y, opt, batch_size=32, rng=rng)
    qm = quantize_model(model, x[:64], QuantConfig(7, 7), "vgg_lite")
    qm.forward_float(x[:64])
    return qm, x, y


class TestScheduleReport:
    @pytest.fixture(scope="class")
    def result(self, vgg_setup):
        qm, *_ = vgg_setup
        return schedule(trace_model(qm, ATHENA), calibrated_athena())

    def test_phase_summary_shares_sum_to_one(self, result):
        shares = [s for _, _, s in phase_summary(result)]
        assert sum(shares) == pytest.approx(1.0)

    def test_bound_census_sums_to_one(self, result):
        assert sum(bound_census(result).values()) == pytest.approx(1.0)

    def test_render_contains_bars(self, result):
        text = render_schedule(result)
        assert "#" in text and "bound by:" in text
        assert "fbs" in text


class TestGeneralityVggLite:
    def test_builder_registered(self):
        model = build("vgg_lite", rng=np.random.default_rng(0), width=0.25)
        out = model.forward(np.random.default_rng(1).normal(size=(2, 3, 32, 32)))
        assert out.shape == (2, 10)

    def test_quantizes_and_fits_t(self, vgg_setup):
        qm, x, _ = vgg_setup
        assert qm.check_t()

    def test_cipher_gap_small(self, vgg_setup):
        # The §3.4 claim: a new model needs only its mapping + LUTs.
        qm, x, y = vgg_setup
        engine = SimulatedAthenaEngine(qm, ATHENA, seed=9)
        plain = qm.accuracy(x[:200], y[:200])
        cipher = engine.accuracy(x[:200], y[:200])
        assert abs(plain - cipher) < 0.04

    def test_schedulable_on_athena(self, vgg_setup):
        qm, *_ = vgg_setup
        res = schedule(trace_model(qm, ATHENA), calibrated_athena())
        assert 1.0 < res.total_ms < 200.0
