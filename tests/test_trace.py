"""Tests for the op-trace generator and the CKKS workload model."""

import numpy as np
import pytest

from repro.core.trace import (
    OpCounts,
    effective_t,
    fbs_ops,
    fbs_ops_split,
    packing_ops,
    s2c_ops,
    se_chain_ops,
    strategy_costs,
    trace_model,
)
from repro.data import synthetic_digits
from repro.fhe.params import ATHENA
from repro.quant.models import lenet, mnist_cnn
from repro.quant.quantize import QuantConfig, quantize_model


@pytest.fixture(scope="module")
def traced_model():
    rng = np.random.default_rng(0)
    x, _ = synthetic_digits(32, rng)
    qm = quantize_model(mnist_cnn(rng=np.random.default_rng(1)), x, QuantConfig(7, 7), "mnist_cnn")
    qm.forward_float(x[:16])
    return qm


class TestOpCounts:
    def test_iadd_accumulates(self):
        a = OpCounts(ntt=1, mod_mul=10)
        a += OpCounts(ntt=2, mod_mul=5, extract=7)
        assert a.ntt == 3 and a.mod_mul == 15 and a.extract == 7

    def test_scaled(self):
        a = OpCounts(ntt=2, mod_add=8).scaled(2.5)
        assert a.ntt == 5 and a.mod_add == 20


class TestPrimitiveShapes:
    def test_fbs_smult_linear_in_t(self):
        small = fbs_ops(ATHENA, 1 << 12)
        large = fbs_ops(ATHENA, 1 << 14)
        # Baby-half elementwise work scales ~linearly with t.
        assert 3.2 < large.mod_mul / small.mod_mul < 4.8

    def test_fbs_split_shapes(self):
        baby, giant = fbs_ops_split(ATHENA, 1 << 14)
        assert baby.mod_mul > giant.mod_mul  # O(t) vs O(sqrt t) elementwise
        assert giant.ntt > baby.ntt  # CMult relins live in the giant half

    def test_se_chain_scales_with_values(self):
        a = se_chain_ops(ATHENA, 1000)
        b = se_chain_ops(ATHENA, 2000)
        assert b.extract == 2 * a.extract
        assert b.mod_mul == 2 * a.mod_mul

    def test_packing_and_s2c_nonzero(self):
        for ops in (packing_ops(ATHENA), s2c_ops(ATHENA)):
            assert ops.mod_mul > 0 and ops.automorph > 0


class TestEffectiveT:
    def test_no_peak_falls_back_to_cap(self):
        layer = type("L", (), {"mac_peak": 0})()
        assert effective_t(layer, ATHENA) == ATHENA.t
        assert effective_t(layer, ATHENA, cap=1 << 12) == 1 << 12

    def test_peak_shrinks_table(self):
        # 2*peak + 1 = 2049 entries round up to the next power of two.
        layer = type("L", (), {"mac_peak": 1 << 10})()
        assert effective_t(layer, ATHENA) == 1 << 12
        layer2 = type("L", (), {"mac_peak": (1 << 10) - 1})()
        assert effective_t(layer2, ATHENA) == 1 << 11

    def test_floor_at_256(self):
        layer = type("L", (), {"mac_peak": 3})()
        assert effective_t(layer, ATHENA) == 256

    def test_cap_above_params_t_allowed(self):
        # w8a8 uses a larger plaintext prime.
        layer = type("L", (), {"mac_peak": 1 << 16})()
        assert effective_t(layer, ATHENA, cap=1 << 17) == 1 << 17


class TestTraceModel:
    def test_phases_cover_pipeline(self, traced_model):
        trace = trace_model(traced_model, ATHENA)
        phases = {p.phase for p in trace.phases}
        for expected in ("linear", "se", "packing", "fbs", "fbs_giant", "s2c", "softmax"):
            assert expected in phases

    def test_fbs_dominates_mod_muls(self, traced_model):
        by_phase = trace_model(traced_model, ATHENA).by_phase()
        fbs = by_phase["fbs"].mod_mul + by_phase.get("fbs_giant", OpCounts()).mod_mul
        assert fbs > by_phase["linear"].mod_mul

    def test_flexible_lut_reduces_work(self, traced_model):
        full = trace_model(traced_model, ATHENA, t_eff=ATHENA.t).totals()
        small = trace_model(traced_model, ATHENA, t_eff=1 << 12).totals()
        assert small.mod_mul < full.mod_mul

    def test_softmax_optional(self, traced_model):
        with_sm = trace_model(traced_model, ATHENA, softmax=True)
        without = trace_model(traced_model, ATHENA, softmax=False)
        assert len(with_sm.phases) > len(without.phases)
        assert not any(p.phase == "softmax" for p in without.phases)

    def test_lenet_has_pooling_phases(self):
        rng = np.random.default_rng(2)
        x, _ = synthetic_digits(16, rng)
        qm = quantize_model(lenet(rng=np.random.default_rng(3), width=0.5), x,
                            QuantConfig(7, 7), "lenet")
        trace = trace_model(qm, ATHENA)
        assert any(p.phase == "pooling" for p in trace.phases)

    def test_totals_equals_sum_of_phases(self, traced_model):
        trace = trace_model(traced_model, ATHENA)
        total = trace.totals()
        summed = OpCounts()
        for p in trace.phases:
            summed += p.ops
        assert total.mod_mul == summed.mod_mul
        assert total.ntt == summed.ntt


class TestStrategyCosts:
    def test_athena_beats_cheetah_on_paper_shape(self):
        from repro.core.encoding import TABLE2_SHAPES

        row = strategy_costs(TABLE2_SHAPES[0], ATHENA)
        assert row["pick"] == "athena"
        assert row["cheetah"] > row["athena"]


class TestZooSweep:
    """Every zoo model (resnet56 and the grouped-conv mobile_cnn included)
    lowers through the registry and is costed at paper params."""

    @pytest.mark.parametrize(
        "name", ["mnist_cnn", "lenet", "resnet20", "resnet56", "mobile_cnn"])
    def test_lower_and_trace(self, name):
        from repro.data import synthetic_cifar
        from repro.quant.models import build, input_shape

        rng = np.random.default_rng(7)
        shape = input_shape(name)
        x = (synthetic_digits(64, rng)[0] if shape == (1, 28, 28)
             else synthetic_cifar(64, rng)[0])
        width = 0.5 if name == "mobile_cnn" else 0.25
        model = build(name, rng=np.random.default_rng(11), width=width)
        qm = quantize_model(model, x[:32], QuantConfig(7, 7), name=name)
        first = trace_model(qm, ATHENA, softmax=False).totals()
        again = trace_model(qm, ATHENA, softmax=False).totals()
        assert first.mod_mul > 0 and first == again
