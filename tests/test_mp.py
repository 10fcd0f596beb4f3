"""Tests for the mixed-precision PTQ allocator (``repro.quant.mp``)."""

import numpy as np
import pytest

from repro.core.plan import compile_program, program_fingerprint
from repro.core.program import lower
from repro.core.trace import effective_t, trace_model
from repro.errors import ModulusOverflow, ParameterError, QuantizationError
from repro.fhe.params import TEST_FBS
from repro.fhe.serialize import dump_plan, load_plan
from repro.quant.mp import (
    DEFAULT_LUT_MARGIN,
    MpConfig,
    allocate_bits,
    assign_lut_ranges,
    mac_layer_names,
    mp_micro_subject,
)
from repro.quant.quantize import (
    LayerQuantConfig,
    QConv,
    QLinear,
    QuantConfig,
    quantize_model,
)


@pytest.fixture(scope="module")
def subject():
    return mp_micro_subject()


@pytest.fixture(scope="module")
def allocation(subject):
    model, x, y, config = subject
    return allocate_bits(model, x, y, config, params=TEST_FBS, budget=0.02)


class TestMpConfig:
    def test_round_trip_json(self):
        mp = MpConfig.from_dict({
            "conv0": LayerQuantConfig(4, 5),
            "linear2": LayerQuantConfig(2, 2),
        })
        again = MpConfig.from_json(mp.to_json())
        assert again == mp
        assert again.get("conv0") == LayerQuantConfig(4, 5)
        assert again.get("linear1") is None

    def test_tag_stable_and_uniform(self):
        assert not MpConfig()
        assert MpConfig().tag() == "uniform"
        mp = MpConfig.from_dict({"linear1": LayerQuantConfig(3, 3)})
        assert mp.tag() == "linear1=w3a3"
        assert len(mp) == 1

    def test_duplicate_layer_rejected(self):
        with pytest.raises(ParameterError):
            MpConfig(assignments=(
                ("conv0", LayerQuantConfig(3, 3)),
                ("conv0", LayerQuantConfig(4, 4)),
            ))

    def test_narrow_bits_rejected(self):
        with pytest.raises(QuantizationError):
            LayerQuantConfig(1, 3)


class TestLayerNaming:
    def test_names_match_quantize_counter(self, subject):
        model, x, _y, config = subject
        qm = quantize_model(model, x, config, name="named")
        names = mac_layer_names(qm.layers)
        assert [n for n, _ in names] == ["conv0", "linear1"]
        assert isinstance(names[0][1], QConv)
        assert isinstance(names[1][1], QLinear)


class TestTrackedQuantization:
    def test_per_layer_bits_clamp_weights(self, subject):
        model, x, _y, config = subject
        mp = MpConfig.from_dict({"linear1": LayerQuantConfig(2, 2)})
        qm = quantize_model(model, x, config, name="m", mp=mp)
        names = dict(mac_layer_names(qm.layers))
        assert int(np.abs(names["linear1"].weight).max()) <= 1  # w_max(2) = 1
        assert int(np.abs(names["conv0"].weight).max()) <= config.w_max
        assert names["linear1"].bits == LayerQuantConfig(2, 2)

    def test_uniform_tracking_matches_legacy(self, subject):
        """The floor config is plain-identical to the legacy baseline."""
        model, x, _y, config = subject
        legacy = quantize_model(model, x, config, name="m")
        floor = quantize_model(model, x, config, name="m", mp=MpConfig(),
                               bias_correct=False, lut_margin=None)
        x_q = legacy.quantize_input(x[:16])
        assert np.array_equal(legacy.forward_int(x_q), floor.forward_int(x_q))

    def test_lut_ranges_cover_observed_macs(self, subject):
        model, x, _y, config = subject
        qm = quantize_model(model, x, config, name="m", mp=MpConfig(),
                            lut_margin=DEFAULT_LUT_MARGIN)
        for _name, node in mac_layer_names(qm.layers):
            assert node.lut_range is not None
            assert node.lut_range >= node.mac_peak + DEFAULT_LUT_MARGIN
            assert 2 * node.lut_range + 1 < config.t

    def test_assign_lut_ranges_post_hoc(self, subject):
        model, x, y, config = subject
        qm = quantize_model(model, x, config, name="m")
        qm.accuracy(x[:32], y[:32])  # populate mac peaks
        annotated = assign_lut_ranges(qm)
        assert annotated == 2
        assert all(n.lut_range for _, n in mac_layer_names(qm.layers))


class TestRestrictedLut:
    def test_tables_exact_on_domain(self, subject):
        model, x, _y, config = subject
        qm = quantize_model(model, x, config, name="m", mp=MpConfig(),
                            lut_margin=DEFAULT_LUT_MARGIN)
        program = lower(qm, TEST_FBS)
        checked = 0
        for step in program.lut_steps():
            spec = step.lut
            r = spec.lut_range
            assert r and 2 * r + 1 < config.t
            lut = spec.build(config)
            pts = np.arange(-r, r + 1, dtype=np.int64)
            exact = spec.apply_exact(pts, config)
            assert np.array_equal(lut.values[pts % config.t] % config.t,
                                  exact % config.t)
            # The registered interpolant is the low-degree polynomial the
            # FBS ladder actually evaluates.
            degree = int(np.max(np.nonzero(lut.coeffs % config.t)))
            assert degree <= 2 * r
            checked += 1
        assert checked == 2

    def test_effective_t_takes_certified_range(self, subject):
        model, x, _y, config = subject
        qm = quantize_model(model, x, config, name="m", mp=MpConfig(),
                            lut_margin=DEFAULT_LUT_MARGIN)
        for _name, node in mac_layer_names(qm.layers):
            assert effective_t(node, TEST_FBS) == 2 * node.lut_range + 1
            # Without the certified range the model floors at 256.
            node.lut_range = None
            assert effective_t(node, TEST_FBS) >= 256


class TestAllocator:
    def test_within_budget_and_cheaper(self, allocation):
        res = allocation
        assert res.drop <= res.budget + 1e-12
        assert res.cost < res.baseline_cost
        assert res.floor_cost < res.baseline_cost
        # Floor admissibility: uniform bits + restricted LUTs never lose
        # accuracy vs the legacy baseline.
        assert res.floor_accuracy >= res.baseline_accuracy - res.budget - 1e-12

    @pytest.mark.parametrize("mode", ["greedy", "dp"])
    def test_micro_subject_allocation_is_pinned(self, subject, mode):
        """The objective is ``trace_model``'s predicted mod_muls; the
        allocation it produces on the micro subject, literally."""
        model, x, y, config = subject
        res = allocate_bits(model, x, y, config, params=TEST_FBS, mode=mode)
        assert res.mp.tag() == "linear1=w2a2"
        assert (res.baseline_cost, res.floor_cost, res.cost) == (
            553584, 195184, 182896)
        assert [(p.name, [(o.bits.label, o.cost) for o in p.options])
                for p in res.profiles] == [
            ("conv0", [("w2a2", 157296)]), ("linear1", [("w2a2", 182896)])]
        assert [round(a, 4) for a in (
            res.baseline_accuracy, res.floor_accuracy, res.accuracy)] == [
            0.9479, 0.9479, 0.9896]
        qm = quantize_model(model, x, config, name="m")
        qm.accuracy(x, y)  # the MAC peaks the allocator costs the baseline at
        assert res.baseline_cost == trace_model(
            qm, TEST_FBS, softmax=False).totals().mod_mul

    def test_dp_no_worse_than_greedy(self, subject, allocation):
        model, x, y, config = subject
        dp = allocate_bits(model, x, y, config, params=TEST_FBS,
                           budget=0.02, mode="dp")
        assert dp.drop <= dp.budget + 1e-12
        assert dp.cost <= allocation.cost + 1e-9

    def test_report_and_json(self, allocation):
        payload = allocation.to_json()
        assert payload["tag"] == allocation.mp.tag()
        assert MpConfig.from_json(payload["mp"]) == allocation.mp
        assert payload["layers"], payload
        text = allocation.report()
        assert "baseline" in text and "allocated" in text

    def test_bad_mode_rejected(self, subject):
        model, x, y, config = subject
        with pytest.raises(ParameterError):
            allocate_bits(model, x, y, config, params=TEST_FBS,
                          mode="simulated-annealing")


class TestPlanIntegration:
    def test_fingerprint_distinguishes_mp(self, subject, allocation):
        model, x, _y, config = subject
        base = quantize_model(model, x, config, name="m")
        fp_base = program_fingerprint(lower(base, TEST_FBS))
        fp_mp = program_fingerprint(lower(allocation.model, TEST_FBS))
        assert fp_base != fp_mp
        # Deterministic: re-lowering the same config reproduces the digest.
        again = quantize_model(model, x, config, name="m")
        assert program_fingerprint(lower(again, TEST_FBS)) == fp_base

    def test_mp_plan_round_trips(self, allocation):
        program = lower(allocation.model, TEST_FBS)
        plan = compile_program(program, TEST_FBS)
        raw = dump_plan(plan)
        assert dump_plan(load_plan(raw, TEST_FBS)) == raw

    @pytest.mark.slow
    def test_allocated_plan_executes_fewer_mod_muls(
            self, subject, allocation, executed_mod_muls):
        model, x, _y, config = subject

        def executed(qm):
            program = lower(qm, TEST_FBS)
            plan = compile_program(program, TEST_FBS)
            return executed_mod_muls(
                program, plan, qm.quantize_input(x[0]), TEST_FBS)[1]

        uniform = executed(quantize_model(model, x, config, name="m"))
        assert executed(allocation.model) < uniform


class TestModulusOverflowError:
    def test_validate_t_names_offender(self, subject):
        model, x, y, _config = subject
        wide = QuantConfig(w_bits=5, a_bits=5, t=TEST_FBS.t)
        qm = quantize_model(model, x, wide, name="m")
        qm.accuracy(x[:32], y[:32])  # populate mac peaks
        assert qm.max_mac() > wide.t // 2
        assert qm.check_t() is False
        with pytest.raises(ModulusOverflow) as err:
            qm.validate_t()
        exc = err.value
        assert exc.layer and exc.layer.startswith(("qconv", "qlinear"))
        assert exc.t == wide.t
        assert exc.excess == exc.mac_peak - wide.t // 2 > 0
        assert exc.layer in str(exc)
