"""Tests for the mixed-precision PTQ allocator (``repro.quant.mp``)."""

import numpy as np
import pytest

from repro.core.plan import compile_program, program_fingerprint
from repro.core.program import lower
from repro.core.trace import effective_t, trace_model
from repro.data.synthetic import synthetic_cifar, synthetic_digits
from repro.errors import ModulusOverflow, ParameterError, QuantizationError
from repro.fhe.params import TEST_FBS
from repro.fhe.serialize import dump_plan, load_plan
from repro.quant.models import build
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

    def test_windows_cover_the_walkers_macs(self):
        """Where lenet's MACs wrap t, tracking is ``forward_int``'s own run:
        the same peaks, and every frozen window covers them."""
        x, _ = synthetic_digits(64, np.random.default_rng(3))
        qm = quantize_model(build("lenet", rng=np.random.default_rng(11), width=0.25),
                            x, QuantConfig(7, 7, t=8193), name="lenet", mp=MpConfig(),
                            bias_correct=True, lut_margin=8)
        assert not qm.check_t()
        nodes = qm.mac_layers()
        tracked = [n.mac_peak for n in nodes]
        for node in nodes:
            node.mac_peak = 0
        qm.forward_int(qm.quantize_input(x))
        walked = [n.mac_peak for n in nodes]
        assert tracked == walked
        assert any(n.lut_range is not None for n in nodes)
        for node, peak in zip(nodes, walked):
            assert node.lut_range is None or node.lut_range >= peak

    @pytest.mark.parametrize("name, data, count, pinned", [
        ("resnet20", synthetic_cifar, 32, [
            (8975, 8983, -48), (5486, 5494, 3), (6189, 6197, -14),
            (10119, 10127, None), (5792, 5800, 7), (8088, 8096, -12),
            (8855, 8863, None), (10436, 10444, 30), (7380, 7388, -32),
            (13307, 13315, None), (8441, 8449, -48), (9296, 9304, -14),
            (3907, 3915, 12), (8368, 8376, None), (7519, 7527, 45),
            (10031, 10039, -34), (8177, 8185, None), (12645, 12653, 71),
            (9102, 9110, -4), (10386, 10394, None), (12029, 12037, -80),
            (12699, 12707, -81), (5523, 5531, -2), (10828, 10836, None),
            (9153, 9161, 123), (9958, 9966, -22), (10371, 10379, None),
            (12507, 12515, 39), (15089, 15097, -19), (7962, 7970, None),
            (1656, 1664, None), (1388, 1396, 34)]),
        ("mobile_cnn", synthetic_digits, 64, [
            (12005, 12013, 22), (4157, 4165, 4), (2733, 2741, 10),
            (5185, 5193, 2)]),
        ("vgg_lite", synthetic_cifar, 32, [
            (8975, 8983, -48), (5410, 5418, 2), (16437, 16445, 2),
            (639, 647, None), (3699, 3707, 1), (6515, 6523, -26)]),
    ], ids=["resnet20", "mobile_cnn", "vgg_lite"])
    def test_tracked_zoo_models_are_pinned(self, name, data, count, pinned):
        """Residual joins, grouped convs and average pools tracked at w7a7:
        per MAC node ``(mac_peak, lut_range, bias.sum())``, literally."""
        x, _ = data(count, np.random.default_rng(3))
        qm = quantize_model(build(name, rng=np.random.default_rng(11), width=0.25),
                            x, QuantConfig(7, 7), name=name, bias_correct=True,
                            lut_margin=8)
        assert [(n.mac_peak, n.lut_range,
                 int(n.bias.sum()) if hasattr(n, "bias") else None)
                for n in qm.mac_layers()] == pinned

    def test_assign_lut_ranges_post_hoc(self, subject):
        model, x, y, config = subject
        qm = quantize_model(model, x, config, name="m")
        qm.accuracy(x[:32], y[:32])  # populate mac peaks
        annotated = assign_lut_ranges(qm)
        assert annotated == 2
        assert all(n.lut_range for _, n in mac_layer_names(qm.layers))

    def test_a_window_that_no_longer_fits_is_dropped(self, subject):
        """A re-calibrated peak whose window would cover Z_t sends the node
        back to the full domain instead of keeping its stale window."""
        model, x, _y, config = subject
        qm = quantize_model(model, x, config, name="m")
        node = qm.mac_layers()[0]
        node.mac_peak = 10
        assign_lut_ranges(qm)
        assert node.lut_range == 10 + DEFAULT_LUT_MARGIN
        node.mac_peak = 128
        assert 2 * (128 + DEFAULT_LUT_MARGIN) + 1 >= config.t
        assign_lut_ranges(qm)
        assert node.lut_range is None
        assert lower(qm, TEST_FBS).lut_steps()[0].lut.lut_range is None


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
            # The LUT's polynomial is the low-degree interpolant the FBS
            # ladder actually evaluates.
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

    def test_micro_subject_allocation_is_pinned(self, subject):
        """The objective is ``trace_model``'s predicted mod_muls; the
        allocation it produces on the micro subject, literally."""
        model, x, y, config = subject
        res = allocate_bits(model, x, y, config, params=TEST_FBS)
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

    def test_report_and_json(self, allocation):
        payload = allocation.to_json()
        assert payload["tag"] == allocation.mp.tag()
        assert MpConfig.from_json(payload["mp"]) == allocation.mp
        assert payload["layers"], payload
        text = allocation.report()
        assert "baseline" in text and "allocated" in text


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
            plan = compile_program(lower(qm, TEST_FBS), TEST_FBS)
            return executed_mod_muls(plan, qm.quantize_input(x[0]))[1]

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
