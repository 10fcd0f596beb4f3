"""Cross-executor equivalence suite for the lowered AthenaProgram IR.

The refactor contract: the program-driven plaintext forward, the noise-free
simulated engine, the trace generator, and the real-ciphertext backend all
execute the *same* lowered schedule, and their outputs / per-phase trace
totals are identical to the pre-refactor ``isinstance``-chain walkers.
Frozen verbatim copies of those legacy walkers live in this file as the
reference semantics.
"""

import numpy as np
import pytest

from repro.core import trace as tracelib
from repro.core.inference import AthenaNoiseModel, SimulatedAthenaEngine
from repro.core.lut import layer_lut, relu_lut
from repro.core.program import lower
from repro.core.trace import WorkloadTrace, effective_t, trace_model
from repro.data import synthetic_cifar, synthetic_digits
from repro.fhe.params import ATHENA
from repro.quant import nn
from repro.quant.models import build, input_shape
from repro.quant.quantize import (
    QAvgPool,
    QConv,
    QFlatten,
    QGlobalAvgPool,
    QLinear,
    QMaxPool,
    QResidual,
    QuantConfig,
    QuantizedModel,
    _int_conv,
    _wrap_t,
    quantize_model,
)
from tests.conftest import refresh_noise_bound

MODELS = ("mnist_cnn", "lenet", "resnet20")


@pytest.fixture(scope="module")
def zoo():
    """Quantized miniatures of the three benchmark architectures."""
    out = {}
    for name in MODELS:
        rng = np.random.default_rng(7)
        shape = input_shape(name)
        x = (
            synthetic_digits(96, rng)[0]
            if shape == (1, 28, 28)
            else synthetic_cifar(96, rng)[0]
        )
        model = build(name, rng=np.random.default_rng(11), width=0.25)
        out[name] = (quantize_model(model, x[:64], QuantConfig(7, 7)), x)
    return out


# ---------------------------------------------------------------------------
# Frozen legacy reference walkers (pre-refactor semantics, verbatim)
# ---------------------------------------------------------------------------


def _legacy_run_layers(layers, x_q, cfg):
    for layer in layers:
        if isinstance(layer, QConv):
            mac = _int_conv(x_q, layer)
            layer.mac_peak = max(layer.mac_peak, int(np.abs(mac).max()))
            x_q = layer.remap(_wrap_t(mac, cfg.t), cfg.a_max)
        elif isinstance(layer, QLinear):
            mac = x_q @ layer.weight.T + layer.bias
            layer.mac_peak = max(layer.mac_peak, int(np.abs(mac).max()))
            x_q = layer.remap(_wrap_t(mac, cfg.t), cfg.a_max)
        elif isinstance(layer, QMaxPool):
            cols, oh, ow = nn.im2col(x_q, layer.kernel, layer.kernel, layer.stride, 0)
            b, c = x_q.shape[0], x_q.shape[1]
            x_q = (
                cols.reshape(b, oh, ow, c, layer.kernel**2)
                .max(axis=-1)
                .transpose(0, 3, 1, 2)
            )
        elif isinstance(layer, QAvgPool):
            cols, oh, ow = nn.im2col(x_q, layer.kernel, layer.kernel, layer.stride, 0)
            b, c = x_q.shape[0], x_q.shape[1]
            total = cols.reshape(b, oh, ow, c, layer.kernel**2).sum(axis=-1)
            layer.mac_peak = max(layer.mac_peak, int(np.abs(total).max()))
            x_q = np.rint(total / layer.kernel**2).astype(np.int64).transpose(0, 3, 1, 2)
        elif isinstance(layer, QGlobalAvgPool):
            total = x_q.sum(axis=(2, 3))
            layer.mac_peak = max(layer.mac_peak, int(np.abs(total).max()))
            x_q = np.rint(total / layer.spatial).astype(np.int64)
        elif isinstance(layer, QFlatten):
            x_q = x_q.reshape(x_q.shape[0], -1)
        elif isinstance(layer, QResidual):
            main = _legacy_run_layers(layer.body, x_q, cfg)
            skip = _legacy_run_layers(layer.shortcut, x_q, cfg) if layer.shortcut else x_q
            total = main + skip * layer.skip_alpha
            layer.mac_peak = max(layer.mac_peak, int(np.abs(total).max()))
            x_q = layer.remap(_wrap_t(total, cfg.t), cfg.a_max)
    return x_q


def _legacy_mac_layers(qmodel):
    out = []

    def walk(layers):
        for layer in layers:
            if isinstance(layer, (QConv, QLinear, QAvgPool, QGlobalAvgPool)):
                out.append(layer)
            elif isinstance(layer, QResidual):
                walk(layer.body)
                if layer.shortcut:
                    walk(layer.shortcut)
                out.append(layer)

    walk(qmodel.layers)
    return out


def _legacy_trace_model(qmodel, params=ATHENA, softmax=True, t_eff=None):
    import math

    trace = WorkloadTrace(qmodel.name, params)

    def visit(layers, prefix=""):
        idx = 0
        i = 0
        while i < len(layers):
            layer = layers[i]
            nxt = layers[i + 1] if i + 1 < len(layers) else None
            name = f"{prefix}{type(layer).__name__.lower()}{idx}"
            if isinstance(layer, QConv):
                t_layer = effective_t(layer, params, t_eff)
                plan = tracelib.athena_plan(tracelib._conv_shape(layer), params.n)
                trace.add("linear", name, tracelib._pmult(params).scaled(plan.pmult))
                if plan.hadd:
                    trace.add("linear", name, tracelib._hadd(params).scaled(plan.hadd))
                values = int(math.prod(layer.out_shape))
                if isinstance(nxt, QMaxPool):
                    pooled = values // (nxt.stride**2)
                    rounds = nxt.kernel**2 - 1
                    cts = max(1, -(-pooled // params.n))
                    for r in range(rounds):
                        trace.add("pooling", f"{name}.max{r}",
                                  tracelib.se_chain_ops(params, min(values, cts * params.n)))
                        trace.add("pooling", f"{name}.max{r}",
                                  tracelib.packing_ops(params).scaled(cts))
                        tracelib._add_fbs(trace, params, "pooling", f"{name}.max{r}",
                                          t_layer, cts)
                        trace.add("pooling", f"{name}.max{r}",
                                  tracelib.s2c_ops(params).scaled(cts))
                    values = pooled
                    i += 1
                tracelib._lut_round(trace, params, name, values, t_layer)
            elif isinstance(layer, QLinear):
                t_layer = effective_t(layer, params, t_eff)
                in_cts = max(1, -(-layer.in_features // params.n))
                trace.add("linear", name, tracelib._pmult(params).scaled(in_cts))
                tracelib._lut_round(trace, params, name, layer.out_features, t_layer)
            elif isinstance(layer, QMaxPool):
                pass
            elif isinstance(layer, (QAvgPool, QGlobalAvgPool)):
                tracelib._add_fbs(trace, params, "pooling", name,
                                  effective_t(layer, params, t_eff), 1)
            elif isinstance(layer, QResidual):
                visit(layer.body, prefix=f"{name}.body.")
                if layer.shortcut:
                    visit(layer.shortcut, prefix=f"{name}.skip.")
                trace.add("linear", name, tracelib._hadd(params))
                tracelib._lut_round(trace, params, name, params.n,
                                    effective_t(layer, params, t_eff))
            elif isinstance(layer, QFlatten):
                pass
            idx += 1
            i += 1

    visit(qmodel.layers)
    if softmax:
        tracelib._add_fbs(trace, params, "softmax", "softmax", t_eff or params.t, 2)
        trace.add("softmax", "softmax", tracelib._cmult(params))
    return trace


# ---------------------------------------------------------------------------
# Output equivalence
# ---------------------------------------------------------------------------


class TestPlaintextEquivalence:
    @pytest.mark.parametrize("name", MODELS)
    def test_forward_bit_identical_to_legacy(self, zoo, name):
        qm, x = zoo[name]
        x_q = qm.quantize_input(x[:16])
        got = qm.forward_int(x_q)
        want = _legacy_run_layers(qm.layers, x_q, qm.config)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", MODELS)
    def test_mac_sources_match_legacy_order(self, zoo, name):
        qm, _ = zoo[name]
        assert qm.mac_layers() == _legacy_mac_layers(qm)

    @pytest.mark.parametrize("name", MODELS)
    def test_macs_fit_modulus(self, zoo, name):
        qm, x = zoo[name]
        qm.forward_float(x[:16])
        assert qm.check_t()


class TestSimulatedEquivalence:
    @pytest.mark.parametrize("name", MODELS)
    def test_noise_free_engine_bit_identical(self, zoo, name):
        qm, x = zoo[name]
        engine = SimulatedAthenaEngine(
            qm, noise=AthenaNoiseModel(enabled=False)
        )
        got = engine.infer(x[:16])
        want = qm.forward_int(qm.quantize_input(x[:16]))
        assert np.array_equal(got, want)


class TestTraceEquivalence:
    @pytest.mark.parametrize("name", MODELS)
    def test_phase_sequence_identical_to_legacy(self, zoo, name):
        qm, x = zoo[name]
        qm.forward_float(x[:16])  # populate mac_peak as real callers do
        new = trace_model(qm)
        old = _legacy_trace_model(qm)
        assert len(new.phases) == len(old.phases)
        for p_new, p_old in zip(new.phases, old.phases):
            assert (p_new.phase, p_new.layer) == (p_old.phase, p_old.layer)
            assert p_new.ops == p_old.ops

    @pytest.mark.parametrize("name", MODELS)
    def test_per_phase_totals_identical(self, zoo, name):
        qm, x = zoo[name]
        qm.forward_float(x[:16])
        assert trace_model(qm).by_phase() == _legacy_trace_model(qm).by_phase()

    def test_t_eff_override_still_matches(self, zoo):
        qm, _ = zoo["lenet"]
        assert (
            trace_model(qm, t_eff=4096).by_phase()
            == _legacy_trace_model(qm, t_eff=4096).by_phase()
        )


# ---------------------------------------------------------------------------
# Program structure (fusion decisions made once, at lowering)
# ---------------------------------------------------------------------------


class TestProgramStructure:
    def test_mnist_schedule(self, zoo):
        qm, _ = zoo["mnist_cnn"]
        steps = lower(qm).steps
        kinds = [(s.kind, getattr(s, "op", None)) for s in steps]
        assert kinds == [
            ("linear", "conv"),
            ("reshape", None),
            ("linear", "fc"),
            ("linear", "fc"),
        ]

    def test_lenet_fuses_both_maxpools(self, zoo):
        qm, _ = zoo["lenet"]
        steps = lower(qm).steps
        convs = [s for s in steps if s.kind == "linear" and s.op == "conv"]
        assert len(convs) == 2
        assert all(isinstance(s.fused_pool, QMaxPool) for s in convs)
        assert all(s.out_values == s.mac_values // 4 for s in convs)
        # the pools were consumed: no standalone pool steps remain
        assert not any(s.kind == "pool" for s in steps)

    def test_resnet_blocks_lower_to_residual_steps(self, zoo):
        qm, _ = zoo["resnet20"]
        program = lower(qm)
        residuals = [s for s in program.steps if s.kind == "residual"]
        assert len(residuals) == 9
        # stride-2 transitions carry projection shortcuts
        with_proj = [s for s in residuals if s.shortcut is not None]
        assert len(with_proj) == 2
        for s in residuals:
            assert len(s.body.steps) == 2  # two convs per basic block
        # gap lowers to a sum PoolStep + division RemapStep
        kinds = [s.kind for s in program.steps]
        gap_at = kinds.index("pool")
        assert program.steps[gap_at].op == "gap"
        assert program.steps[gap_at + 1].kind == "remap"

    def test_tail_s2c_dropped_exactly_once(self, zoo):
        for name in MODELS:
            qm, _ = zoo[name]
            program = lower(qm)
            flags = [
                s.s2c for s in program.steps if hasattr(s, "s2c")
            ]
            assert flags[-1] is False
            assert all(flags[:-1])

    def test_nonmonotone_activation_blocks_pool_fusion(self):
        def q(activation):
            conv = QConv(
                weight=np.ones((1, 1, 2, 2), dtype=np.int64),
                bias=np.zeros(1, dtype=np.int64),
                stride=1, pad=0, in_scale=1.0, w_scale=1.0, out_scale=1.0,
                activation=activation, in_shape=(1, 4, 4), out_shape=(1, 3, 3),
            )
            return QuantizedModel(
                [conv, QMaxPool(2, 2)], QuantConfig(4, 4, t=257), 1.0, (1, 4, 4)
            )

        fused = lower(q("relu")).steps
        assert fused[0].fused_pool is not None and len(fused) == 1
        unfused = lower(q("gelu")).steps
        assert unfused[0].fused_pool is None
        assert unfused[1].kind == "pool" and unfused[1].op == "max"

    def test_lut_specs_match_layer_lut(self, zoo):
        qm, _ = zoo["resnet20"]
        program = lower(qm)
        for step in program.lut_steps()[:6]:
            source = step.layer if step.kind in ("linear", "residual") else step.source
            built = step.lut.build(qm.config)
            legacy = layer_lut(source, qm.config)
            assert built.name == legacy.name
            assert np.array_equal(built.values, legacy.values)

    def test_step_names_follow_trace_scheme(self, zoo):
        qm, _ = zoo["resnet20"]
        program = lower(qm)
        names = [s.name for s in program.steps]
        assert names[0] == "qconv0"
        assert "qresidual1" in names
        res = next(s for s in program.steps if s.kind == "residual")
        assert res.body.steps[0].name.startswith(f"{res.name}.body.")


class TestSatelliteFixes:
    def test_fbslut_signed_range_cached(self):
        lut = relu_lut(257)
        assert lut.signed_range == 128
        assert lut.signed_range is lut.signed_range  # cached, same int object

    def test_interpolation_cached_by_table_bytes(self):
        from repro.fhe.fbs import FbsLut

        a = FbsLut(np.arange(17, dtype=np.int64), 17, "first")
        b = FbsLut(np.arange(17, dtype=np.int64), 17, "second")
        assert a.coeffs is b.coeffs  # one interpolation, shared read-only
        assert not a.coeffs.flags.writeable

    def test_register_interpolation_seeds_cache(self):
        from repro.fhe.fbs import FbsLut, interpolate_lut, register_interpolation

        vals = (np.arange(17, dtype=np.int64) * 3) % 17
        coeffs = interpolate_lut(vals, 17)
        register_interpolation(vals, 17, coeffs)
        lut = FbsLut(vals, 17, "seeded")
        assert np.array_equal(lut.coeffs, coeffs)

    def test_stock_lut_builders_cached(self):
        from repro.core.lut import avgpool_lut

        assert relu_lut(257) is relu_lut(257)
        assert avgpool_lut(2, 257) is avgpool_lut(2, 257)
        assert avgpool_lut(2, 257) is not avgpool_lut(3, 257)

    def test_plaintext_operand_forms_cached(self):
        from repro.fhe.bfv import Plaintext
        from repro.fhe.params import TEST_LOOP

        pt = Plaintext.from_coeffs(np.arange(8, dtype=np.int64), TEST_LOOP)
        assert pt.pmult_operand() is pt.pmult_operand()
        assert pt.add_operand() is pt.add_operand()


# ---------------------------------------------------------------------------
# Real-ciphertext backend: run_program chains two five-step rounds
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestCiphertextProgram:
    def _tiny_model(self, rng):
        """conv(1->2, k3) on 6x6 -> flatten -> fc(32->3), sized for TEST_LOOP
        (N = 128, t = 257): every MAC stays inside +/-128 and both kernel
        encodings fit degree 128."""
        cfg = QuantConfig(4, 4, t=257)
        conv = QConv(
            weight=rng.integers(-2, 3, (2, 1, 3, 3)).astype(np.int64),
            bias=rng.integers(-4, 5, 2).astype(np.int64),
            stride=1, pad=0, in_scale=1.0, w_scale=1.0, out_scale=12.0,
            activation="relu", in_shape=(1, 6, 6), out_shape=(2, 4, 4),
        )
        fc_w = rng.integers(-1, 2, (3, 32)).astype(np.int64)
        fc_w[:, rng.permutation(32)[:16]] = 0  # keep FC MACs well inside t/2
        fc = QLinear(
            weight=fc_w, bias=rng.integers(-3, 4, 3).astype(np.int64),
            in_scale=1.0, w_scale=1.0, out_scale=2.0, activation="identity",
            in_features=32, out_features=3,
        )
        return QuantizedModel([conv, QFlatten(), fc], cfg, 1.0, (1, 6, 6))

    def test_chained_loops_match_plaintext(self):
        from repro.core.framework import AthenaPipeline
        from repro.fhe.backend import CountingBackend
        from repro.fhe.params import TEST_LOOP

        rng = np.random.default_rng(5)
        qm = self._tiny_model(rng)
        x_q = rng.integers(-3, 4, (1, 6, 6)).astype(np.int64)
        want = qm.forward_int(x_q[None])[0]
        assert qm.check_t()

        program = lower(qm, TEST_LOOP)
        counting = CountingBackend()
        pipe = AthenaPipeline(TEST_LOOP, seed=41, backend=counting)
        got = pipe.run_program(program, x_q)
        assert got.shape == want.shape
        # Two chained LUT rounds: the conv round's remap deviations
        # propagate through the FC MAC.
        assert np.abs(got - want).max() <= refresh_noise_bound(qm, TEST_LOOP)
        ops = counting.ops_by_phase()
        assert ops["linear"]["pmult"] == 2  # one per linear step
        assert ops["se"]["extract"] == 32 + 3

    def test_tail_skips_s2c(self):
        from repro.core.framework import AthenaPipeline, CiphertextExecutor
        from repro.fhe.params import TEST_LOOP

        rng = np.random.default_rng(5)
        qm = self._tiny_model(rng)
        program = lower(qm, TEST_LOOP)
        pipe = AthenaPipeline(TEST_LOOP, seed=41)
        ex = CiphertextExecutor(pipe, program)
        from repro.core.program import run_program

        run_program(program, ex, rng.integers(-3, 4, (1, 6, 6)).astype(np.int64))
        assert ex.tail_s2c is False and ex.out_count == 3


@pytest.mark.slow
class TestCompiledPlanBitIdentity:
    """The compile/runtime split must not change a single output bit.

    A plan only moves operand *derivation* to compile time; the homomorphic
    op sequence is untouched, so two pipelines with identical seeds must
    produce byte-identical outputs whether the plan is precompiled,
    compiled in-span, or rebuilt from its serialized artifact.
    """

    def _setup(self):
        from repro.fhe.params import TEST_LOOP
        from repro.quant.subjects import mnist_cnn_micro

        rng = np.random.default_rng(5)
        qm = mnist_cnn_micro(rng)
        x_q = rng.integers(-3, 4, (1, 6, 6)).astype(np.int64)
        return lower(qm, TEST_LOOP), x_q

    def test_precompiled_plan_matches_in_span_compile(self):
        from repro.core.framework import AthenaPipeline
        from repro.core.plan import compile_program
        from repro.fhe.backend import CountingBackend
        from repro.fhe.params import TEST_LOOP

        program, x_q = self._setup()
        baseline = AthenaPipeline(TEST_LOOP, seed=7).run_program(program, x_q)

        plan = compile_program(program, TEST_LOOP)
        counting = CountingBackend()
        got = AthenaPipeline(TEST_LOOP, seed=7, backend=counting).run_program(
            program, x_q, plan=plan
        )
        assert np.array_equal(got, baseline)
        # The thin interpreter still dispatches the same ciphertext ops.
        ops = counting.ops_by_phase()
        assert ops["linear"]["pmult"] == 2 and ops["se"]["extract"] == 32 + 3

    def test_save_load_run_round_trip(self):
        from repro.core.framework import AthenaPipeline
        from repro.core.plan import compile_program
        from repro.fhe.params import TEST_LOOP
        from repro.fhe.serialize import dump_plan, load_plan
        from repro.quant.subjects import mnist_cnn_micro

        program, x_q = self._setup()
        plan = compile_program(program, TEST_LOOP)
        loaded = load_plan(dump_plan(plan), TEST_LOOP)

        want = AthenaPipeline(TEST_LOOP, seed=7).run_program(
            program, x_q, plan=plan
        )
        # The loaded plan drives an *equivalent re-lowered* program — plan
        # artifacts resolve by step index, never by step object identity.
        relowered = lower(mnist_cnn_micro(np.random.default_rng(5)), TEST_LOOP)
        got = AthenaPipeline(TEST_LOOP, seed=7).run_program(
            relowered, x_q, plan=loaded
        )
        assert np.array_equal(got, want)
