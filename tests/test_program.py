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
from repro.core.lut import relu_lut
from repro.core.plan import compile_program
from repro.core.program import lower, lut_spec
from repro.core.trace import WorkloadTrace, effective_t, trace_model
from repro.data import synthetic_cifar, synthetic_digits
from repro.fhe.fbs import _degree
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
from tests.conftest import lut_steps, refresh_noise_bound

MODELS = ("mnist_cnn", "lenet", "resnet20")


def _miniature(name, cfg):
    rng = np.random.default_rng(7)
    shape = input_shape(name)
    x = (
        synthetic_digits(96, rng)[0]
        if shape == (1, 28, 28)
        else synthetic_cifar(96, rng)[0]
    )
    model = build(name, rng=np.random.default_rng(11), width=0.25)
    return quantize_model(model, x[:64], cfg), x


@pytest.fixture(scope="module")
def zoo():
    """Quantized miniatures of the three benchmark architectures."""
    return {name: _miniature(name, QuantConfig(7, 7)) for name in MODELS}


@pytest.fixture(scope="module")
def zoo_w6a7():
    """The same miniatures quantized at w6a7."""
    return {name: _miniature(name, QuantConfig(6, 7)) for name in MODELS}


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
    @pytest.mark.parametrize("name,zoo_fixture", [
        *(pytest.param(name, "zoo", id=name) for name in MODELS),
        *(pytest.param(name, "zoo_w6a7", id=f"{name}-w6a7") for name in MODELS),
    ])
    def test_noise_free_engine_bit_identical(self, request, name, zoo_fixture):
        qm, x = request.getfixturevalue(zoo_fixture)[name]
        engine = SimulatedAthenaEngine(
            qm, noise=AthenaNoiseModel(enabled=False)
        )
        got = engine.infer(x[:16])
        want = qm.forward_int(qm.quantize_input(x[:16]))
        assert np.array_equal(got, want)

    def test_noise_free_engine_equals_forward_int_when_macs_wrap(self):
        # A conv + max-pool whose MACs overflow t: the fused max-tree's
        # window differences wrap mod t, and both walkers must wrap alike.
        qm, x = _miniature("lenet", QuantConfig(7, 7))
        qm.layers[0].weight *= 16
        x_q = qm.quantize_input(x[:32])
        want = qm.forward_int(x_q)
        assert not qm.check_t()
        engine = SimulatedAthenaEngine(qm, noise=AthenaNoiseModel(enabled=False))
        assert np.array_equal(engine.infer(x[:32]), want)


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
            assert len(s.body) == 2  # two convs per basic block
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
        for step in lut_steps(program)[:6]:
            source = step.layer if step.kind in ("linear", "residual") else step.source
            built = step.lut.build(qm.config)
            legacy = lut_spec(source).build(qm.config)
            assert built.name == legacy.name
            assert np.array_equal(built.values, legacy.values)

    def test_step_names_follow_trace_scheme(self, zoo):
        qm, _ = zoo["resnet20"]
        program = lower(qm)
        names = [s.name for s in program.steps]
        assert names[0] == "qconv0"
        assert "qresidual1" in names
        res = next(s for s in program.steps if s.kind == "residual")
        assert res.body[0].name.startswith(f"{res.name}.body.")


class TestSatelliteFixes:
    def test_fbslut_signed_range_cached(self):
        lut = relu_lut(257)
        assert lut.signed_range == 128
        assert lut.signed_range is lut.signed_range  # cached, same int object

    def test_lut_derives_its_polynomial_and_schedule_once(self):
        from repro.fhe.fbs import FbsLut, evaluate_poly_all, interpolate_lut

        a = FbsLut(np.arange(17, dtype=np.int64), 17, "first")
        assert a.coeffs is a.coeffs and a.plan is a.plan  # derived once
        assert np.array_equal(a.coeffs, interpolate_lut(a.values, 17))
        assert not a.values.flags.writeable and not a.coeffs.flags.writeable
        with pytest.raises(AttributeError):
            a.values = np.zeros(17, dtype=np.int64)
        # The table a polynomial induces gives that polynomial back.
        coeffs = np.zeros(17, dtype=np.int64)
        coeffs[[0, 2]] = (3, 1)
        b = FbsLut(evaluate_poly_all(coeffs, 17), 17, "x^2+3")
        assert np.array_equal(b.values, (np.arange(17) ** 2 + 3) % 17)
        assert np.array_equal(b.coeffs, coeffs)
        assert _degree(b.plan.matrix) == 2

    def test_stock_lut_builders_cached(self):
        assert relu_lut(257) is relu_lut(257)
        assert relu_lut(257) is not relu_lut(17)

    def test_plaintext_operand_forms_cached(self):
        from repro.fhe.bfv import Plaintext
        from repro.fhe.params import TEST_LOOP

        pt = Plaintext.from_coeffs(np.arange(8, dtype=np.int64), TEST_LOOP)
        assert pt.pmult_operand() is pt.pmult_operand()
        assert pt.add_operand() is pt.add_operand()


# ---------------------------------------------------------------------------
# Real-ciphertext backend: AthenaPipeline.run chains two five-step rounds
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
        from repro.fhe.backend import CountingBackend, use_backend
        from repro.fhe.params import TEST_LOOP

        rng = np.random.default_rng(5)
        qm = self._tiny_model(rng)
        x_q = rng.integers(-3, 4, (1, 6, 6)).astype(np.int64)
        want = qm.forward_int(x_q[None])[0]
        assert qm.check_t()

        program = lower(qm, TEST_LOOP)
        counting = CountingBackend()
        with use_backend(counting):
            pipe = AthenaPipeline(TEST_LOOP, seed=41)
            got = pipe.run(compile_program(program, TEST_LOOP), x_q)
        assert got.shape == want.shape
        # Two chained LUT rounds: the conv round's remap deviations
        # propagate through the FC MAC.
        assert np.abs(got - want).max() <= refresh_noise_bound(qm, TEST_LOOP)
        ops = counting.ops_by_phase()
        assert ops["linear"]["pmult"] == 2  # one per linear step
        assert ops["se"]["extract"] == 32 + 3

    def test_tail_skips_s2c(self):
        from repro.core.framework import AthenaPipeline, CiphertextExecutor
        from repro.core.program import run_program
        from repro.fhe.params import TEST_LOOP

        rng = np.random.default_rng(5)
        qm = self._tiny_model(rng)
        plan = compile_program(lower(qm, TEST_LOOP), TEST_LOOP)
        pipe = AthenaPipeline(TEST_LOOP, seed=41)
        ex = CiphertextExecutor(pipe, plan)
        run_program(plan, ex, rng.integers(-3, 4, (1, 6, 6)).astype(np.int64))
        assert plan.tail is plan.steps[-1]
        assert plan.tail.s2c is False and plan.tail.round.count == 3


@pytest.fixture(scope="module", params=["mnist_cnn", "pack"])
def compiled_run(request):
    """(wire bytes, params, [(inputs, outputs)]) of one subject's compiled
    plan, run at one lane and at the plan's batch capacity."""
    from repro.core.framework import AthenaPipeline
    from repro.fhe.serialize import dump_plan
    from repro.quant.subjects import SUBJECTS

    builder, params = SUBJECTS[request.param]
    qm = builder(np.random.default_rng(5))
    plan = compile_program(lower(qm, params), params)
    rng = np.random.default_rng(9)
    runs = []
    for lanes in sorted({1, plan.batch_capacity}):
        xs = [rng.integers(-2, 3, qm.input_shape).astype(np.int64)
              for _ in range(lanes)]
        runs.append((xs, AthenaPipeline(params, seed=7).run_batch(plan, xs)))
    return dump_plan(plan), params, runs


@pytest.mark.slow
class TestCompiledPlanBitIdentity:
    """The compile/runtime split must not change a single output bit.

    A compiled plan is the whole ciphertext program and its wire form
    rebuilds it exactly, so two pipelines with identical seeds produce
    byte-identical outputs from the plan as compiled and from its loaded
    bytes — with no lowered program beside either run.
    """

    def test_a_loaded_plan_runs_by_itself(self, compiled_run, monkeypatch):
        import repro.core.plan as plan_mod
        import repro.core.program as program_mod
        from repro.core.framework import AthenaPipeline
        from repro.fhe.serialize import load_plan

        raw, params, runs = compiled_run

        def boom(*a, **k):  # pragma: no cover - fails the test if reached
            raise AssertionError("a loaded plan runs with no program")

        monkeypatch.setattr(program_mod, "lower", boom)
        monkeypatch.setattr(plan_mod, "compile_program", boom)
        loaded = load_plan(raw, params)
        assert [len(xs) for xs, _ in runs] == sorted({1, loaded.batch_capacity})
        for xs, want in runs:
            got = AthenaPipeline(params, seed=7).run_batch(loaded, xs)
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
