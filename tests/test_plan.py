"""Compile/runtime split: CompiledProgram artifacts, wire format, cache.

The fast tests here pin the *structure* of the split — what gets computed
at compile time, how plans fingerprint, serialize, and cache. The
end-to-end guarantee (a plan loaded from its wire bytes runs, with no
program, bit-identically to the compiled plan) runs real ciphertext loops
and lives in ``tests/test_program.py`` under the ``slow`` marker.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.core.plan import (
    CompiledLinear,
    CompiledReshape,
    compile_program,
    program_fingerprint,
)
from repro.core.program import lower
from repro.errors import EncodingError, ParameterError
from repro.fhe.backend import CountingBackend
from repro.fhe.fbs import _degree
from repro.fhe.params import ATHENA_MEDIUM, TEST_LOOP, TEST_SMALL
from repro.fhe.s2c import s2c_plan
from repro.fhe.serialize import dump_plan, load_plan
from repro.quant.subjects import SUBJECTS, micro_subject, mnist_cnn_micro
from repro.serve import InferenceSession, ShardedPlanCache
from tests.conftest import refresh_noise_bound


def _program():
    rng = np.random.default_rng(5)
    qm = mnist_cnn_micro(rng)
    return qm, lower(qm, TEST_LOOP)


class TestFingerprint:
    def test_stable_across_relowering(self):
        _, program = _program()
        again = lower(mnist_cnn_micro(np.random.default_rng(5)), TEST_LOOP)
        assert program_fingerprint(program) == program_fingerprint(again)

    def test_sensitive_to_weights(self):
        qm, program = _program()
        before = program_fingerprint(program)
        qm.layers[0].weight = qm.layers[0].weight.copy()
        qm.layers[0].weight[0, 0, 0, 0] += 1
        assert program_fingerprint(lower(qm, TEST_LOOP)) != before


class TestCompileProgram:
    def test_compile_precomputes_everything_request_invariant(self):
        _, program = _program()
        plan = compile_program(program, TEST_LOOP)
        assert [type(s) for s in plan.steps] == [
            CompiledLinear, CompiledReshape, CompiledLinear,
        ]
        conv, reshape, fc = plan.steps
        assert reshape.kind == "reshape"
        assert (conv.round.count, fc.round.count) == (32, 3)
        assert conv.s2c is True and fc.s2c is False  # tail fusion preserved
        # Operand forms are warmed at compile time, not first request.
        assert conv.kernel._ntt_op is not None
        assert conv.bias is not None and conv.bias._scaled_op is not None
        assert _degree(conv.round.lut.plan.matrix) > 0 and conv.round.lut.t == TEST_LOOP.t
        # Compact is spelled out: identity rows, never ``None``.
        assert np.array_equal(conv.round.rows, np.arange(32))
        assert conv.round.height == 32
        assert len(s2c_plan(TEST_LOOP).groups) == 8  # one mat-vec, both passes
        assert plan.model_hash == program_fingerprint(program)

    def test_correction_zeroes_exactly_the_unfilled_rows(self):
        """One builder for every ``-LUT(0)`` plaintext: compact rounds,
        placed layouts and lane batches get the same rule."""
        from repro.core.plan import _refresh_round
        from repro.fhe.fbs import FbsLut

        lut = FbsLut.from_function(lambda v: v + 5, TEST_LOOP.t)
        positions = np.arange(40, 56)
        for rows, height in ((np.arange(16), 16), (np.arange(16, 32), 32)):
            rnd = _refresh_round(positions, rows, lut, TEST_LOOP)
            assert rnd.height == height
            slots = rnd.correction.to_slots()
            assert not slots[rows].any()
            assert np.all(np.delete(slots, rows) == (-5) % TEST_LOOP.t)
        # Nothing to cancel: LUT(0) = 0, or no row left unfilled.
        full = np.arange(TEST_LOOP.n)
        assert _refresh_round(full, full, lut, TEST_LOOP).correction is None
        relu = FbsLut.from_function(lambda v: np.maximum(v, 0), TEST_LOOP.t)
        assert _refresh_round(positions, np.arange(16), relu, TEST_LOOP).correction is None

    def test_a_plan_is_built_at_the_model_t_only(self):
        """Every table is tabulated over the parameter set's t: a model
        quantized for another t would wrap its MACs where ``forward_int``
        does not, so the build refuses it."""
        qm, _ = _program()
        qm.config = dataclasses.replace(qm.config, t=65537)
        with pytest.raises(ParameterError,
                           match="quantized for t = 65537, but test-loop runs t = 257"):
            compile_program(lower(qm, TEST_LOOP), TEST_LOOP)

    @pytest.mark.slow
    def test_paper_t_compiles_in_half_a_second_outside_s2c(self):
        """At t = 65537 a refresh round derives its FBS schedule from the
        (G, bs) coefficient matrix: ``compile_program`` on the micro model
        under ATHENA_MEDIUM spends < 0.5 s once the S2C plan (10-12 s,
        1.3 GiB) is built."""
        qm, _ = _program()
        qm.config = dataclasses.replace(qm.config, t=ATHENA_MEDIUM.t)
        program = lower(qm, ATHENA_MEDIUM)
        s2c_plan(ATHENA_MEDIUM)
        try:
            start = time.perf_counter()
            compile_program(program, ATHENA_MEDIUM)
            assert time.perf_counter() - start < 0.5
        finally:
            s2c_plan.cache_clear()  # do not hold the ATHENA_MEDIUM plan for the session

    def test_bind_rejects_other_params(self):
        _, program = _program()
        plan = compile_program(program, TEST_LOOP)
        with pytest.raises(ParameterError):
            plan.bind(program, TEST_SMALL)

    def test_the_engine_refuses_a_plan_of_other_params(self):
        """A plan meets a pipeline without a model, so the executor checks
        the one thing it can: the parameter set, before any ciphertext op."""
        from types import SimpleNamespace

        from repro.core.framework import CiphertextExecutor

        _, program = _program()
        plan = compile_program(program, TEST_LOOP)
        with pytest.raises(ParameterError, match="different parameters"):
            CiphertextExecutor(SimpleNamespace(params=TEST_SMALL), plan)

    def test_bind_rejects_other_weights(self):
        """Same shape, same step kinds, different weights: not this plan's
        model (``bind`` used to compare step count and kinds only)."""
        _, program = _program()
        plan = compile_program(program, TEST_LOOP)
        assert plan.bind(program, TEST_LOOP) is plan
        reseeded = lower(mnist_cnn_micro(np.random.default_rng(6)), TEST_LOOP)
        with pytest.raises(ParameterError, match="different model"):
            plan.bind(reseeded, TEST_LOOP)


def _unrunnable_models():
    """(id, layers, input shape, error, message, kind of the step at fault)."""
    from repro.quant.quantize import QAvgPool, QFlatten, QMaxPool, QResidual
    from tests.test_lowering import _conv, _fc

    r = np.random.default_rng(3)
    return [
        ("maxpool_behind_gelu", [
            _conv(r, 1, 2, 3, 1, 1, 4, act="gelu", out_scale=6.0),
            QMaxPool(2, 2), QFlatten(), _fc(r, 8, 3)], (1, 4, 4),
         ParameterError, "standalone max-pool", "pool"),
        ("conv_span_exceeds_n", [
            _conv(r, 2, 4, 3, 1, 0, 6), QFlatten(), _fc(r, 64, 3)], (2, 6, 6),
         EncodingError, "does not fit degree 128", "linear"),
        ("pool_entry", [
            QAvgPool(kernel=2, stride=2), QFlatten(), _fc(r, 4, 3)], (1, 4, 4),
         ParameterError, "cannot open the program", "pool"),
        ("residual_entry", [
            QResidual(body=[_conv(r, 1, 1, 3, 1, 1, 4, act="identity")],
                      shortcut=None, add_scale=1.0, out_scale=2.0),
            QFlatten(), _fc(r, 16, 3)], (1, 4, 4),
         ParameterError, "cannot open the program", "residual"),
    ]


class TestCompileFailsWhereRunWould:
    """A program is straight-line, so a step the backend cannot run fails
    the *build* — typed, naming the step — not the first request."""

    @staticmethod
    def _model(layers, in_shape):
        from repro.quant.quantize import QuantizedModel
        from tests.test_lowering import CFG

        return QuantizedModel(layers, CFG, 1.0, in_shape)

    @pytest.mark.parametrize(
        "layers, in_shape, error, text, kind",
        [pytest.param(*case[1:], id=case[0]) for case in _unrunnable_models()])
    def test_compile_program_names_the_step(
            self, layers, in_shape, error, text, kind):
        program = lower(self._model(layers, in_shape), TEST_LOOP)
        bad = next(step for step in program.steps if step.kind == kind)
        with pytest.raises(error, match=text) as exc_info:
            compile_program(program, TEST_LOOP)
        assert repr(bad.name) in str(exc_info.value)

    def test_build_and_register_fail_before_any_keygen(self, tmp_path, monkeypatch):
        import repro.serve.session as session_mod
        from repro.serve import AthenaService, SessionCore, Tenant

        def boom(*a, **k):  # pragma: no cover - fails the test if reached
            raise AssertionError("no runtime may be built for an unrunnable plan")

        monkeypatch.setattr(session_mod, "AthenaPipeline", boom)
        _, layers, in_shape, error, text, _ = _unrunnable_models()[0]
        qm = self._model(layers, in_shape)
        with pytest.raises(error, match=text):
            SessionCore.build(qm, TEST_LOOP)
        with pytest.raises(error, match=text):
            ShardedPlanCache(tmp_path).get(lower(qm, TEST_LOOP), TEST_LOOP)
        assert not list(tmp_path.iterdir())  # nothing cached either
        service = AthenaService([Tenant("a", TEST_LOOP)])
        with pytest.raises(error, match=text):
            service.register_model("bad", qm)
        assert "bad" not in service.models

    def test_bind_rejects_a_plan_with_swapped_steps(self):
        """Same model hash, steps out of order: ``bind`` is the one place
        the executor's step-to-artifact alignment is checked."""
        _, program = _program()
        plan = compile_program(program, TEST_LOOP)
        plan.steps[0], plan.steps[1] = plan.steps[1], plan.steps[0]
        with pytest.raises(ParameterError, match="do not align"):
            plan.bind(program, TEST_LOOP)

    def test_bind_rejects_a_hand_built_plan_without_a_linear_entry(self):
        """Refused at construction, so no such plan reaches ``bind`` or a
        ciphertext op (the entry step is the one that encrypts the input)."""
        from repro.core.plan import CompiledProgram, CompiledReshape

        _, program = _program()
        reshape = next(s for s in program.steps if s.kind == "reshape")
        with pytest.raises(ParameterError, match="entry step"):
            CompiledProgram(
                steps=[CompiledReshape(reshape.name)],
                params=TEST_LOOP,
                model_hash=program_fingerprint(program))

    def test_a_hand_built_plan_ending_on_a_pool_is_refused(self):
        """The tail's round packs the outputs, so a plan cut behind its
        window-sum PMult is refused at construction too."""
        from repro.core.plan import CompiledProgram
        from tests.test_serialize import _wire_subjects

        (build, params), = [case.values for case in _wire_subjects()
                            if case.id == "avgpool_remap"]
        plan = compile_program(build(), params)
        assert [step.kind for step in plan.steps[:2]] == ["linear", "pool"]
        with pytest.raises(ParameterError, match="tail step"):
            CompiledProgram(steps=plan.steps[:2], params=params,
                            model_hash=plan.model_hash)


class TestEq1FitRule:
    """One rule for every conv / FC / pool kernel: outputs inside the ring,
    and the product's negacyclic wrap below the lowest of them."""

    N = TEST_LOOP.n

    def _product(self, weight, grid, image, at):
        from repro.core.encoding import encode_kernels
        from repro.fhe.ntt import negacyclic_mul_exact

        feats = np.zeros((weight.shape[1], *grid), dtype=np.int64)
        feats[:, at[0]:at[0] + image.shape[1], at[1]:at[1] + image.shape[2]] = image
        m_hat = np.zeros(self.N, dtype=np.int64)
        m_hat[:feats.size] = feats.reshape(-1)
        k_hat = encode_kernels(weight, *grid, self.N)
        return np.array(negacyclic_mul_exact(list(m_hat), list(k_hat)))

    def test_a_wrap_that_stays_below_the_outputs_fits(self, rng):
        """conv(2->2, k3) on 5x5 (``test_grouped_conv``'s shape): span 137
        exceeds n = 128, the 9 wrapped coefficients sit below output 37."""
        from repro.core.plan import _eq1
        from tests.test_core_encoding import direct_conv

        weight = rng.integers(-3, 4, (2, 2, 3, 3))
        _, span, positions = _eq1(
            "conv", weight, (5, 5), (0, 0), 1, (3, 3), TEST_LOOP)
        assert span == 137 and positions.min() == 37
        image = rng.integers(-3, 4, (2, 5, 5))
        product = self._product(weight, (5, 5), image, (0, 0))
        want = direct_conv(image, weight, 1, 0).reshape(-1)
        assert np.array_equal(product[positions], want)

    def test_a_wrap_that_reaches_an_output_is_refused_and_is_real(self, rng):
        """A 1x1 conv(2->2) reading cell (1, 1) of a 6x6 grid: both outputs
        lie inside the ring (43 and 115), but the span of 180 wraps 52
        coefficients — over output 43, which the product shows corrupted."""
        from repro.core.encoding import output_cells
        from repro.core.plan import _eq1

        weight = rng.integers(1, 4, (2, 2, 1, 1))
        with pytest.raises(EncodingError, match="'shortcut'.*does not fit"):
            _eq1("shortcut", weight, (6, 6), (1, 1), 1, (1, 1), TEST_LOOP)
        positions = output_cells(2, 2, 6, 6, 1, [1], [1])
        assert positions.tolist() == [115, 43]
        image = rng.integers(1, 4, (2, 4, 4))
        product = self._product(weight, (6, 6), image, (1, 1))
        want = (weight[:, :, 0, 0] @ image[:, 0, 0])
        assert product[115] == want[0] and product[43] != want[1]


class TestLedgerTuneStage:
    """``benchmarks/ledger/`` times a tune stage and forwards its
    ``.tuning``; there is nothing to choose, so that is always ``None``."""

    @pytest.mark.parametrize("name", list(SUBJECTS))
    def test_tune_program_has_nothing_to_choose(self, name):
        from repro.core.tune import tune_program

        qm, params = micro_subject(name)
        program = lower(qm, params)
        tuned = tune_program(program, params)
        assert tuned.tuning is None
        plan = compile_program(program, params, tuning=tuned.tuning)
        assert plan.model_hash == program_fingerprint(program)


class TestWireFormat:
    def test_round_trip_preserves_artifacts(self):
        _, program = _program()
        plan = compile_program(program, TEST_LOOP)
        loaded = load_plan(dump_plan(plan), TEST_LOOP)
        assert loaded.model_hash == plan.model_hash
        assert loaded.name == plan.name
        assert len(loaded.steps) == len(plan.steps)
        for got, want in zip(loaded.steps, plan.steps):
            assert type(got) is type(want) and got.name == want.name
            if isinstance(want, CompiledLinear):
                assert np.array_equal(got.kernel.coeffs, want.kernel.coeffs)
                assert np.array_equal(got.round.positions, want.round.positions)
                assert np.array_equal(got.round.lut.values, want.round.lut.values)
                assert np.array_equal(got.round.lut.coeffs, want.round.lut.coeffs)
                assert got.s2c == want.s2c and got.op == want.op
                if want.bias is None:
                    assert got.bias is None
                else:
                    assert np.array_equal(got.bias.coeffs, want.bias.coeffs)
                assert np.array_equal(got.round.lut.plan.matrix, want.round.lut.plan.matrix)
                assert (got.in_shape, got.pad) == (want.in_shape, want.pad)
        # The loaded plan binds to an equivalent re-lowered program.
        loaded.bind(lower(mnist_cnn_micro(np.random.default_rng(5)), TEST_LOOP),
                    TEST_LOOP)

    def test_wrong_params_rejected(self):
        _, program = _program()
        raw = dump_plan(compile_program(program, TEST_LOOP))
        with pytest.raises(ParameterError):
            load_plan(raw, TEST_SMALL)


class TestPlanCache:
    def test_miss_compiles_and_persists(self, tmp_path):
        _, program = _program()
        cache = ShardedPlanCache(tmp_path)
        plan = cache.get(program, TEST_LOOP)
        path = cache.path_for(plan.model_hash, TEST_LOOP)
        assert path.exists() and path.suffix == ".plan"
        assert (cache.hits, cache.misses) == (0, 1)

    def test_hit_loads_from_disk(self, tmp_path, monkeypatch):
        _, program = _program()
        first = ShardedPlanCache(tmp_path).get(program, TEST_LOOP)
        # A lookup after a restart must not recompile: poison compile_program.
        import repro.serve.cache as cache_mod

        def boom(*a, **k):  # pragma: no cover - fails the test if reached
            raise AssertionError("cache hit must not recompile")

        monkeypatch.setattr(cache_mod, "compile_program", boom)
        cache = ShardedPlanCache(tmp_path)  # nothing in memory
        second = cache.get(program, TEST_LOOP)
        assert (cache.hits, cache.misses) == (1, 0)
        assert second.model_hash == first.model_hash
        assert np.array_equal(
            second.steps[0].kernel.coeffs, first.steps[0].kernel.coeffs
        )


@pytest.mark.slow
class TestInferenceSession:
    def test_session_answers_requests_and_separates_phases(self):
        qm, program = _program()
        rng = np.random.default_rng(7)
        counting = CountingBackend()
        session = InferenceSession(program, TEST_LOOP, seed=41, backend=counting)
        assert "compile" in counting.ops_by_phase()  # construction compiled
        counting.reset()
        for _ in range(2):
            x_q = rng.integers(-3, 4, (1, 6, 6)).astype(np.int64)
            got = session.run(x_q)
            want = qm.forward_int(x_q[None])[0]
            assert np.abs(got - want).max() <= refresh_noise_bound(qm, TEST_LOOP)
        stats = session.stats()
        assert stats.requests == 2
        assert stats.timings["compile_s"] > 0 and stats.timings["run_s"] > 0
        # Warm requests never pay the compile phase: no op, no second.
        assert "compile" not in counting.ops_by_phase()
        assert "compile" not in counting.phase_s
