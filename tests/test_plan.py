"""Compile/runtime split: CompiledProgram artifacts, wire format, cache.

The fast tests here pin the *structure* of the split — what gets computed
at compile time, how plans fingerprint, serialize, and cache. The
end-to-end guarantee (plan-driven execution is bit-identical to plan-free
execution, including through a save -> load round trip) runs real
ciphertext loops and lives in ``tests/test_program.py`` under the ``slow``
marker.
"""

import numpy as np
import pytest

from repro.core.plan import (
    CompiledLinear,
    CompiledOpaque,
    compile_program,
    program_fingerprint,
)
from repro.core.program import lower
from repro.errors import ParameterError
from repro.fhe.backend import CountingBackend
from repro.fhe.params import TEST_LOOP, TEST_SMALL
from repro.fhe.serialize import dump_plan, load_plan
from repro.quant.subjects import SUBJECTS, micro_subject, mnist_cnn_micro
from repro.serve import InferenceSession, PlanCache


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
        plan = program.compile()
        assert [type(s) for s in plan.steps] == [
            CompiledLinear, CompiledOpaque, CompiledLinear,
        ]
        conv, reshape, fc = plan.steps
        assert reshape.kind == "reshape"
        assert (conv.round.count, fc.round.count) == (32, 3)
        assert conv.s2c is True and fc.s2c is False  # tail fusion preserved
        # Operand forms are warmed at compile time, not first request.
        assert conv.kernel._ntt_op is not None
        assert conv.bias is not None and conv.bias._scaled_op is not None
        assert conv.round.fbs.degree > 0 and conv.round.lut.t == TEST_LOOP.t
        assert conv.round.rows is None and conv.round.height == 32  # compact
        assert plan.s2c.direct.baby_steps == plan.s2c.crossed.baby_steps
        assert plan.model_hash == program_fingerprint(program)

    def test_correction_zeroes_exactly_the_unfilled_rows(self):
        """One builder for every ``-LUT(0)`` plaintext: placed layouts and
        lane batches get the same rule."""
        from repro.core.plan import _refresh_round
        from repro.fhe.fbs import FbsLut, FbsPlan

        lut = FbsLut.from_function(lambda v: v + 5, TEST_LOOP.t)
        fbs = FbsPlan.from_lut(lut)
        positions = np.arange(40, 56)
        compact = _refresh_round(positions, None, lut, fbs, TEST_LOOP)
        assert compact.correction is None  # nothing placed
        rows = np.arange(16, 32)
        placed = _refresh_round(positions, rows, lut, fbs, TEST_LOOP)
        assert placed.height == 32
        slots = placed.correction.to_slots()
        assert not slots[rows].any()
        assert np.all(np.delete(slots, rows) == (-5) % TEST_LOOP.t)

    def test_bind_rejects_other_params(self):
        _, program = _program()
        plan = compile_program(program, TEST_LOOP)
        with pytest.raises(ParameterError):
            plan.bind(program, TEST_SMALL)

    def test_bind_rejects_other_weights(self):
        """Same shape, same step kinds, different weights: not this plan's
        model (``bind`` used to compare step count and kinds only)."""
        _, program = _program()
        plan = compile_program(program, TEST_LOOP)
        assert plan.bind(program, TEST_LOOP) is plan
        reseeded = lower(mnist_cnn_micro(np.random.default_rng(6)), TEST_LOOP)
        with pytest.raises(ParameterError, match="different model"):
            plan.bind(reseeded, TEST_LOOP)


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
                assert got.round.fbs.groups == want.round.fbs.groups
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
        cache = PlanCache(tmp_path)
        plan = cache.get(program, TEST_LOOP)
        path = cache.path_for(plan.model_hash, TEST_LOOP)
        assert path.exists() and path.suffix == ".plan"

    def test_hit_loads_from_disk(self, tmp_path, monkeypatch):
        _, program = _program()
        cache = PlanCache(tmp_path)
        first = cache.get(program, TEST_LOOP)
        # A second lookup must not recompile: poison compile_program.
        import repro.serve.cache as cache_mod

        def boom(*a, **k):  # pragma: no cover - fails the test if reached
            raise AssertionError("cache hit must not recompile")

        monkeypatch.setattr(cache_mod, "compile_program", boom)
        second = cache.get(program, TEST_LOOP)
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
            assert np.abs(got - want).max() <= 2
        stats = session.stats()
        assert stats.requests == 2
        assert stats.timings["compile_s"] > 0 and stats.timings["run_s"] > 0
        # Warm requests never pay the compile phase: no op, no second.
        assert "compile" not in counting.ops_by_phase()
        assert "compile" not in counting.phase_s
