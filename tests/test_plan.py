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
from repro.quant.subjects import mnist_cnn_micro
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
        assert conv.tiles is None  # unchunked round: one tile
        assert plan.s2c.direct.baby_steps == plan.s2c.crossed.baby_steps
        assert plan.model_hash == program_fingerprint(program)

    def test_chunked_tile_layout(self):
        _, program = _program()
        plan = compile_program(program, TEST_LOOP, chunk=16)
        conv, _, fc = plan.steps
        # A tile is the round's own positions, placed at its own pack rows.
        assert [t.rows.tolist() for t in conv.tiles] == [
            list(range(16)), list(range(16, 32))]
        assert [t.height for t in conv.tiles] == [16, 32]
        assert np.array_equal(
            np.concatenate([t.positions for t in conv.tiles]),
            conv.round.positions)
        for tile in conv.tiles:
            assert tile.lut is conv.round.lut and tile.fbs is conv.round.fbs
            assert (tile.correction is None) == (
                int(conv.round.lut.values[0]) == 0)
        assert fc.tiles is None  # 3 outputs <= chunk

    def test_correction_zeroes_exactly_the_unfilled_rows(self):
        """One builder for every ``-LUT(0)`` plaintext: placed layouts,
        chunk tiles and lane batches all get the same rule."""
        from repro.core.plan import _refresh_round, _tile_rounds
        from repro.fhe.fbs import FbsLut, FbsPlan

        lut = FbsLut.from_function(lambda v: v + 5, TEST_LOOP.t)
        rnd = _refresh_round(np.arange(40, 72), None, lut,
                             FbsPlan.from_lut(lut), TEST_LOOP)
        assert rnd.correction is None  # compact: nothing placed
        for tile in _tile_rounds(rnd, 16, TEST_LOOP):
            slots = tile.correction.to_slots()
            assert not slots[tile.rows].any()
            rest = np.delete(slots, tile.rows)
            assert np.all(rest == (-5) % TEST_LOOP.t)

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

    def test_bind_checks_the_tuning_the_plan_was_compiled_under(self):
        from repro.core.lowering import StepEncodingChoice, TuningConfig

        _, program = _program()
        tuning = TuningConfig((("qconv0", StepEncodingChoice(bsgs=4)),))
        tuned = compile_program(program, TEST_LOOP, tuning=tuning)
        assert tuned.model_hash != program_fingerprint(program)
        assert tuned.bind(program, TEST_LOOP) is tuned

    def test_bad_chunk_rejected(self):
        _, program = _program()
        with pytest.raises(ParameterError):
            compile_program(program, TEST_LOOP, chunk=0)


class TestWireFormat:
    def test_round_trip_preserves_artifacts(self):
        _, program = _program()
        plan = compile_program(program, TEST_LOOP, chunk=16)
        loaded = load_plan(dump_plan(plan), TEST_LOOP)
        assert loaded.model_hash == plan.model_hash
        assert loaded.chunk == plan.chunk and loaded.name == plan.name
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
                assert (got.tiles is None) == (want.tiles is None)
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

    def test_chunk_gets_its_own_entry(self, tmp_path):
        _, program = _program()
        cache = PlanCache(tmp_path)
        cache.get(program, TEST_LOOP)
        cache.get(program, TEST_LOOP, chunk=16)
        assert len(list(tmp_path.glob("*.plan"))) == 2


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
