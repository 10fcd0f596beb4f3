"""Autotuner contract tests (:mod:`repro.core.tune`).

Three guarantees the plan cache and the serving stack rely on:

* the tuned plan's predicted cost is never worse than the default plan's
  (default-first enumeration, strict-improvement comparison);
* tuning is a pure function of the lowered program + parameter set, so
  repeated tunes produce byte-identical configs (hypothesis pins this
  across model seeds and chunk settings);
* a non-empty tuning config changes ``program_fingerprint`` (the plan
  cache key) while an empty one keeps the untuned fingerprint.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lowering import DEFAULT_ENCODING, StepEncodingChoice, TuningConfig
from repro.core.plan import compile_program, program_fingerprint
from repro.core.program import lower
from repro.core.tune import (
    step_candidates,
    strategy_costs,
    tune_model,
    tune_program,
)
from repro.fhe.params import ATHENA, TEST_LOOP
from repro.quant.subjects import mnist_cnn_micro, resnet_block_micro
from tests.conftest import refresh_noise_bound


@pytest.fixture(scope="module")
def micro_program():
    return lower(mnist_cnn_micro(np.random.default_rng(5)), TEST_LOOP)


class TestCandidates:
    def test_default_candidate_first(self, micro_program):
        from repro.core.tune import _tunable_steps

        for step in _tunable_steps(micro_program.steps):
            cands = step_candidates(step, TEST_LOOP, chunk=16)
            default = getattr(step, "encoding", None) or DEFAULT_ENCODING
            assert cands[0] == default
            assert len(cands) == len(set(cands))  # no duplicates

    def test_chunk_opt_out_only_for_split_linear_steps(self, micro_program):
        from repro.core.tune import _tunable_steps

        for step in _tunable_steps(micro_program.steps):
            cands = step_candidates(step, TEST_LOOP, chunk=16)
            opted = [c for c in cands if c.chunk is not None]
            if step.kind != "linear" or step.out_values <= 16:
                assert not opted, (step.name, cands)
            else:
                # The opt-out candidate asks for the whole round in one tile.
                assert any(c.chunk == step.out_values for c in opted)

    def test_strategy_candidates_conv_only(self, micro_program):
        from repro.core.tune import _tunable_steps

        for step in _tunable_steps(micro_program.steps):
            cands = step_candidates(step, TEST_LOOP)
            cheetah = [c for c in cands if c.strategy == "cheetah"]
            if step.kind == "linear" and step.op == "conv":
                assert cheetah
            else:
                assert not cheetah, (step.name, cands)


class TestTuneProgram:
    def test_tuned_never_worse_with_chunk(self, micro_program):
        result = tune_program(micro_program, TEST_LOOP, chunk=16)
        assert result.tuned_cost <= result.default_cost
        for s in result.steps:
            assert s.chosen.cost <= s.default.cost
            if s.improved:
                assert s.saving > 0

    def test_micro_model_opts_conv_out_of_global_chunk(self, micro_program):
        # The headline win: the conv round's 32 outputs split into
        # two tiles under chunk=16, doubling FBS/packing/S2C; the tuner
        # opts it back into a single tile.
        result = tune_program(micro_program, TEST_LOOP, chunk=16)
        tuning = result.tuning
        assert tuning, result.report()
        conv = tuning.get("qconv0")
        assert conv is not None and conv.chunk == 32

    def test_untunable_program_tunes_to_empty_config(self):
        # Without a global chunk (and with full-t LUTs) nothing improves:
        # the config is empty and falsy, preserving the untuned fingerprint.
        qm = mnist_cnn_micro(np.random.default_rng(5))
        program = lower(qm, TEST_LOOP)
        result = tune_program(program, TEST_LOOP, chunk=None)
        improved = [s for s in result.steps if s.improved]
        assert bool(result.tuning) == bool(improved)
        if not improved:
            assert program_fingerprint(program, result.tuning) == \
                program_fingerprint(program)

    def test_residual_branches_are_tuned(self):
        qm = resnet_block_micro(np.random.default_rng(5))
        result = tune_program(lower(qm, TEST_LOOP), TEST_LOOP, chunk=16)
        names = [s.name for s in result.steps]
        assert any(".body." in n for n in names), names
        assert any(".skip." in n for n in names), names
        assert len(names) == len(set(names))  # flat config addresses all

    def test_report_shape(self, micro_program):
        report = tune_program(micro_program, TEST_LOOP, chunk=16).report()
        assert report["predicted_tuned_mod_muls"] <= \
            report["predicted_default_mod_muls"]
        assert report["predicted_saving_mod_muls"] == pytest.approx(
            report["predicted_default_mod_muls"]
            - report["predicted_tuned_mod_muls"])
        for row in report["steps"]:
            assert set(row) >= {"name", "kind", "default", "chosen",
                                "default_mod_muls", "chosen_mod_muls",
                                "candidates", "improved"}


@pytest.mark.slow
@pytest.mark.parametrize("builder, strict", [(mnist_cnn_micro, True), (resnet_block_micro, False)])
def test_tuned_plan_executes_no_more_mod_muls(builder, strict, executed_mod_muls):
    """Counted on ciphertexts, not predicted."""
    qm = builder(np.random.default_rng(5))
    program = lower(qm, TEST_LOOP)
    tuning = tune_program(program, TEST_LOOP, chunk=16).tuning
    x_q = np.random.default_rng(41).integers(-2, 3, qm.input_shape)
    ref = qm.forward_int(x_q[None])[0].reshape(-1)
    counts = []
    # An empty tuning compiles to the default plan: nothing second to run.
    for choice in [None, tuning] if tuning else [None]:
        plan = compile_program(program, TEST_LOOP, chunk=16, tuning=choice)
        out, mod_muls = executed_mod_muls(program, plan, x_q, TEST_LOOP)
        assert np.abs(out - ref).max() <= refresh_noise_bound(qm, TEST_LOOP)
        counts.append(mod_muls)
    assert counts[-1] < counts[0] or (not strict and counts[-1] == counts[0])


class TestDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        chunk=st.sampled_from([None, 8, 16, 32]),
    )
    def test_tune_is_pure(self, seed, chunk):
        """Same model + params + chunk -> byte-identical tuning, every time."""
        first = tune_model(
            mnist_cnn_micro(np.random.default_rng(seed)), TEST_LOOP, chunk=chunk)
        second = tune_model(
            mnist_cnn_micro(np.random.default_rng(seed)), TEST_LOOP, chunk=chunk)
        assert first.tuning.tag() == second.tuning.tag()
        assert first.report() == second.report()

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        chunk=st.sampled_from([None, 8, 16, 32]),
    )
    def test_tuned_never_worse_property(self, seed, chunk):
        result = tune_model(
            mnist_cnn_micro(np.random.default_rng(seed)), TEST_LOOP, chunk=chunk)
        assert result.tuned_cost <= result.default_cost


class TestFingerprint:
    def test_tuning_changes_fingerprint(self, micro_program):
        tuning = TuningConfig((("qconv0", StepEncodingChoice(chunk=32)),))
        assert program_fingerprint(micro_program, tuning) != \
            program_fingerprint(micro_program)

    def test_empty_tuning_keeps_fingerprint(self, micro_program):
        assert program_fingerprint(micro_program, TuningConfig()) == \
            program_fingerprint(micro_program)

    def test_distinct_tunings_distinct_fingerprints(self, micro_program):
        a = TuningConfig((("qconv0", StepEncodingChoice(chunk=32)),))
        b = TuningConfig((("qconv0", StepEncodingChoice(bsgs=4)),))
        assert program_fingerprint(micro_program, a) != \
            program_fingerprint(micro_program, b)

    def test_compiled_plan_hash_folds_tuning(self, micro_program):
        tuning = tune_program(micro_program, TEST_LOOP, chunk=16).tuning
        assert tuning
        default = compile_program(micro_program, TEST_LOOP, chunk=16)
        tuned = compile_program(micro_program, TEST_LOOP, chunk=16,
                                tuning=tuning)
        assert tuned.model_hash != default.model_hash
        assert tuned.model_hash == program_fingerprint(micro_program, tuning)


class TestCompileHonorsTuning:
    def test_chunk_opt_out_collapses_tiles(self, micro_program):
        tuning = TuningConfig((("qconv0", StepEncodingChoice(chunk=32)),))
        default = compile_program(micro_program, TEST_LOOP, chunk=16)
        tuned = compile_program(micro_program, TEST_LOOP, chunk=16,
                                tuning=tuning)
        conv_default = default.steps[0]
        conv_tuned = tuned.steps[0]
        assert conv_default.tiles is not None and len(conv_default.tiles) == 2
        assert conv_tuned.tiles is None  # single-tile layout restored

    def test_bsgs_override_reaches_fbs_plan(self, micro_program):
        tuning = TuningConfig((("qconv0", StepEncodingChoice(bsgs=4)),))
        plan = compile_program(micro_program, TEST_LOOP, tuning=tuning)
        assert plan.steps[0].round.fbs.bs == 4


class TestZooSweep:
    """Every zoo model (resnet56 and the grouped-conv mobile_cnn included)
    lowers through the registry and tunes never-worse at paper params."""

    @pytest.mark.parametrize(
        "name", ["mnist_cnn", "lenet", "resnet20", "resnet56", "mobile_cnn"])
    def test_lower_and_tune(self, name):
        from repro.data import synthetic_cifar, synthetic_digits
        from repro.quant.models import build, input_shape
        from repro.quant.quantize import QuantConfig, quantize_model

        rng = np.random.default_rng(7)
        shape = input_shape(name)
        x = (synthetic_digits(64, rng)[0] if shape == (1, 28, 28)
             else synthetic_cifar(64, rng)[0])
        width = 0.5 if name == "mobile_cnn" else 0.25
        model = build(name, rng=np.random.default_rng(11), width=width)
        qm = quantize_model(model, x[:32], QuantConfig(7, 7), name=name)
        program = lower(qm, ATHENA)
        result = tune_program(program, ATHENA, chunk=1024)
        assert result.tuned_cost <= result.default_cost
        again = tune_program(lower(qm, ATHENA), ATHENA, chunk=1024)
        assert result.tuning.tag() == again.tuning.tag()
        if name.startswith("resnet"):
            # The deep residual stacks have rounds the global chunk splits;
            # the tuner must find real wins there.
            assert result.tuning


class TestStrategyCosts:
    def test_athena_beats_cheetah_on_paper_shape(self):
        from repro.core.encoding import TABLE2_SHAPES

        row = strategy_costs(TABLE2_SHAPES[0], ATHENA)
        assert row["pick"] == "athena"
        assert row["cheetah"] > row["athena"]
