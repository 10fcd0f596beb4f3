"""PerfRecorder accounting, ParallelMap executors, CLI flags, the curated
top-level API, and the chunked parallel five-step path."""

import json
import time

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.errors import ParameterError
from repro.perf import ExecConfig, ParallelMap, PerfRecorder


class TestPerfRecorder:
    def test_phase_accounting_sums_to_total(self):
        perf = PerfRecorder()
        with perf.run():
            with perf.phase("pmult"):
                time.sleep(0.01)
            with perf.phase("fbs"):
                time.sleep(0.02)
            with perf.phase("pmult"):
                time.sleep(0.01)
        # Disjoint phases must sum to at most the run wall time, and the
        # sleeps bound the phase sum from below.
        assert perf.total_phase_s >= 0.04
        assert perf.total_phase_s <= perf.wall_s
        assert set(perf.phase_s) == {"pmult", "fbs"}
        assert perf.phase_s["pmult"] >= 0.02

    def test_counts_accumulate(self):
        perf = PerfRecorder()
        perf.count("pmult")
        perf.count("pmult", 4)
        perf.count("extract", 35)
        assert perf.ops == {"pmult": 5, "extract": 35}

    def test_wall_falls_back_to_phase_sum(self):
        perf = PerfRecorder()
        perf.add_time("fbs", 1.5)
        assert perf.wall_s == pytest.approx(1.5)

    def test_summary_schema(self):
        perf = PerfRecorder()
        with perf.run():
            with perf.phase("s2c"):
                pass
            perf.count("s2c")
        summary = perf.summary()
        assert set(summary) == {"wall_s", "phase_s", "ops"}
        assert summary["ops"] == {"s2c": 1}

    def test_merge_and_reset(self):
        a, b = PerfRecorder(), PerfRecorder()
        a.add_time("fbs", 1.0)
        b.add_time("fbs", 2.0)
        b.count("pack", 3)
        a.merge(b)
        assert a.phase_s["fbs"] == pytest.approx(3.0)
        assert a.ops == {"pack": 3}
        a.reset()
        assert a.phase_s == {} and a.ops == {} and a.wall_s == 0.0

    def test_merge_with_self_is_a_noop(self):
        # Regression: self-merge must not deadlock on the non-reentrant
        # lock, and must not double the counters.
        a = PerfRecorder()
        a.count("pack", 2)
        a.merge(a)
        assert a.ops == {"pack": 2}

    def test_pickle_roundtrip_recreates_lock(self):
        # Recorders cross process-executor boundaries; the lock is dropped
        # in transit and must come back usable.
        import pickle

        a = PerfRecorder()
        a.add_time("fbs", 1.0)
        a.count("pack", 3)
        b = pickle.loads(pickle.dumps(a))
        assert b.phase_s == {"fbs": 1.0} and b.ops == {"pack": 3}
        assert b.wall_s == pytest.approx(1.0)
        b.count("pack")  # fresh lock, still functional
        assert b.ops["pack"] == 4


class TestParallelMap:
    def test_exec_config_from_env(self):
        cfg = ExecConfig.from_env({"REPRO_EXECUTOR": "thread", "REPRO_WORKERS": "3"})
        assert cfg.mode == "thread" and cfg.workers == 3
        assert ExecConfig.from_env({}).mode == "serial"

    def test_exec_config_rejects_bad_mode(self):
        with pytest.raises(ParameterError):
            ExecConfig(mode="gpu")
        with pytest.raises(ParameterError):
            ExecConfig(workers=0)

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_map_preserves_order(self, mode):
        pmap = ParallelMap(ExecConfig(mode, workers=4))
        got = pmap.map(lambda x: x * x, range(20))
        assert got == [x * x for x in range(20)]

    def test_starmap(self):
        pmap = ParallelMap(ExecConfig("thread", workers=2))
        assert pmap.starmap(lambda a, b: a - b, [(5, 2), (9, 4)]) == [3, 5]

    def test_process_mode(self):
        pmap = ParallelMap(ExecConfig("process", workers=2))
        assert pmap.map(abs, [-1, -2, 3]) == [1, 2, 3]


class TestCliJsonFlags:
    def test_experiment_json(self, capsys):
        assert main(["experiment", "table8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["experiment"] == "table8"
        assert "Table 8" in payload[0]["rendered"]

    def test_experiment_out_file(self, tmp_path):
        out = tmp_path / "t8.txt"
        assert main(["experiment", "table8", "--out", str(out)]) == 0
        assert "Table 8" in out.read_text()

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["experiment", "nope"]) == 2

    def test_repro_error_maps_to_exit_1(self, capsys):
        assert main(["params", "no-such-preset"]) == 1
        assert "error" in capsys.readouterr().err


class TestDeprecations:
    def test_curated_top_level_api(self):
        assert repro.lower is not None
        assert repro.PerfRecorder is PerfRecorder
        for name in ("AthenaPipeline", "FbsLut", "run_program", "lower",
                     "PerfRecorder"):
            assert name in repro.__all__
        with pytest.raises(AttributeError):
            repro.no_such_symbol


@pytest.mark.slow
class TestChunkedCiphertextPath:
    """Chunked five-step rounds: tile merge is exact and executor-agnostic."""

    def _setup(self):
        from repro.core.program import lower
        from repro.fhe.params import TEST_LOOP
        from repro.quant.subjects import mnist_cnn_micro

        rng = np.random.default_rng(5)
        qm = mnist_cnn_micro(rng)
        x_q = rng.integers(-3, 4, (1, 6, 6)).astype(np.int64)
        return lower(qm, TEST_LOOP), qm, x_q

    def test_chunked_matches_plaintext_and_is_thread_safe(self):
        from repro.core.framework import AthenaPipeline, LoopCost
        from repro.fhe.params import TEST_LOOP

        program, qm, x_q = self._setup()
        want = qm.forward_int(x_q[None])[0]

        cost = LoopCost()
        serial_pipe = AthenaPipeline(TEST_LOOP, seed=41)
        got_serial = serial_pipe.run_program(program, x_q, cost, chunk=16)
        assert np.abs(got_serial - want).max() <= 2
        # The conv round (32 outputs) splits into two tiles; counts cover
        # the extra FBS round but the extraction total is unchanged.
        assert cost.extractions == 32 + 3

        thread_pipe = AthenaPipeline(TEST_LOOP, seed=41)
        got_thread = thread_pipe.run_program(
            program, x_q, chunk=16,
            pmap=ParallelMap(ExecConfig("thread", workers=4)),
        )
        # Evaluation is deterministic given the keys: thread scheduling must
        # not change a single bit of the result.
        assert np.array_equal(got_serial, got_thread)

    def test_chunk_validation(self):
        from repro.core.framework import AthenaPipeline, CiphertextExecutor
        from repro.fhe.params import TEST_LOOP

        program, _, _ = self._setup()
        pipe = AthenaPipeline(TEST_LOOP, seed=41)
        with pytest.raises(ParameterError):
            CiphertextExecutor(pipe, program, chunk=0)
