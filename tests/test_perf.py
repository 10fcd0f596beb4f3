"""The instrumentation seam, ParallelMap executors, CLI flags, the curated
top-level API, and the chunked parallel five-step path."""

import importlib
import inspect
import json

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.errors import ParameterError
from repro.perf import ExecConfig, ParallelMap


class TestInstrumentationSeam:
    """``Backend.phase`` / ``Backend.record`` is the only way to observe a
    run: nothing in the execution stack takes a counter or recorder."""

    @pytest.mark.parametrize("module", [
        "repro.core.framework", "repro.core.program", "repro.fhe.fbs",
        "repro.serve",
    ])
    def test_no_public_callable_takes_cost_or_perf(self, module):
        mod = importlib.import_module(module)
        offenders = []
        for name, obj in vars(mod).items():
            if name.startswith("_") or not callable(obj):
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [
                    (f"{name}.{attr}", fn)
                    for attr, fn in vars(obj).items()
                    if callable(fn) and (attr == "__init__" or not attr.startswith("_"))
                ]
            for label, fn in members:
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):
                    continue
                if {"cost", "perf"} & set(params):
                    offenders.append(label)
        assert offenders == []

    def test_perf_package_is_the_executors(self):
        import repro.perf

        assert repro.perf.__all__ == ["ExecConfig", "ParallelMap"]


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
        assert repro.ParallelMap is ParallelMap
        for name in ("AthenaPipeline", "FbsLut", "run_program", "lower",
                     "ParallelMap"):
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
        from repro.core.framework import AthenaPipeline
        from repro.fhe.backend import CountingBackend
        from repro.fhe.params import TEST_LOOP

        program, qm, x_q = self._setup()
        want = qm.forward_int(x_q[None])[0]

        serial_counts = CountingBackend()
        serial_pipe = AthenaPipeline(TEST_LOOP, seed=41, backend=serial_counts)
        serial_counts.reset()  # drop keygen
        got_serial = serial_pipe.run_program(program, x_q, chunk=16)
        assert np.abs(got_serial - want).max() <= 2
        # The conv round (32 outputs) splits into two tiles; counts cover
        # the extra FBS round but the extraction total is unchanged.
        serial_ops = serial_counts.ops_by_phase()
        assert serial_ops["se"]["extract"] == 32 + 3
        assert serial_ops["fbs"]["smult"] == 610
        assert serial_ops["fbs_giant"]["cmult"] == 131

        thread_counts = CountingBackend()
        thread_pipe = AthenaPipeline(TEST_LOOP, seed=41, backend=thread_counts)
        thread_counts.reset()
        got_thread = thread_pipe.run_program(
            program, x_q, chunk=16,
            pmap=ParallelMap(ExecConfig("thread", workers=4)),
        )
        # Evaluation is deterministic given the keys: thread scheduling must
        # not change a single bit of the result.
        assert np.array_equal(got_serial, got_thread)
        # One shared counter across the tile fan-out loses no event and
        # mislabels none: phase by phase it equals the serial run.
        assert thread_counts.ops_by_phase() == serial_ops

    def test_chunk_validation(self):
        from repro.core.framework import AthenaPipeline, CiphertextExecutor
        from repro.fhe.params import TEST_LOOP

        program, _, _ = self._setup()
        pipe = AthenaPipeline(TEST_LOOP, seed=41)
        with pytest.raises(ParameterError):
            CiphertextExecutor(pipe, program, chunk=0)
