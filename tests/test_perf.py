"""The instrumentation seam, the one backend pin, the worker pool's
executor config, CLI flags, the curated top-level API, and the counting
wrapper under a thread fan-out."""

import importlib
import inspect
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.errors import ParameterError
from repro.perf import ExecConfig


def _public_signatures(module: str):
    """``(defining module.qualname, parameter names)`` of every public
    callable ``module`` exposes, methods (class- and static- included) too."""
    mod = importlib.import_module(module)
    for name, obj in vars(mod).items():
        if name.startswith("_") or not callable(obj):
            continue
        members = [obj]
        if inspect.isclass(obj):  # its signature is its __init__'s
            members = [
                getattr(obj, attr) for attr in vars(obj)
                if attr == "__init__" or not attr.startswith("_")
            ]
        for fn in members:
            if not callable(fn):
                continue
            try:
                params = set(inspect.signature(fn).parameters)
            except (TypeError, ValueError):
                continue
            where = getattr(fn, "__module__", module)
            yield f"{where}.{getattr(fn, '__qualname__', name)}", params


#: The compile / run / serve stack: it exposes no refresh-tile size, no
#: executor and no per-step encoding option.
_OPTION_FREE = [
    "repro.core.framework", "repro.core.plan", "repro.core.program",
    "repro.fhe.serialize", "repro.fhe.fbs", "repro.quant.mp", "repro.serve",
]


class TestInstrumentationSeam:
    """``Backend.phase`` / ``Backend.record`` is the only way to observe a
    run: nothing in the execution stack takes a counter or recorder — nor a
    refresh-tile size, an executor, or a per-step encoding choice."""

    @pytest.mark.parametrize("module", [
        "repro.core.framework", "repro.core.program", "repro.fhe.fbs",
        "repro.serve",
    ])
    def test_no_public_callable_takes_cost_or_perf(self, module):
        offenders = [label for label, params in _public_signatures(module)
                     if {"cost", "perf"} & params]
        assert offenders == []

    @pytest.mark.parametrize("module", _OPTION_FREE)
    def test_no_deleted_option(self, module):
        offenders = {label for label, params in _public_signatures(module)
                     if {"chunk", "pmap", "encoding", "bs"} & params}
        assert offenders == set()

    def test_tuning_is_ledger_only_and_must_be_none(self):
        """``benchmarks/ledger/`` passes ``tuning=tune_program(...).tuning``
        — always ``None`` — to exactly these; anything else is an error."""
        from repro.core.plan import compile_program
        from repro.core.program import lower
        from repro.quant.subjects import micro_subject
        from repro.serve import InferenceSession, SessionCore

        takers = {label for module in _OPTION_FREE
                  for label, params in _public_signatures(module)
                  if "tuning" in params}
        assert takers == {
            "repro.core.plan.compile_program",
            "repro.serve.session.SessionCore.build",
            "repro.serve.session.InferenceSession.__init__",
        }
        qm, params = micro_subject("mnist_cnn")
        program = lower(qm, params)
        for entry in (compile_program, SessionCore.build, InferenceSession):
            with pytest.raises(ParameterError, match="tuning must be None"):
                entry(program, params, tuning=object())

    def test_perf_package_is_the_executors(self):
        import repro.perf

        assert repro.perf.__all__ == ["ExecConfig"]


def test_one_backend_pin():
    """Only a session pins a backend: no pipeline, tenant or other public
    callable of the compile / run / serve stack takes one."""
    takers = {label for module in _OPTION_FREE
              for label, params in _public_signatures(module)
              if "backend" in params}
    assert takers == {
        "repro.serve.session.SessionCore.__init__",
        "repro.serve.session.SessionCore.build",
        "repro.serve.session.InferenceSession.__init__",
    }


class TestParallelMap:
    """The worker pool's executor config."""

    def test_exec_config_rejects_bad_mode(self):
        with pytest.raises(ParameterError):
            ExecConfig(mode="gpu")
        # One worker is a one-thread pool, not an executor mode of its own:
        # "serial" names only the reference backend.
        with pytest.raises(ParameterError):
            ExecConfig(mode="serial")
        with pytest.raises(ParameterError):
            ExecConfig(workers=0)

    def test_process_workers_take_backend_names_only(self):
        """Process workers receive pickled session cores: a backend
        instance (a counter holds a lock) is refused up front, not by a
        ``TypeError`` out of ``AthenaService.start()``."""
        from repro.fhe.backend import CountingBackend

        with pytest.raises(ParameterError, match="backend name"):
            ExecConfig("process", 1, backend=CountingBackend())
        assert ExecConfig("process", 1, backend="counting").backend == "counting"
        counting = CountingBackend()
        assert ExecConfig("thread", 1, backend=counting).backend is counting


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
        for name in ("AthenaPipeline", "FbsLut", "run_program", "lower"):
            assert name in repro.__all__
        assert "ParallelMap" not in repro.__all__
        with pytest.raises(AttributeError):
            repro.no_such_symbol


class TestCountingThreadSafety:
    """One counter shared across a thread fan-out loses no event and
    mislabels none: the phase label is thread-local, the store is locked."""

    def test_k_threads_count_k_times_one_serial_call(
            self, fbs_ctx, fbs_keys, fbs_rlk):
        from repro.fhe.backend import CountingBackend, current_backend, use_backend
        from repro.fhe.bfv import Plaintext
        from repro.fhe.fbs import FbsLut, fbs_evaluate

        ctx, (_, pk) = fbs_ctx, fbs_keys
        params = ctx.params
        k = 16  # more items than workers, more workers than cores
        # Degree 5: a short ladder keeps the serial leg's 18 evaluations cheap.
        lut = FbsLut.from_function(lambda v: v**5 + 3 * v**2 + v, params.t)
        plan = lut.plan
        assert plan.degree == 5
        kernel = Plaintext.from_coeffs(np.arange(params.n) % 3, params)
        cts = [
            ctx.encrypt(Plaintext.from_slots(np.full(params.n, i), params), pk)
            for i in range(k)
        ]

        def work(ct):
            with current_backend().phase("linear"):
                ctx.pmult(ct, kernel)
            fbs_evaluate(ctx, [ct], lut, fbs_rlk)

        def counted(items, workers):
            counting = CountingBackend()

            def item(ct):
                with use_backend(counting):
                    work(ct)

            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(item, items))
            return counting.ops_by_phase()

        work(cts[0])  # operand forms and key stacks are cached on first use
        serial = counted(cts[:1], 1)
        assert {"linear", "fbs", "fbs_giant"} <= set(serial)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = counted(cts, 4)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == {
            phase: {op: k * n for op, n in ops.items()}
            for phase, ops in serial.items()
        }
