"""The instrumentation seam, ParallelMap executors, CLI flags, the curated
top-level API, and the counting wrapper under a thread fan-out."""

import importlib
import inspect
import json
import sys

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.errors import ParameterError
from repro.perf import ExecConfig, ParallelMap


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
    "repro.core.lowering", "repro.fhe.serialize", "repro.fhe.fbs",
    "repro.quant.mp", "repro.serve",
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
        # The schedule record stores the split ``from_lut`` derives; nothing
        # passes one in.
        offenders.discard("repro.fhe.fbs.FbsPlan.__init__")
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


class TestCountingThreadSafety:
    """One counter shared across a thread fan-out loses no event and
    mislabels none: the phase label is thread-local, the store is locked."""

    def test_k_threads_count_k_times_one_serial_call(
            self, fbs_ctx, fbs_keys, fbs_rlk):
        from repro.fhe.backend import CountingBackend, current_backend, use_backend
        from repro.fhe.bfv import Plaintext
        from repro.fhe.fbs import FbsLut, FbsPlan, fbs_evaluate

        ctx, (_, pk) = fbs_ctx, fbs_keys
        params = ctx.params
        k = 16  # more items than workers, more workers than cores
        # Degree 5: a short ladder keeps the serial leg's 18 evaluations cheap.
        lut = FbsLut.from_function(lambda v: v**5 + 3 * v**2 + v, params.t)
        plan = FbsPlan.from_lut(lut).materialize(params)
        assert plan.degree == 5
        kernel = Plaintext.from_coeffs(np.arange(params.n) % 3, params)
        cts = [
            ctx.encrypt(Plaintext.from_slots(np.full(params.n, i), params), pk)
            for i in range(k)
        ]

        def work(ct):
            with current_backend().phase("linear"):
                ctx.pmult(ct, kernel)
            fbs_evaluate(ctx, ct, lut, fbs_rlk, plan=plan)

        def counted(pmap, items):
            counting = CountingBackend()
            with use_backend(counting):
                pmap.map(work, items)
            return counting.ops_by_phase()

        work(cts[0])  # operand forms and key stacks are cached on first use
        serial = counted(ParallelMap(ExecConfig("serial")), cts[:1])
        assert {"linear", "fbs", "fbs_giant"} <= set(serial)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = counted(ParallelMap(ExecConfig("thread", workers=4)), cts)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == {
            phase: {op: k * n for op, n in ops.items()}
            for phase, ops in serial.items()
        }
