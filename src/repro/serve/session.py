"""Warm inference sessions, split into a picklable core and a runtime.

A session splits *what it knows* (the compiled plan — request-invariant,
key-free, and the whole ciphertext program) from *what it holds*
(generated keys, an attached pipeline, a request lock). A multi-worker
serving deployment needs those halves apart: the plan is compiled once and
shipped to every worker, while each worker generates its own key material
and answers requests locally.

* :class:`SessionCore` — the picklable compile-time half: a core is its
  plan (plus the key seed and backend pin). Contains no lowered program, no
  key material, no locks, and no pipeline; a core can cross a process
  boundary (``pickle``), which is how
  :class:`repro.serve.workers.WorkerPool` seeds process workers with warm
  sessions.
* :class:`SessionRuntime` — the per-worker half: key generation, the
  pipeline, the request lock, and request bookkeeping (including a
  per-request latency log so :meth:`SessionRuntime.stats` reports p50/p99).
* :class:`InferenceSession` — the original façade, now a thin composition
  of one core and one runtime. Its constructor signature and semantics are
  unchanged.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.framework import AthenaPipeline
from repro.core.plan import CompiledProgram, compile_program
from repro.core.program import AthenaProgram, lower
from repro.errors import ParameterError
from repro.fhe.backend import Backend, get_backend, use_backend
from repro.fhe.params import TEST_LOOP, FheParams
from repro.serve.api import LayerStats

__all__ = ["InferenceSession", "SessionCore", "SessionRuntime"]

#: Run walls a runtime keeps for its p50/p99; older runs fall off the window.
LATENCY_WINDOW = 4096


def _pinned(backend: Backend | str | None):
    """The session's backend pin as a context, or no-op when unpinned."""
    return use_backend(backend) if backend is not None else nullcontext()


def _percentile(latencies: list[float], q: float) -> float | None:
    """Latency percentile (seconds), ``None`` before the first request."""
    if not latencies:
        return None
    return round(float(np.percentile(np.asarray(latencies), q)), 6)


@dataclass
class SessionCore:
    """The request-invariant half of a session: its compiled plan.

    The plan is the whole ciphertext program and carries its parameter set
    (``plan.params``), so no lowered program rides along. Everything here is
    plain data — numpy arrays, dataclasses, and the session's backend pin —
    so a core pickles cleanly and can be built once in a control process,
    persisted through a :class:`repro.serve.ShardedPlanCache`, and handed to
    any number of workers. Only a pin given as a *name* crosses a process
    boundary.
    """

    plan: CompiledProgram
    seed: int = 0
    backend: Backend | str | None = None
    compile_s: float = 0.0

    @property
    def fingerprint(self) -> str:
        """The plan's model hash — the cache/sharding key for this model."""
        return self.plan.model_hash

    @classmethod
    def build(
        cls,
        model,
        params: FheParams | None = None,
        seed: int = 0,
        plan: CompiledProgram | None = None,
        cache=None,
        backend: Backend | str | None = None,
        tuning: None = None,
    ) -> "SessionCore":
        """Lower + compile (or cache-load, or bind) the compile-time half.

        ``model`` may be a quantized model or a pre-lowered program; ``plan``
        checks a caller-supplied (typically deserialized) plan against the
        program with :meth:`CompiledProgram.bind` — once here, never per
        request; a loaded plan is complete, binding builds nothing. ``cache``
        consults a :class:`repro.serve.ShardedPlanCache` (a disk hit is a
        ``load_plan``, never a compile), and otherwise the program is
        compiled here. The duration of that plan work is ``compile_s``; the
        program is not kept.
        """
        # ``tuning`` exists for benchmarks/ledger/tracing.py, its only caller.
        if tuning is not None:
            raise ParameterError("there is no encoding tuner: tuning must be None")
        if isinstance(model, AthenaProgram):
            program = model
            params = params or program.params
        else:
            params = params or TEST_LOOP
            program = lower(model, params)
        start = time.perf_counter()
        with _pinned(backend):
            if plan is not None:
                plan = plan.bind(program, params)
            elif cache is not None:
                plan = cache.get(program, params)
            else:
                plan = compile_program(program, params)
        return cls(
            plan=plan,
            seed=seed,
            backend=backend,
            compile_s=time.perf_counter() - start,
        )


class SessionRuntime:
    """The per-worker half: keys, pipeline, lock, request bookkeeping.

    Construction generates this runtime's key material deterministically
    from ``core.seed`` (timed as ``keygen_s``), so every worker built from
    the same core holds identical keys and — given the same request order —
    produces bit-identical outputs.

    The core's backend is this runtime's pin: keygen and every run execute
    under it, in whichever thread or worker process the runtime lives in.

    :meth:`timed_batch` serializes requests on an internal lock; *all* bookkeeping
    (request count, accumulated run time, the windowed run-latency log) is
    updated inside that lock, so concurrent callers never lose updates and
    :meth:`stats` always reports a consistent snapshot, including p50/p99
    run latency.
    """

    def __init__(self, core: SessionCore):
        self.core = core
        self.backend = (
            get_backend(core.backend) if core.backend is not None else None
        )
        start = time.perf_counter()
        with _pinned(self.backend):
            self.pipeline = AthenaPipeline(core.plan.params, seed=core.seed)
        self.keygen_s = time.perf_counter() - start
        self._lock = threading.Lock()
        self.requests = 0
        #: Fused pipeline executions (a k-request batch is one run).
        self.runs = 0
        self.run_s = 0.0
        self.latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)

    def timed_batch(self, xs: list[np.ndarray]) -> tuple[list[np.ndarray], float]:
        """One *fused* execution answering ``len(xs)`` requests at once
        (:meth:`AthenaPipeline.run_batch`: lane-full ciphertexts through
        one FBS per layer), and its wall seconds, measured under the request
        lock (so waiting for another caller's run is excluded)."""
        core = self.core
        with self._lock, _pinned(self.backend):
            start = time.perf_counter()
            outs = self.pipeline.run_batch(core.plan, xs)
            wall = time.perf_counter() - start
            self.requests += len(xs)
            self.runs += 1
            self.run_s += wall
            self.latencies.append(wall)
        return outs, wall

    def stats(self) -> LayerStats:
        """Uniform-schema accounting: compile vs keygen vs run, p50/p99.

        ``timings["amortized_request_s"]`` is run seconds divided by
        *requests* (lanes), the cost-per-inference batching buys down;
        ``mean_run_s`` and the percentiles are per fused *execution*.
        ``requests``, ``runs`` and ``run_s`` are exact lifetime totals;
        ``run_p50_s`` / ``run_p99_s`` are over the last
        ``LATENCY_WINDOW`` runs only.
        """
        with self._lock:
            requests = self.requests
            runs = self.runs
            run_s = self.run_s
            latencies = list(self.latencies)
        core = self.core
        return LayerStats(
            layer="session",
            requests=requests,
            counters={
                "runs": runs,
                "batch_capacity": core.plan.batch_capacity,
            },
            timings={
                "compile_s": round(core.compile_s, 6),
                "keygen_s": round(self.keygen_s, 6),
                "run_s": round(run_s, 6),
                "mean_run_s": round(run_s / runs, 6) if runs else None,
                "amortized_request_s": (
                    round(run_s / requests, 6) if requests else None
                ),
                "run_p50_s": _percentile(latencies, 50),
                "run_p99_s": _percentile(latencies, 99),
            },
            detail={
                "model": core.plan.name,
                "model_hash": core.fingerprint,
                "backend": (
                    self.backend.name if self.backend is not None else None
                ),
            },
        )


class InferenceSession:
    """Compile once, run many: the warm-serving façade over the pipeline.

    Construction does all request-invariant work — plan compilation, a
    :class:`repro.serve.ShardedPlanCache` lookup, or binding a caller-supplied
    deserialized plan (the :class:`SessionCore`, its duration recorded as
    ``compile_s``) — then key generation and pipeline setup (the
    :class:`SessionRuntime`). Each :meth:`run` performs only ciphertext
    ops — :meth:`AthenaPipeline.run` on the core's plan — timed by one
    clock pair under the runtime's lock, so ``compile_s`` and per-request
    ``run_s`` never mix.

    Requests are serialized by the runtime's lock — the pipeline's
    deterministic randomness is per-pipeline state. Outputs are
    bit-identical to :meth:`AthenaPipeline.run` of the same plan on the
    same pipeline state, whether the plan was compiled, cache-loaded or
    supplied.

    ``backend`` pins this session's op dispatch (a
    :class:`repro.fhe.backend.Backend` instance or name). Selection is
    context-local, so concurrent sessions on *different* backends never
    interfere — the thread-safety claim above holds per session, not per
    process. A :class:`~repro.fhe.backend.CountingBackend` here turns every
    request into an executed-op trace (see ``session.runtime.backend.summary()``).

    The session is a composition of its two halves (``session.core``,
    ``session.runtime``); multi-worker deployments use those directly (one
    core, many runtimes) through :class:`repro.serve.AthenaService`.
    """

    def __init__(
        self,
        model,
        params: FheParams | None = None,
        seed: int = 0,
        plan: CompiledProgram | None = None,
        cache=None,
        backend: Backend | str | None = None,
        tuning: None = None,
    ):
        self.core = SessionCore.build(
            model,
            params=params,
            seed=seed,
            plan=plan,
            cache=cache,
            backend=backend,
            # benchmarks/ledger/workloads.py is the only caller passing one.
            tuning=tuning,
        )
        self.runtime = SessionRuntime(self.core)

    # -- compile-time half -------------------------------------------------

    @property
    def plan(self) -> CompiledProgram:
        return self.core.plan

    @property
    def compile_s(self) -> float:
        return self.core.compile_s

    def run(self, x_q: np.ndarray) -> np.ndarray:
        """One encrypted inference; returns centered integer outputs."""
        return self.run_batch([x_q])[0]

    def run_batch(self, xs: list[np.ndarray]) -> list[np.ndarray]:
        """Fused multi-image inference, one output per input, in order
        (see :meth:`SessionRuntime.timed_batch`)."""
        return self.runtime.timed_batch(xs)[0]

    def stats(self) -> "LayerStats":
        """Session accounting in the uniform :class:`LayerStats` schema."""
        return self.runtime.stats()
