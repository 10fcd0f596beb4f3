"""Warm inference sessions, split into a picklable core and a runtime.

The compile-once/run-many split of PR 3 had one seam left to open: the
:class:`InferenceSession` façade fused *what a session knows* (the lowered
program, the parameter set, the compiled plan — all request-invariant and
key-free) with *what a session holds* (generated keys, an attached
pipeline, a request lock). A multi-worker serving deployment needs those
halves apart: the knowledge is compiled once and shipped to every worker,
while each worker generates its own key material and answers requests
locally.

* :class:`SessionCore` — the picklable compile-time half. Contains no key
  material, no locks, and no pipeline; a core can cross a process boundary
  (``pickle``), which is how :class:`repro.serve.workers.WorkerPool` seeds
  process workers with warm sessions.
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


def _percentile(latencies: list[float], q: float) -> float | None:
    """Latency percentile (seconds), ``None`` before the first request."""
    if not latencies:
        return None
    return round(float(np.percentile(np.asarray(latencies), q)), 6)


@dataclass
class SessionCore:
    """The request-invariant half of a session: program + params + plan.

    Everything here is plain data — numpy arrays, dataclasses, and at most
    a backend *name* — so a core pickles cleanly and can be built once in a
    control process, persisted through a :class:`repro.serve.PlanCache`,
    and handed to any number of workers. Pass ``backend`` as a name (not an
    instance) when a core must cross a process boundary; stateful backend
    instances (e.g. a populated CountingBackend) are kept by reference and
    only survive pickling if they themselves do.
    """

    program: AthenaProgram
    params: FheParams
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

        Mirrors the historical ``InferenceSession`` constructor: ``model``
        may be a quantized model or a pre-lowered program; ``plan`` checks a
        caller-supplied (typically deserialized) plan against the program —
        a loaded plan is complete, binding builds nothing; ``cache``
        consults a :class:`repro.serve.PlanCache` (a disk hit is a
        ``load_plan``, never a compile), and otherwise the program is
        compiled here. The duration of that plan work is ``compile_s``.
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
        dispatch = use_backend(backend) if backend is not None else nullcontext()
        start = time.perf_counter()
        with dispatch:
            if plan is not None:
                plan = plan.bind(program, params)
            elif cache is not None:
                plan = cache.get(program, params)
            else:
                plan = compile_program(program, params)
        return cls(
            program=program,
            params=params,
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

    :meth:`run` serializes requests on an internal lock; *all* bookkeeping
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
        self.pipeline = AthenaPipeline(
            core.params, seed=core.seed, backend=self.backend
        )
        self.keygen_s = time.perf_counter() - start
        self._lock = threading.Lock()
        self.requests = 0
        #: Fused pipeline executions (a k-lane batch is one run, k requests).
        self.runs = 0
        self.max_lanes = 0
        self.run_s = 0.0
        self.latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)

    @property
    def batch_capacity(self) -> int:
        """Lanes one ciphertext can carry through this session's plan."""
        return self.core.plan.batch_capacity

    def run(self, x_q: np.ndarray) -> np.ndarray:
        """One encrypted inference; returns centered integer outputs."""
        return self.run_batch([x_q])[0]

    def run_batch(self, xs: list[np.ndarray]) -> list[np.ndarray]:
        """One *fused* execution answering ``len(xs)`` requests at once.

        The inputs share a single ciphertext (lane count bounded by the
        plan's ``batch_capacity``), so the whole batch pays one five-step
        loop per layer; per-request amortized cost is ``run_s / requests``.
        A single-input batch is exactly the :meth:`run` op sequence.
        Returns one centered integer output array per input, in order.
        """
        return self.timed_batch(xs)[0]

    def timed_batch(self, xs: list[np.ndarray]) -> tuple[list[np.ndarray], float]:
        """:meth:`run_batch` plus the run's wall seconds, measured under
        the request lock (so waiting for another caller's run is excluded)."""
        core = self.core
        with self._lock:
            start = time.perf_counter()
            outs = self.pipeline.run_batch(core.program, xs, plan=core.plan)
            wall = time.perf_counter() - start
            self.requests += len(xs)
            self.runs += 1
            self.max_lanes = max(self.max_lanes, len(xs))
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
            max_lanes = self.max_lanes
        core = self.core
        return LayerStats(
            layer="session",
            requests=requests,
            counters={
                "runs": runs,
                "batch_capacity": self.batch_capacity,
                "max_lanes": max_lanes,
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
                "model": core.program.name,
                "model_hash": core.fingerprint,
                "backend": (
                    self.backend.name if self.backend is not None else None
                ),
            },
        )


class InferenceSession:
    """Compile once, run many: the warm-serving façade over the pipeline.

    Construction does all request-invariant work — plan compilation, a
    :class:`repro.serve.PlanCache` lookup, or binding a caller-supplied
    deserialized plan (the :class:`SessionCore`, its duration recorded as
    ``compile_s``) — then key generation and pipeline setup (the
    :class:`SessionRuntime`). Each :meth:`run` performs only ciphertext
    ops, timed by one clock pair under the runtime's lock (so ``compile_s``
    and per-request ``run_s`` never mix; a cold ``run_program`` instead
    carries its compile inside the call, under the backend's ``compile``
    phase).

    Requests are serialized by the runtime's lock — the pipeline's
    deterministic randomness is per-pipeline state. Outputs are
    bit-identical to a plan-free :meth:`AthenaPipeline.run_program` on the
    same pipeline state: the plan only moves operand derivation to compile
    time, never changing the homomorphic op sequence.

    ``backend`` pins this session's op dispatch (a
    :class:`repro.fhe.backend.Backend` instance or name). Selection is
    context-local, so concurrent sessions on *different* backends never
    interfere — the thread-safety claim above holds per session, not per
    process. A :class:`~repro.fhe.backend.CountingBackend` here turns every
    request into an executed-op trace (see ``session.backend.summary()``).

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
    def program(self) -> AthenaProgram:
        return self.core.program

    @property
    def params(self) -> FheParams:
        return self.core.params

    @property
    def plan(self) -> CompiledProgram:
        return self.core.plan

    @property
    def compile_s(self) -> float:
        return self.core.compile_s

    # -- runtime half ------------------------------------------------------

    @property
    def backend(self) -> Backend | None:
        return self.runtime.backend

    @property
    def pipeline(self) -> AthenaPipeline:
        return self.runtime.pipeline

    @property
    def requests(self) -> int:
        return self.runtime.requests

    @property
    def run_s(self) -> float:
        return self.runtime.run_s

    @property
    def latencies(self) -> deque[float]:
        return self.runtime.latencies

    def run(self, x_q: np.ndarray) -> np.ndarray:
        """One encrypted inference; returns centered integer outputs."""
        return self.runtime.run(x_q)

    def run_batch(self, xs: list[np.ndarray]) -> list[np.ndarray]:
        """Fused multi-image inference (see :meth:`SessionRuntime.run_batch`)."""
        return self.runtime.run_batch(xs)

    def stats(self) -> "LayerStats":
        """Session accounting in the uniform :class:`LayerStats` schema."""
        return self.runtime.stats()
