"""Worker layer: warm per-model sessions behind a pluggable executor.

:class:`WorkerPool` keeps many requests in flight under one
:class:`repro.perf.ExecConfig`: the unit of work is a whole inference
request and the pool state is a table of warm sessions keyed by
``(tenant_id, model)``.

The session split (:class:`repro.serve.session.SessionCore` /
``SessionRuntime``) is what makes the process mode work: cores are plain
picklable data, so the pool ships them to each worker process once at
startup (initializer), where every worker builds its own runtimes — its
own key material, derived deterministically from each tenant's seed — and
answers requests warm from the first one. Backend pinning rides on the
same mechanism: each core carries the config's backend (a *name* in
process mode), and the runtime installs it around keygen and every run.

Executor modes (:class:`repro.perf.ExecConfig`):

* ``thread``  — a :class:`ThreadPoolExecutor`; all threads share one
  runtime per ``(tenant, model)`` (serialized by the runtime's lock), so
  concurrency comes from *different* tenants/models computing at once and
  from numpy releasing the GIL inside large kernels. One thread keeps each
  tenant's requests in submission order: ``("thread", 1)`` is what the
  bit-identity tests pin.
* ``process`` — a :class:`ProcessPoolExecutor` with warm per-process
  runtimes: true parallelism, at the cost of one keygen per tenant per
  worker at startup.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, wait

from repro.errors import ParameterError
from repro.perf import ExecConfig
from repro.serve.api import LayerStats
from repro.serve.session import SessionCore, SessionRuntime

__all__ = ["WorkerPool"]

#: Warm state of one worker *process*: built once by :func:`_process_init`
#: from the pickled core table, then reused for every request this worker
#: answers. Keys are ``(tenant_id, model)``.
_PROCESS_RUNTIMES: dict[tuple[str, str], SessionRuntime] | None = None


def _process_init(payload: bytes) -> None:
    """Per-process initializer: unpickle cores, keygen, warm every session."""
    global _PROCESS_RUNTIMES
    cores: dict[tuple[str, str], SessionCore] = pickle.loads(payload)
    _PROCESS_RUNTIMES = {key: SessionRuntime(core) for key, core in cores.items()}


def _process_run_batch(key, xs):
    """One fused batch inside a worker process; returns (outputs, seconds)."""
    return _PROCESS_RUNTIMES[key].timed_batch(xs)


def _process_pid() -> int:
    """Warmup probe — forces worker spawn (and thus keygen) at start()."""
    return os.getpid()


class WorkerPool:
    """A pool of workers answering requests from warm sessions.

    ``cores`` maps ``(tenant_id, model)`` to the picklable compile-time
    half of a session; :meth:`start` materializes the runtime half — in
    this process for thread mode, in every worker process for
    process mode — so no request ever pays keygen or compile.
    """

    def __init__(
        self,
        cores: dict[tuple[str, str], SessionCore],
        config: ExecConfig | None = None,
    ):
        if not cores:
            raise ParameterError("worker pool needs at least one session core")
        self.cores = dict(cores)
        self.config = config if config is not None else ExecConfig("thread")
        self._executor = None
        self._runtimes: dict[tuple[str, str], SessionRuntime] | None = None
        self._requests: dict[tuple[str, str], int] = {k: 0 for k in self.cores}
        self.run_s = 0.0
        #: Seconds :meth:`start` spent spawning workers and generating keys.
        self.start_s = 0.0
        #: Fused executions dispatched (a k-request batch counts once).
        self.runs = 0
        self.started = False

    @property
    def slots(self) -> int:
        """Concurrent request slots: the worker count."""
        return self.config.effective_workers

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Generate keys and warm every session before the first request."""
        if self.started:
            return
        start = time.perf_counter()
        if self.config.mode == "process":
            payload = pickle.dumps(self.cores)
            self._executor = ProcessPoolExecutor(
                max_workers=self.slots,
                initializer=_process_init,
                initargs=(payload,),
            )
            # Force all workers to spawn now: their initializers run keygen
            # for every tenant, so steady-state requests start warm.
            probes = [
                self._executor.submit(_process_pid) for _ in range(self.slots)
            ]
            wait(probes)
        else:
            self._runtimes = {
                key: SessionRuntime(core) for key, core in self.cores.items()
            }
            self._executor = ThreadPoolExecutor(max_workers=self.slots)
        self.start_s += time.perf_counter() - start
        self.started = True

    def stop(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.started = False

    # -- request execution -------------------------------------------------

    def _run_local_batch(self, key, xs):
        return self._runtimes[key].timed_batch(xs)

    async def run_batch(self, key, xs):
        """Answer ``len(xs)`` co-batched requests with one fused execution.

        Awaitable from the service's dispatcher tasks: the event loop is
        free while the worker computes. Returns one output array per input,
        in order; a single request is a batch of one.
        """
        if not self.started:
            raise ParameterError("worker pool is not started")
        if key not in self.cores:
            raise ParameterError(f"no session for tenant/model {key!r}")
        fn = (
            _process_run_batch
            if self.config.mode == "process"
            else self._run_local_batch
        )
        loop = asyncio.get_running_loop()
        outs, run_s = await loop.run_in_executor(self._executor, fn, key, xs)
        self._requests[key] += len(xs)
        self.runs += 1
        self.run_s += run_s
        return outs

    # -- accounting --------------------------------------------------------

    def runtime_for(self, key) -> SessionRuntime:
        """The warm in-process runtime for ``key`` (thread mode).

        Process-mode runtimes live in the worker processes and are not
        reachable from the parent; tests asserting on key material or
        per-runtime stats use thread pools.
        """
        if self._runtimes is None:
            raise ParameterError(
                "runtimes live in worker processes in process mode"
            )
        return self._runtimes[key]

    def stats(self) -> LayerStats:
        """Pool accounting in the uniform layer schema."""
        detail: dict = {
            "mode": self.config.mode,
            "per_session_requests": {
                f"{tenant}/{model}": count
                for (tenant, model), count in sorted(self._requests.items())
            },
        }
        if self._runtimes is not None:
            detail["sessions"] = {
                f"{tenant}/{model}": runtime.stats().to_dict()
                for (tenant, model), runtime in sorted(self._runtimes.items())
            }
        return LayerStats(
            layer="workers",
            requests=sum(self._requests.values()),
            counters={"workers": self.slots, "runs": self.runs},
            timings={
                "run_s": round(self.run_s, 6),
                "start_s": round(self.start_s, 6),
            },
            detail=detail,
        )
