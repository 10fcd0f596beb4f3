"""Service façade: the serving layers composed into one deployment.

:class:`AthenaService` wires tenant registry -> scheduler -> batch
assembler -> worker pool over a shared (sharded) plan cache:

1. **tenant layer** (:mod:`repro.serve.tenant`) — who is served, under
   which parameters/seeds/backends, and what key material that implies.
2. **scheduler layer** (:mod:`repro.serve.scheduler`) — bounded per-tenant
   queues, synchronous admission control (reject/shed with
   :class:`~repro.errors.ServiceOverloaded`, payload carrying the tenant's
   queue depth), round-robin fair dequeue.
3. **batching layer** (:mod:`repro.serve.batching`) — groups compatible
   queued requests (same model + same key domain, including the
   shared-key fast path across tenants with identical params + seed) up to
   the plan's ``batch_capacity``, within a deadline-bounded window.
4. **worker layer** (:mod:`repro.serve.workers`) — warm
   ``(tenant, model)`` sessions behind an :class:`~repro.perf.ExecConfig`
   executor (serial/thread/process); a batch runs as *one* fused pipeline
   execution and is demultiplexed per lane.
5. **this façade** — model registration through the shared
   :class:`~repro.serve.cache.ShardedPlanCache`, the asyncio dispatch loop
   connecting the layers, the typed request/response API
   (:class:`~repro.serve.api.InferenceRequest` /
   :class:`~repro.serve.api.InferenceResult`), and aggregate stats in the
   uniform :class:`~repro.serve.api.LayerStats` schema.

The request path is ``result = await service.submit(InferenceRequest(...))``:
admission happens synchronously inside ``submit`` (a shed request raises
before any work starts); a dispatcher task — one per worker slot — then
assembles a batch, holds the slot for one ``transport_s`` window (the
per-connection ciphertext upload/download an FHE deployment pays — paid
*once per batch*, since co-batched clients upload concurrently on their own
connections while the slot waits out the longest), runs the fused
execution, and resolves every member's future with its
:class:`InferenceResult`.

Outputs are bit-identical to a direct
:meth:`repro.serve.InferenceSession.run` with the tenant's seed, provided
the per-runtime request order matches (each runtime's encryption
randomness is a deterministic stream) — ``serial``/single-worker pools
preserve submission order per tenant, which is what the equivalence tests
pin; the lane-packing geometry guarantees a batched lane computes the
identical function of the identical noise-margin, see
:class:`repro.core.plan.LaneLayout`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Iterable

import numpy as np

from repro.core.program import AthenaProgram, lower
from repro.errors import ParameterError
from repro.perf import ExecConfig
from repro.serve.api import InferenceRequest, InferenceResult, LayerStats
from repro.serve.batching import BatchAssembler, RequestBatch
from repro.serve.cache import PlanCache, ShardedPlanCache
from repro.serve.scheduler import FairScheduler
from repro.serve.session import SessionCore
from repro.serve.tenant import Tenant, TenantRegistry
from repro.serve.workers import WorkerPool

__all__ = ["AthenaService"]

class AthenaService:
    """Async multi-tenant inference service over warm sessions.

    Lifecycle: construct -> :meth:`register_model` (once per model) ->
    :meth:`start` -> any number of :meth:`submit` -> :meth:`stop`. The
    synchronous :meth:`serve_batch` wraps that whole cycle around one list
    of requests for callers without an event loop (CLI, tests).

    ``cache=None`` builds a memory-only :class:`ShardedPlanCache`, so
    co-located tenants still share compiled plans; pass a disk-backed
    cache to share them across processes and restarts.

    ``batching`` enables cross-request ciphertext batching (on by
    default; plans whose ``batch_capacity`` is 1 are unaffected either
    way). ``batch_window_s`` bounds how long a dispatcher holds a
    partially-filled batch open for late co-riders — 0 batches only what
    is already queued. ``max_batch`` caps lanes per batch below the
    plan's capacity.
    """

    def __init__(
        self,
        tenants: TenantRegistry | Iterable[Tenant],
        cache: PlanCache | None = None,
        exec_config: ExecConfig | None = None,
        queue_capacity: int = 8,
        transport_s: float = 0.0,
        batching: bool = True,
        batch_window_s: float = 0.05,
        max_batch: int | None = None,
    ):
        if isinstance(tenants, TenantRegistry):
            self.tenants = tenants
        else:
            self.tenants = TenantRegistry(tenants)
        if len(self.tenants) == 0:
            raise ParameterError("service needs at least one tenant")
        if transport_s < 0:
            raise ParameterError("transport window cannot be negative")
        if batch_window_s < 0:
            raise ParameterError("batch window cannot be negative")
        if max_batch is not None and max_batch < 1:
            raise ParameterError("max_batch must be >= 1")
        self.cache = cache if cache is not None else ShardedPlanCache(None)
        self.exec_config = (
            exec_config if exec_config is not None else ExecConfig("thread")
        )
        self.queue_capacity = queue_capacity
        self.transport_s = transport_s
        self.batching = batching
        self.batch_window_s = batch_window_s
        self.max_batch = max_batch
        self.models: dict[str, str] = {}  # name -> program fingerprint
        self._cores: dict[tuple[str, str], SessionCore] = {}
        self.pool: WorkerPool | None = None
        self.scheduler: FairScheduler | None = None
        self.assembler: BatchAssembler | None = None
        self._dispatchers: list[asyncio.Task] = []
        self._per_tenant_requests: dict[str, int] = {
            tid: 0 for tid in self.tenants.ids()
        }

    # -- model registration (compile once, share via the cache) ------------

    def register_model(self, name: str, model) -> str:
        """Compile ``model`` for every tenant; returns its fingerprint.

        ``model`` is a quantized model (lowered per tenant parameter set)
        or a pre-lowered :class:`AthenaProgram` (then every tenant must use
        its parameter set). Compilation goes through the shared plan cache,
        so the first tenant pays the compile and every further tenant with
        the same parameters gets a cache hit — the sharing the fingerprint
        sharding exists for.
        """
        if self.pool is not None:
            raise ParameterError("register models before start()")
        if name in self.models:
            raise ParameterError(f"model {name!r} already registered")
        fingerprint: str | None = None
        for tenant in self.tenants:
            if isinstance(model, AthenaProgram):
                if tenant.params != model.params:
                    raise ParameterError(
                        "pre-lowered programs require every tenant to use "
                        "the program's parameter set; register the "
                        "quantized model instead"
                    )
                program = model
            else:
                program = lower(model, tenant.params)
            core = SessionCore.build(
                program,
                tenant.params,
                seed=tenant.seed,
                cache=self.cache,
                backend=tenant.backend or self.exec_config.backend,
            )
            if fingerprint is None:
                fingerprint = core.fingerprint
            elif core.fingerprint != fingerprint:
                raise ParameterError(
                    f"model {name!r} lowers to different fingerprints "
                    "across tenants"
                )
            self._cores[(tenant.tenant_id, name)] = core
        self.models[name] = fingerprint
        return fingerprint

    # -- batching policy ---------------------------------------------------

    def _group_key(self, request: InferenceRequest) -> tuple:
        """Compatibility key: requests sharing it may share a ciphertext."""
        tenant = self.tenants.get(request.tenant_id)
        return (tenant.key_domain(), request.model)

    def _batch_capacity_for(self, request: InferenceRequest) -> int:
        """Lane budget for a batch led by ``request``."""
        if not self.batching:
            return 1
        capacity = self._cores[
            (request.tenant_id, request.model)
        ].plan.batch_capacity
        if self.max_batch is not None:
            capacity = min(capacity, self.max_batch)
        return max(1, capacity)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Warm the workers (keygen everywhere) and open the front door."""
        if self.pool is not None:
            raise ParameterError("service already started")
        if not self._cores:
            raise ParameterError("register at least one model before start()")
        self.pool = WorkerPool(self._cores, self.exec_config)
        self.pool.start()
        self.scheduler = FairScheduler(self.tenants.ids(), capacity=self.queue_capacity)
        self.assembler = BatchAssembler(
            self.scheduler,
            capacity_for=self._batch_capacity_for,
            group_key=self._group_key,
            window_s=self.batch_window_s if self.batching else 0.0,
        )
        self._dispatchers = [
            asyncio.create_task(self._dispatch())
            for _ in range(self.pool.slots)
        ]

    async def stop(self) -> None:
        """Drain the backlog, retire the dispatchers, stop the workers."""
        if self.scheduler is not None:
            self.scheduler.close()
        if self._dispatchers:
            await asyncio.gather(*self._dispatchers)
            self._dispatchers = []
        if self.pool is not None:
            self.pool.stop()

    async def _dispatch(self) -> None:
        """One worker slot's loop: assemble a batch -> transport -> run."""
        while True:
            batch = await self.assembler.next_batch()
            if batch is None:
                return
            dispatched_at = time.perf_counter()
            try:
                if self.transport_s:
                    # One transport window per *batch*: each member uploads
                    # on its own connection concurrently, so the slot waits
                    # out a single window regardless of lane count — the
                    # first amortization batching buys. Other slots keep
                    # computing meanwhile.
                    await asyncio.sleep(self.transport_s)
                lead = batch.lead
                outs = await self.pool.run_batch(
                    (lead.tenant_id, lead.model),
                    [request.x_q for request in batch.requests],
                )
                self._resolve(batch, outs, dispatched_at)
            except Exception as exc:  # noqa: BLE001 - delivered to callers
                delivered = False
                for request in batch.requests:
                    if not request.future.cancelled():
                        request.future.set_exception(exc)
                        delivered = True
                if not delivered:
                    raise

    def _resolve(
        self, batch: RequestBatch, outs: list, dispatched_at: float
    ) -> None:
        """Demultiplex one fused execution into per-request results."""
        done_at = time.perf_counter()
        run_s = done_at - dispatched_at - (self.transport_s or 0.0)
        for lane, (request, out) in enumerate(zip(batch.requests, outs)):
            self._per_tenant_requests[request.tenant_id] += 1
            dequeued_at = request.dequeued_at or dispatched_at
            result = InferenceResult(
                request_id=request.request_id,
                tenant_id=request.tenant_id,
                model=request.model,
                output=out,
                lane=lane,
                batch_size=batch.size,
                batch_id=batch.batch_id,
                timings={
                    "queue_wait_s": dequeued_at - request.enqueued_at,
                    "batch_wait_s": dispatched_at - dequeued_at,
                    "transport_s": self.transport_s,
                    "run_s": run_s,
                    "total_s": done_at - request.enqueued_at,
                },
            )
            if not request.future.cancelled():
                request.future.set_result(result)

    # -- request path ------------------------------------------------------

    def _admit(self, request: InferenceRequest) -> asyncio.Future:
        """Validate + enqueue; returns the request's result future."""
        if self.scheduler is None:
            raise ParameterError("service is not started")
        self.tenants.get(request.tenant_id)  # unknown-tenant check
        if (request.tenant_id, request.model) not in self._cores:
            raise ParameterError(
                f"model {request.model!r} is not registered; have: "
                f"{sorted(self.models)}"
            )
        request.x_q = np.asarray(request.x_q, dtype=np.int64)
        request.future = asyncio.get_running_loop().create_future()
        self.scheduler.submit(request)
        return request.future

    def submit_nowait(self, request: InferenceRequest) -> asyncio.Future:
        """Admit one request; returns the future resolving to its
        :class:`InferenceResult`.

        Raises :class:`~repro.errors.ServiceOverloaded` synchronously when
        the tenant's queue is full (the exception carries ``tenant_id`` /
        ``depth`` / ``capacity`` for client backoff) and
        :class:`ParameterError` for unknown tenants/models — in both cases
        nothing was queued.
        """
        if not isinstance(request, InferenceRequest):
            raise ParameterError(
                "submit_nowait takes an InferenceRequest (the positional "
                "(tenant_id, model, x_q) form was removed)"
            )
        return self._admit(request)

    async def submit(self, request: InferenceRequest) -> InferenceResult:
        """One encrypted inference through the full service path."""
        return await self.submit_nowait(request)

    # -- synchronous convenience -------------------------------------------

    def serve_batch(self, requests: list) -> list:
        """Start, answer ``requests`` concurrently, stop; results in order.

        ``requests`` is a list of :class:`InferenceRequest`; results are
        the matching :class:`InferenceResult` objects. The whole batch is
        admitted up front, so the per-tenant queue bound must cover each
        tenant's share of the batch — size ``queue_capacity`` accordingly
        or submissions raise :class:`~repro.errors.ServiceOverloaded`
        exactly as they would against a live overloaded service.
        """
        for request in requests:
            # Fail fast, before start() keygens the workers: a malformed
            # batch must not consume a one-shot service lifecycle.
            if not isinstance(request, InferenceRequest):
                raise ParameterError(
                    "serve_batch takes InferenceRequest objects (the "
                    "positional (tenant_id, model, x_q) form was removed)"
                )

        async def _run() -> list:
            await self.start()
            try:
                futures = [self.submit_nowait(req) for req in requests]
                return list(await asyncio.gather(*futures))
            finally:
                await self.stop()

        return asyncio.run(_run())

    # -- accounting --------------------------------------------------------

    def stats(self) -> LayerStats:
        """Deployment accounting across all layers, uniform schema.

        ``detail`` nests each layer's own :class:`LayerStats` (as dicts)
        under ``scheduler`` / ``batcher`` / ``workers``, plus the tenant
        table, model fingerprints, and plan-cache counters.
        ``counters["amortized_run_s"]`` is pool run seconds over requests
        served — the cost-per-inference batching amortizes.
        """
        served = sum(self._per_tenant_requests.values())
        detail: dict = {
            "tenants": {
                tenant.tenant_id: {
                    "params": tenant.params.name,
                    "backend": tenant.backend,
                    "requests": self._per_tenant_requests[tenant.tenant_id],
                    "key_material_mb": round(
                        tenant.key_material_bytes() / 2**20, 3
                    ),
                }
                for tenant in self.tenants
            },
            "models": dict(self.models),
            "plan_cache": self.cache.stats(),
            "batching": {
                "enabled": self.batching,
                "window_s": self.batch_window_s,
                "max_batch": self.max_batch,
            },
        }
        counters: dict = {
            "queue_capacity": self.queue_capacity,
        }
        timings: dict = {"transport_s": self.transport_s}
        if self.scheduler is not None:
            detail["scheduler"] = self.scheduler.stats().to_dict()
        if self.assembler is not None:
            detail["batcher"] = self.assembler.stats().to_dict()
        if self.pool is not None:
            pool_stats = self.pool.stats()
            detail["workers"] = pool_stats.to_dict()
            run_s = pool_stats.timings.get("run_s", 0.0)
            counters["amortized_run_s"] = (
                round(run_s / served, 6) if served else None
            )
        return LayerStats(
            layer="service",
            requests=served,
            counters=counters,
            timings=timings,
            detail=detail,
        )
