"""Warm inference serving: compile once, run many, serve many tenants.

The deployment loop the paper assumes — a datacenter holding models and
answering streams of encrypted requests — splits into a one-time compile
(:func:`repro.core.plan.compile_program`) and per-request ciphertext ops.
This package layers that split into a service:

* **session** — :class:`SessionCore` (the picklable compile-time half) +
  :class:`SessionRuntime` (keys, pipeline, request lock, p50/p99 stats);
  :class:`InferenceSession` remains the single-tenant façade over one of
  each.
* **cache** — :class:`ShardedPlanCache`: crash-safe, fingerprint-sharded
  on-disk plan persistence behind an in-memory layer shared by tenants
  running the same model.
* **tenant** — :class:`Tenant` / :class:`TenantRegistry`: per-tenant
  parameters, keygen seeds, and key-inventory sizing.
* **api** — the typed request path: :class:`InferenceRequest` /
  :class:`InferenceResult`, plus the uniform :class:`LayerStats` schema
  every layer's ``stats()`` returns.
* **scheduler** — :class:`FairScheduler`: bounded per-tenant queues,
  reject/shed admission control (:class:`repro.errors.ServiceOverloaded`,
  carrying the offending tenant's queue depth), round-robin fair dequeue,
  and cross-request batches (same model + key domain): lanes bounded by
  the plan's ``batch_capacity`` with a deadline-bounded window, times
  already-queued ciphertexts bounded by its ``stack_capacity``.
* **workers** — :class:`WorkerPool`: warm ``(tenant, model)`` sessions
  behind thread or process executors with per-worker key material.
* **service** — :class:`AthenaService`: the asyncio façade composing all
  of the above (``repro serve`` on the CLI).
"""

from repro.serve.api import InferenceRequest, InferenceResult, LayerStats
from repro.serve.cache import ShardedPlanCache
from repro.serve.scheduler import FairScheduler
from repro.serve.service import AthenaService
from repro.serve.session import InferenceSession, SessionCore, SessionRuntime
from repro.serve.tenant import Tenant, TenantRegistry
from repro.serve.workers import WorkerPool

__all__ = [
    "AthenaService",
    "FairScheduler",
    "InferenceRequest",
    "InferenceResult",
    "InferenceSession",
    "LayerStats",
    "SessionCore",
    "SessionRuntime",
    "ShardedPlanCache",
    "Tenant",
    "TenantRegistry",
    "WorkerPool",
]
