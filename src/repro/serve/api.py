"""Typed request/response surface of the serving stack.

The serving layers used to pass ``(tenant_id, model, x_q)`` tuples and
return bare output arrays; cross-user batching makes that shape lossy — a
response now has an identity (which request), a position (which lane of
which batch), and a cost story (how long it queued, waited for co-batched
peers, and ran). This module is the single place those shapes live:

* :class:`InferenceRequest` — what a client submits. Carries its own
  request id and admission timestamp; the scheduler annotates it in
  place as it moves through the stack.
* :class:`InferenceResult` — what a client gets back: the output plus the
  lane/batch placement and a per-request timing breakdown.
* :class:`LayerStats` — the one schema-versioned stats shape every layer
  (scheduler, sessions, worker pool, service) reports
  through, so every consumer reads a uniform ``to_dict()`` instead of
  three divergent ad-hoc dicts.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

#: Version of the ``LayerStats.to_dict`` schema. Bump when keys move.
STATS_SCHEMA_VERSION = 1

_REQUEST_IDS = itertools.count(1)
_BATCH_IDS = itertools.count(1)


def next_request_id() -> str:
    """Process-unique request id (monotonic, human-greppable)."""
    return f"req-{next(_REQUEST_IDS):06d}"


def next_batch_id() -> str:
    """Process-unique batch id, same shape as request ids."""
    return f"batch-{next(_BATCH_IDS):06d}"


@dataclass
class InferenceRequest:
    """One client inference request flowing through the service.

    ``request_id`` and ``enqueued_at`` are stamped at construction,
    ``dequeued_at`` and ``future`` by the scheduler/service; none is an
    argument. Mutable on purpose: the same object travels queue -> batch ->
    worker, accumulating its timeline.
    """

    tenant_id: str
    model: str
    x_q: np.ndarray
    request_id: str = field(init=False, default_factory=next_request_id)
    enqueued_at: float = field(init=False, default_factory=time.perf_counter)
    #: When the scheduler pulled the request off its queue into a batch.
    dequeued_at: float | None = field(init=False, default=None, repr=False)
    #: Resolved with an :class:`InferenceResult` (set at admission).
    future: asyncio.Future | None = field(
        init=False, default=None, repr=False, compare=False
    )


@dataclass(frozen=True)
class InferenceResult:
    """The service's answer to one :class:`InferenceRequest`.

    ``lane`` is the request's position inside its ciphertext;
    ``batch_size`` how many requests shared the fused execution, every
    stacked ciphertext counted (1 = ran solo); ``batch_id`` names it.
    ``timings`` holds the per-request wall-clock breakdown in seconds:
    ``queue_wait_s`` (admission to dequeue), ``batch_wait_s`` (dequeue to
    dispatch — the deadline-bounded window spent waiting for co-batched
    peers), ``transport_s`` (the modeled ciphertext upload/download window,
    paid once per batch), ``run_s`` (fused pipeline execution), and
    ``total_s`` (admission to completion).
    """

    request_id: str
    tenant_id: str
    model: str
    output: np.ndarray
    lane: int = 0
    batch_size: int = 1
    batch_id: str = ""
    timings: dict = field(default_factory=dict)


@dataclass
class LayerStats:
    """Uniform per-layer accounting: one schema for every serving layer.

    ``layer`` names the reporting layer (``scheduler`` / ``session`` /
    ``workers`` / ``service``), ``requests`` counts the requests that layer
    fully processed, ``counters`` holds integer/float event counts,
    ``timings`` wall-clock aggregates in seconds, and ``detail`` arbitrary
    nested context (per-tenant maps, nested layer stats). :meth:`to_dict`
    is the JSON-ready form; its key set is pinned by
    :data:`STATS_SCHEMA_VERSION`.
    """

    layer: str
    requests: int = 0
    counters: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "layer": self.layer,
            "requests": self.requests,
            "counters": dict(self.counters),
            "timings": {
                k: (round(v, 6) if isinstance(v, float) else v)
                for k, v in self.timings.items()
            },
            "detail": dict(self.detail),
        }
