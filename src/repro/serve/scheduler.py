"""Scheduler layer: the asyncio front door of the serving stack.

:class:`FairScheduler` owns admission and ordering, nothing else — it
never touches ciphertexts or keys. Three properties, each load-bearing for
a multi-tenant deployment:

* **Bounded queues** — each tenant gets its own FIFO of at most
  ``capacity`` pending requests. Admission is synchronous: a request
  either enters its tenant's queue or is shed immediately with
  :class:`repro.errors.ServiceOverloaded` (carrying the tenant's live
  queue depth so clients can back off proportionally), so callers always
  know whether work was started and backpressure propagates to the edge
  instead of growing an unbounded backlog.
* **Tenant isolation** — the bound is *per tenant*, so one tenant
  flooding the service exhausts only its own queue space; other tenants'
  requests are still admitted.
* **Fair dequeue** — workers drain tenants round-robin (each dequeue
  serves the next tenant in the ring that has work), so a deep queue for
  one tenant cannot starve the others regardless of arrival order.

The scheduler is asyncio-native and single-loop: :meth:`submit` is called
from the event-loop thread (the service's ``submit`` coroutine),
:meth:`next_request` is awaited by the service's dispatcher tasks. The
batch assembler additionally uses :meth:`take_matching` (harvest queued
requests compatible with a forming batch, preserving per-tenant FIFO
order) and :meth:`wait_for_activity` (bounded wait for new admissions
inside a batch window). :meth:`FairScheduler.stats` reports admissions,
sheds, queue depth and the queue-wait seconds summed over dequeued
requests.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Callable

from repro.errors import ParameterError, ServiceOverloaded
from repro.serve.api import InferenceRequest, LayerStats

__all__ = ["FairScheduler"]


class FairScheduler:
    """Bounded per-tenant FIFOs with round-robin fair dequeue."""

    def __init__(self, tenant_ids, capacity: int = 8):
        tenant_ids = list(tenant_ids)
        if not tenant_ids:
            raise ParameterError("scheduler needs at least one tenant")
        if capacity < 1:
            raise ParameterError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._queues: dict[str, deque[InferenceRequest]] = {
            tid: deque() for tid in tenant_ids
        }
        #: Fairness ring: rotated one tenant per dequeue.
        self._ring: deque[str] = deque(tenant_ids)
        self._wakeup = asyncio.Event()
        self._closed = False
        self.accepted = 0
        self.rejected = 0
        self.depth_max = 0
        self.queue_wait_s = 0.0

    # -- admission ---------------------------------------------------------

    def submit(self, request: InferenceRequest) -> None:
        """Admit ``request`` or shed it with :class:`ServiceOverloaded`.

        Synchronous and loop-thread only; a rejected request was never
        queued, so no worker will ever see it.
        """
        if self._closed:
            raise ServiceOverloaded("scheduler is closed")
        try:
            queue = self._queues[request.tenant_id]
        except KeyError:
            raise ParameterError(
                f"unknown tenant {request.tenant_id!r}"
            ) from None
        if len(queue) >= self.capacity:
            self.rejected += 1
            raise ServiceOverloaded(
                f"tenant {request.tenant_id!r} queue is full "
                f"({self.capacity} pending)",
                tenant_id=request.tenant_id,
                depth=len(queue),
                capacity=self.capacity,
            )
        request.enqueued_at = time.perf_counter()
        queue.append(request)
        self.accepted += 1
        self.depth_max = max(self.depth_max, self.depth())
        self._wakeup.set()

    # -- dequeue -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def _stamp(self, request: InferenceRequest) -> InferenceRequest:
        request.dequeued_at = time.perf_counter()
        self.queue_wait_s += request.dequeued_at - request.enqueued_at
        return request

    def _pop_next(self) -> InferenceRequest | None:
        """One round-robin sweep: the next tenant with work, else None."""
        for _ in range(len(self._ring)):
            tenant_id = self._ring[0]
            self._ring.rotate(-1)
            queue = self._queues[tenant_id]
            if queue:
                return queue.popleft()
        return None

    async def next_request(self) -> InferenceRequest | None:
        """Await the next request, fairly across tenants.

        Returns ``None`` once the scheduler is closed *and* drained — the
        dispatcher's signal to exit. Multiple dispatcher tasks may await
        this concurrently; each admitted request is delivered exactly once.
        """
        while True:
            request = self._pop_next()
            if request is not None:
                return self._stamp(request)
            if self._closed:
                return None
            self._wakeup.clear()
            # Re-check after clearing: a submit between the sweep above and
            # the clear would otherwise be parked until the next wakeup.
            request = self._pop_next()
            if request is not None:
                return self._stamp(request)
            if self._closed:
                return None
            await self._wakeup.wait()

    def take_matching(
        self,
        match: Callable[[InferenceRequest], bool],
        limit: int,
    ) -> list[InferenceRequest]:
        """Harvest up to ``limit`` queued requests satisfying ``match``.

        Used by the batch assembler to fill the remaining lanes of a
        forming batch. Sweeps tenants round-robin (continuing the fairness
        ring) but pops only from queue *heads* and only while the head
        matches — per-tenant FIFO order is never reordered, so a tenant's
        requests complete in submission order whether or not they batch.
        Synchronous: no awaits, so the harvest is atomic on the loop.
        """
        taken: list[InferenceRequest] = []
        if limit <= 0:
            return taken
        for _ in range(len(self._ring)):
            if len(taken) >= limit:
                break
            tenant_id = self._ring[0]
            self._ring.rotate(-1)
            queue = self._queues[tenant_id]
            while queue and len(taken) < limit and match(queue[0]):
                taken.append(self._stamp(queue.popleft()))
        return taken

    async def wait_for_activity(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for a new admission (or close).

        Returns True if woken by activity, False on timeout. Callers must
        re-sweep the queues afterwards either way: with several waiters on
        one event, a wakeup is a hint, not a claim.
        """
        if timeout <= 0 or self._closed:
            return self._closed
        self._wakeup.clear()
        if self.depth() or self._closed:
            # Admissions between the caller's sweep and the clear.
            return True
        try:
            await asyncio.wait_for(self._wakeup.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    # -- lifecycle / accounting --------------------------------------------

    def close(self) -> None:
        """Stop admitting; waiters drain the backlog, then receive None."""
        self._closed = True
        self._wakeup.set()

    def depth(self, tenant_id: str | None = None) -> int:
        """Requests currently queued (one tenant, or all)."""
        if tenant_id is not None:
            return len(self._queues[tenant_id])
        return sum(len(q) for q in self._queues.values())

    def stats(self) -> LayerStats:
        """Admission/fairness accounting in the uniform layer schema."""
        return LayerStats(
            layer="scheduler",
            requests=self.accepted,
            counters={
                "accepted": self.accepted,
                "rejected": self.rejected,
                "queue_depth": self.depth(),
                "queue_depth_max": self.depth_max,
            },
            timings={"queue_wait_s": round(self.queue_wait_s, 6)},
            detail={
                "capacity_per_tenant": self.capacity,
                "per_tenant_depth": {
                    tid: len(q) for tid, q in self._queues.items()
                },
            },
        )
