"""Scheduler layer: the asyncio front door of the serving stack.

:class:`FairScheduler` owns admission, ordering and batch formation — it
never touches ciphertexts or keys. Four properties, each load-bearing for
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
* **Fair dequeue** — batches are led round-robin (each leader comes from
  the next tenant in the ring that has work), so a deep queue for one
  tenant cannot starve the others regardless of arrival order.
* **Batches of lanes x ciphertexts** — one image of lane span S occupies
  coefficients [0, S) of an n-coefficient ciphertext, so ``n // S`` images
  ride one ciphertext and split its PMult, refresh chain, pack and S2C
  (:class:`repro.core.plan.LaneLayout`); lane-full ciphertexts then stack
  through one FBS, whose ladder pays per dispatch, not per pair.
  :meth:`FairScheduler.next_batch` fills a leader's ciphertext with
  requests of the same ``group_key`` — model *and* key domain
  (:meth:`repro.serve.Tenant.key_domain`) — waiting at most ``window_s``
  for those lanes only, then takes matching requests already queued as
  further ciphertexts, without waiting, up to ``shape(leader)`` (the
  plan's ``batch_capacity`` lanes times its ``stack_capacity``). Only
  matching queue heads are taken, so per-tenant FIFO order holds.

The scheduler is asyncio-native and single-loop: :meth:`submit` is called
from the event-loop thread (the service's ``submit`` coroutine),
:meth:`next_batch` is awaited by the service's dispatcher tasks. All queue
surgery happens synchronously on the loop, so concurrent dispatchers never
double-claim a request. :meth:`FairScheduler.stats` reports admissions,
sheds, queue depth, the queue-wait seconds summed over dequeued requests,
and the batch counters.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Callable, Hashable

from repro.errors import ParameterError, ServiceOverloaded
from repro.serve.api import InferenceRequest, LayerStats

__all__ = ["FairScheduler"]


class FairScheduler:
    """Bounded per-tenant FIFOs, round-robin leaders, stacked lane batches.

    ``group_key(request)`` is the compatibility key requests must share to
    ride one batch; ``shape(request)`` the ``(lanes, ciphertexts)`` a batch
    the request leads may hold — ``lanes * ciphertexts`` requests, at most;
    ``window_s`` how long a partial first ciphertext waits for late
    co-riders after its leader is dequeued.
    """

    def __init__(
        self,
        tenant_ids,
        capacity: int,
        group_key: Callable[[InferenceRequest], Hashable],
        shape: Callable[[InferenceRequest], tuple[int, int]],
        window_s: float = 0.0,
    ):
        tenant_ids = list(tenant_ids)
        if not tenant_ids:
            raise ParameterError("scheduler needs at least one tenant")
        if capacity < 1:
            raise ParameterError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.group_key = group_key
        self.shape = shape
        self.window_s = window_s
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
        self.batches = 0
        self.batched_requests = 0
        self.occupancy_max = 0
        self.window_waits = 0

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

    # -- batch formation ---------------------------------------------------

    def _stamp(self, request: InferenceRequest) -> InferenceRequest:
        request.dequeued_at = time.perf_counter()
        self.queue_wait_s += request.dequeued_at - request.enqueued_at
        return request

    def _take(
        self, match: Callable[[InferenceRequest], bool], limit: int
    ) -> list[InferenceRequest]:
        """Pop up to ``limit`` queue heads satisfying ``match``.

        Sweeps tenants round-robin (continuing the fairness ring) but pops
        only from queue *heads* and only while the head matches, so a
        tenant's requests complete in submission order whether or not they
        batch. Synchronous: the harvest is atomic on the loop.
        """
        taken: list[InferenceRequest] = []
        for _ in range(len(self._ring)):
            if len(taken) >= limit:
                break
            tenant_id = self._ring[0]
            self._ring.rotate(-1)
            queue = self._queues[tenant_id]
            while queue and len(taken) < limit and match(queue[0]):
                taken.append(self._stamp(queue.popleft()))
        return taken

    async def _wait(self, timeout: float | None) -> None:
        """Park until an admission or close, at most ``timeout`` seconds.

        A wakeup is a hint, not a claim: with several dispatchers on one
        event, callers re-sweep the queues afterwards either way.
        """
        self._wakeup.clear()
        if self.depth() or self._closed:
            # Admissions (or a close) between the caller's sweep and the clear.
            return
        try:
            await asyncio.wait_for(self._wakeup.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    async def next_batch(self) -> list[InferenceRequest] | None:
        """Await the next batch, fairly across tenants.

        The leader is the next request in round-robin order. Its
        ciphertext's remaining lanes fill from matching queue heads, then —
        while lanes remain — from requests admitted before
        ``leader.dequeued_at + window_s``; then matching heads already
        queued join as further ciphertexts, up to ``lanes * ciphertexts``
        requests. A one-lane leader never waits; a close cuts the window.
        Returns ``None`` once the scheduler is closed *and* drained — the
        dispatcher's signal to exit. Each admitted request is delivered
        exactly once across concurrent dispatchers.
        """
        while not (batch := self._take(lambda request: True, 1)):
            if self._closed:
                return None
            await self._wait(None)
        lead = batch[0]
        lanes, ciphertexts = self.shape(lead)
        key = self.group_key(lead)

        def matches(request: InferenceRequest) -> bool:
            return self.group_key(request) == key

        deadline = lead.dequeued_at + self.window_s
        while len(batch) < lanes:
            batch += self._take(matches, lanes - len(batch))
            remaining = deadline - time.perf_counter()
            if len(batch) >= lanes or remaining <= 0 or self._closed:
                break
            self.window_waits += 1
            await self._wait(remaining)
        batch += self._take(matches, lanes * ciphertexts - len(batch))
        self.batches += 1
        self.batched_requests += len(batch)
        self.occupancy_max = max(self.occupancy_max, len(batch))
        return batch

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
        """Admission, fairness and batch accounting in the layer schema."""
        mean = self.batched_requests / self.batches if self.batches else None
        return LayerStats(
            layer="scheduler",
            requests=self.accepted,
            counters={
                "accepted": self.accepted,
                "rejected": self.rejected,
                "queue_depth": self.depth(),
                "queue_depth_max": self.depth_max,
                "batches": self.batches,
                "occupancy_max": self.occupancy_max,
                "window_waits": self.window_waits,
            },
            timings={
                "queue_wait_s": round(self.queue_wait_s, 6),
                "window_s": self.window_s,
            },
            detail={
                "capacity_per_tenant": self.capacity,
                "per_tenant_depth": {
                    tid: len(q) for tid, q in self._queues.items()
                },
                "occupancy_mean": round(mean, 4) if mean is not None else None,
            },
        )
