"""Lightweight performance counters for the execution engine.

:class:`PerfRecorder` accumulates wall-time per named phase plus arbitrary
op counters. It is attachable to :class:`repro.core.framework.AthenaPipeline`
and :func:`repro.core.program.run_program`.

Contract: phases opened through :meth:`phase` at the same nesting level are
disjoint, so their durations sum to (at most) the enclosing wall time; the
test suite pins this accounting. The recorder is thread-safe — the parallel
fan-out of :class:`repro.perf.parallel.ParallelMap` may close phases from
worker threads.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class PerfRecorder:
    """Wall-time per phase + op counters, accumulated across ops."""

    phase_s: dict[str, float] = field(default_factory=dict)
    ops: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    _wall: float = field(default=0.0, repr=False)
    _wall_started: float | None = field(default=None, repr=False)

    @contextmanager
    def phase(self, name: str):
        """Time a code region under ``name`` (re-entrant across calls)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.phase_s[name] = self.phase_s.get(name, 0.0) + elapsed

    @contextmanager
    def run(self):
        """Time one top-level run; phases recorded inside nest under it."""
        start = time.perf_counter()
        self._wall_started = start
        try:
            yield
        finally:
            with self._lock:
                self._wall += time.perf_counter() - start
                self._wall_started = None

    def count(self, name: str, k: int = 1) -> None:
        with self._lock:
            self.ops[name] = self.ops.get(name, 0) + k

    def add_time(self, name: str, seconds: float) -> None:
        """Credit an externally-measured duration to a phase."""
        with self._lock:
            self.phase_s[name] = self.phase_s.get(name, 0.0) + seconds

    @property
    def wall_s(self) -> float:
        """Total wall time: explicit run() spans, else the phase sum."""
        return self._wall if self._wall else self.total_phase_s

    @property
    def total_phase_s(self) -> float:
        return sum(self.phase_s.values())

    def reset(self) -> None:
        with self._lock:
            self.phase_s.clear()
            self.ops.clear()
            self._wall = 0.0

    def summary(self) -> dict:
        """JSON-ready snapshot."""
        return {
            "wall_s": round(self.wall_s, 6),
            "phase_s": {k: round(v, 6) for k, v in sorted(self.phase_s.items())},
            "ops": dict(sorted(self.ops.items())),
        }

    def merge(self, other: "PerfRecorder") -> None:
        """Fold another recorder's counters into this one.

        ``other`` is snapshotted under its own lock first (it may still be
        receiving counts from worker threads), then folded in under ours —
        the two locks are never held together, so concurrent cross-merges
        cannot deadlock.
        """
        if other is self:
            return
        with other._lock:
            phase_s = dict(other.phase_s)
            ops = dict(other.ops)
            wall = other._wall
        with self._lock:
            for k, v in phase_s.items():
                self.phase_s[k] = self.phase_s.get(k, 0.0) + v
            for k, v in ops.items():
                self.ops[k] = self.ops.get(k, 0) + v
            self._wall += wall

    # Recorders cross process-executor boundaries (a worker returns its
    # private recorder for the parent to merge); the lock itself cannot be
    # pickled, so it is dropped in transit and recreated on arrival.
    def __getstate__(self) -> dict:
        with self._lock:
            return {
                "phase_s": dict(self.phase_s),
                "ops": dict(self.ops),
                "_wall": self._wall,
            }

    def __setstate__(self, state: dict) -> None:
        self.phase_s = state["phase_s"]
        self.ops = state["ops"]
        self._wall = state["_wall"]
        self._wall_started = None
        self._lock = threading.Lock()
