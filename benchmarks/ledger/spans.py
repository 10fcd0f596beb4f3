"""Outside-in spans: a ``Backend`` wrapper that times every protocol call.

:class:`SpanBackend` follows the delegate pattern of the program's own
``CountingBackend``: it forwards each protocol method to an inner backend
and records ``(name, start, end, parent, iteration)`` on a thread-local
stack. Composite ops (``fbs``, ``matvec``, ``s2c``) re-enter the *active*
backend for their sub-ops, so with a ``SpanBackend`` installed the spans
nest exactly as the calls do; the fused ops are dispatch-free and appear as
leaves. A span's self time is its duration minus its direct children's.

Spans stay in memory (:class:`SpanLog`) until the benchmark ends.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

from repro.fhe.backend import BATCHED, Backend

#: Every op of the ``Backend`` protocol, by tier. Instrumentation hooks
#: (``record`` / ``phase``) stay the base-class no-ops.
RNS_OPS = ("add", "sub", "neg", "mul", "ntt", "mul_ntt", "scalar_mul",
           "inv_scalar", "automorphism", "shift", "mod_switch")
FUSED_OPS = ("hadd_many", "keyswitch", "rotate_keyswitch", "giant_step_batch")
LWE_OPS = ("sample_extract", "lwe_keyswitch", "lwe_rescale")
COMPOSITE_OPS = ("matvec", "fbs", "s2c")
PROTOCOL_OPS = RNS_OPS + FUSED_OPS + LWE_OPS + COMPOSITE_OPS

#: Name of the root span the harness opens around one whole operation.
ROOT = "run"
NO_PARENT = -1


class SpanLog:
    """In-memory span store shared by a backend wrapper and the harness.

    Column-wise (five parallel lists of strings, floats and ints): ten
    thousand spans an inference as ten thousand small lists would each be a
    garbage-collector-tracked object, and the collections they trigger cost
    more than the spans do.
    """

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.iteration: list[int] = []
        #: Stamped on every span opened from now on; ``root()`` advances it.
        self.current = 0
        self._tls = threading.local()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.name)

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        tls = self._tls
        try:
            stack = tls.stack
        except AttributeError:
            stack = tls.stack = []
        with self._lock:  # one index per span, whichever thread opens it
            index = len(self.name)
            self.name.append(name)
            self.parent.append(stack[-1] if stack else NO_PARENT)
            self.iteration.append(self.current)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter()
            stack.pop()

    def root(self, fn, *args, **kwargs):
        """Call ``fn`` inside a root span: one harness-side iteration."""
        self.current += 1
        return self.span(ROOT, fn, *args, **kwargs)

    def duration(self, index: int) -> float:
        return self.end[index] - self.start[index]

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w") as fh:
            for index in range(len(self)):
                fh.write(json.dumps({
                    "id": index, "name": self.name[index],
                    "start": self.start[index], "end": self.end[index],
                    "parent": self.parent[index],
                    "iteration": self.iteration[index],
                }) + "\n")

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus direct children's durations."""
        out = [self.duration(index) for index in range(len(self))]
        for index, parent in enumerate(self.parent):
            if parent != NO_PARENT:
                out[parent] -= self.duration(index)
        return out

    def aggregate(self) -> dict[int, dict[str, dict[str, float]]]:
        """``iteration -> name -> {calls, total_s, self_s}``.

        Adds one synthetic name, ``pack``: ``matvec`` spans with no ``s2c``
        ancestor (the packing matvec, as opposed to the two inside S2C).
        """
        out: dict[int, dict[str, dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        )
        for index, self_s in enumerate(self.self_times()):
            names = [self.name[index]]
            if names[0] == "matvec":
                parent = self.parent[index]
                while parent != NO_PARENT and self.name[parent] != "s2c":
                    parent = self.parent[parent]
                if parent == NO_PARENT:
                    names.append("pack")
            for name in names:
                row = out[self.iteration[index]][name]
                row["calls"] += 1
                row["total_s"] += self.duration(index)
                row["self_s"] += self_s
        return out


class SpanBackend(Backend):
    """Time every protocol call of ``inner`` into ``log``; change nothing."""

    name = "span"

    def __init__(self, log: SpanLog, inner: Backend = BATCHED):
        self.log = log
        self.inner = inner

    @property
    def rns_name(self) -> str:
        return self.inner.rns_name


def _delegate(op: str):
    def method(self, *args, **kwargs):
        return self.log.span(op, getattr(self.inner, op), *args, **kwargs)

    method.__name__ = op
    return method


for _op in PROTOCOL_OPS:
    setattr(SpanBackend, _op, _delegate(_op))
