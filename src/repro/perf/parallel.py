"""Executor abstraction for embarrassingly-parallel pipeline stages.

The five-step loop of the Athena pipeline is independent per output
ciphertext, and the evaluation sweeps are independent per model.
:class:`ParallelMap` gives those call sites one ``map`` entry point whose
backend — serial loop, thread pool, or process pool — is chosen by an
:class:`ExecConfig`, normally built from the environment:

- ``REPRO_EXECUTOR`` in ``{"serial", "thread", "process"}`` (default serial)
- ``REPRO_WORKERS``  worker count (default ``os.cpu_count()``)

Serial is the default because at test-scale parameters the numpy kernels
are faster than pool startup; the thread backend helps once per-item work
dominates (numpy releases the GIL inside large ufuncs), and the process
backend needs picklable functions (module-level, not closures).
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence, TypeVar

from repro.errors import ParameterError

T = TypeVar("T")
R = TypeVar("R")

_MODES = ("serial", "thread", "process")


@dataclass(frozen=True)
class ExecConfig:
    """How a ParallelMap runs: executor mode, worker count, and the default
    op-dispatch backend *name* for the work it fans out.

    ``backend`` is a :func:`repro.fhe.backend.get_backend` name
    (``"batched"``, ``"serial"`` or ``"counting"``) or ``None`` to inherit
    the ambient default. It is carried as a string so the config stays
    picklable across process pools. Precedence at a serve
    call site: an explicit per-tenant pin (``Tenant.backend``) wins over
    this config's backend, which wins over the ``REPRO_BACKEND``
    environment default, which wins over the built-in ``"batched"``.
    """

    mode: str = "serial"
    workers: int | None = None
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ParameterError(
                f"executor mode must be one of {_MODES}, got {self.mode!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ParameterError(f"worker count must be >= 1, got {self.workers}")
        if self.backend is not None:
            # Validate eagerly (unknown names raise ParameterError) but keep
            # only the name: instances are context-local, names pickle.
            from repro.fhe.backend import get_backend

            get_backend(self.backend)

    @classmethod
    def from_env(cls, env: dict[str, str] | None = None) -> "ExecConfig":
        """Build from ``REPRO_EXECUTOR`` / ``REPRO_WORKERS`` / ``REPRO_BACKEND``
        (os.environ default)."""
        env = os.environ if env is None else env
        mode = env.get("REPRO_EXECUTOR", "serial").strip().lower() or "serial"
        raw = env.get("REPRO_WORKERS", "").strip()
        workers = int(raw) if raw else None
        backend = env.get("REPRO_BACKEND", "").strip().lower() or None
        return cls(mode=mode, workers=workers, backend=backend)

    @property
    def effective_workers(self) -> int:
        return self.workers if self.workers is not None else (os.cpu_count() or 1)


class ParallelMap:
    """Order-preserving map over independent items with a pluggable backend."""

    def __init__(self, config: ExecConfig | None = None):
        self.config = config if config is not None else ExecConfig.from_env()

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item, returning results in input order.

        A single-item (or empty) input short-circuits to the serial path so
        callers never pay pool startup for degenerate fan-outs.

        Thread mode propagates the caller's :mod:`contextvars` context into
        each worker invocation (one fresh copy per item — a Context object
        cannot be entered concurrently), so context-local state such as the
        active :func:`repro.fhe.backend.use_backend` selection follows the
        fan-out. Process mode cannot (contexts are not picklable); code
        needing a specific backend across processes must install it inside
        the mapped function, as :class:`AthenaPipeline`'s methods do.
        """
        items = list(items)
        mode = self.config.mode
        if mode == "serial" or len(items) <= 1:
            return [fn(item) for item in items]
        workers = min(self.config.effective_workers, len(items))
        if mode == "thread":
            tasks = [(contextvars.copy_context(), item) for item in items]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(partial(_ctx_apply, fn), tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))

    def starmap(self, fn: Callable[..., R], items: Iterable[Sequence]) -> list[R]:
        return self.map(partial(_star_apply, fn), list(items))


def _star_apply(fn: Callable[..., R], args: Sequence) -> R:
    """Module-level splat helper so starmap stays picklable for process pools."""
    return fn(*args)


def _ctx_apply(fn: Callable[[T], R], task: tuple) -> R:
    """Run one mapped item inside the caller's copied contextvars context."""
    ctx, item = task
    return ctx.run(fn, item)
