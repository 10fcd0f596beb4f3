"""Executor configuration for the serving worker pool (:class:`ExecConfig`).

Two modes: ``thread`` (the default) and ``process``. One worker is a pool
of one thread, not a mode of its own.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ParameterError

if TYPE_CHECKING:
    from repro.fhe.backend import Backend

_MODES = ("thread", "process")


@dataclass(frozen=True)
class ExecConfig:
    """How :class:`repro.serve.workers.WorkerPool` runs requests: executor
    mode, worker count, and the backend every session built under it pins.

    ``backend`` is a :func:`repro.fhe.backend.get_backend` name
    (``batched``, ``serial`` or ``counting``), a backend instance, or
    ``None`` to inherit the ambient default (``REPRO_BACKEND``, else
    ``batched``). Process mode pickles every session core to its
    workers, so it takes a name only; an instance (a shared
    ``CountingBackend``, say) is accepted in thread mode.
    """

    mode: str = "thread"
    workers: int | None = None
    backend: Backend | str | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ParameterError(
                f"executor mode must be one of {_MODES}, got {self.mode!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ParameterError(f"worker count must be >= 1, got {self.workers}")
        if self.backend is not None:
            if self.mode == "process" and not isinstance(self.backend, str):
                raise ParameterError(
                    "process workers need a backend name, got a "
                    f"{type(self.backend).__name__} instance"
                )
            # Validate eagerly: an unknown name raises ParameterError.
            from repro.fhe.backend import get_backend

            get_backend(self.backend)

    @property
    def effective_workers(self) -> int:
        return self.workers if self.workers is not None else (os.cpu_count() or 1)
