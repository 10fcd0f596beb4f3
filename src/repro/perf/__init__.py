"""Executor configuration for the serving worker pool.

:class:`ExecConfig` — thread or process mode, worker count and the
backend every session a service builds pins. Counting and timing a run is
the job of :class:`repro.fhe.backend.CountingBackend`.
"""

from repro.perf.parallel import ExecConfig

__all__ = ["ExecConfig"]
