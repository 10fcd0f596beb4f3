"""Parallel execution for the pipeline.

:class:`ExecConfig` / :class:`ParallelMap` — serial/thread/process map over
independent work items, driven by ``REPRO_EXECUTOR``/``REPRO_WORKERS``.
Counting and timing a run is the job of
:class:`repro.fhe.backend.CountingBackend`.
"""

from repro.perf.parallel import ExecConfig, ParallelMap

__all__ = ["ExecConfig", "ParallelMap"]
