"""Performance instrumentation and parallel execution for the pipeline.

- :class:`PerfRecorder` — phase wall-times + op counters, attachable to
  :class:`repro.core.framework.AthenaPipeline` and
  :func:`repro.core.program.run_program`.
- :class:`ExecConfig` / :class:`ParallelMap` — serial/thread/process map
  over independent work items, driven by ``REPRO_EXECUTOR``/``REPRO_WORKERS``.
"""

from repro.perf.parallel import ExecConfig, ParallelMap
from repro.perf.recorder import PerfRecorder

__all__ = ["ExecConfig", "ParallelMap", "PerfRecorder"]
