"""Human-readable reports from schedule results: phase timeline (an ASCII
Gantt) and bound-type census.

Used by the examples and handy when exploring new models or configs:

    >>> from repro.accel import athena_run
    >>> from repro.accel.report import render_schedule
    >>> print(render_schedule(athena_run("resnet20")))
"""

from __future__ import annotations

from collections import Counter

from repro.accel.scheduler import ScheduleResult
from repro.eval.render import render_table

_PHASE_ORDER = ("linear", "se", "packing", "fbs", "s2c", "pooling", "softmax")

#: Characters of the timeline bar a whole schedule spans.
_BAR_WIDTH = 40


def phase_summary(result: ScheduleResult) -> list[tuple[str, float, float]]:
    """(phase, ms, share) sorted by the canonical pipeline order."""
    by_phase = result.ms_by_phase()
    total = sum(by_phase.values()) or 1.0
    ordered = [p for p in _PHASE_ORDER if p in by_phase]
    ordered += [p for p in by_phase if p not in ordered]
    return [(p, by_phase[p], by_phase[p] / total) for p in ordered]


def bound_census(result: ScheduleResult) -> dict[str, float]:
    """Fraction of cycles bound by each resource type."""
    total = result.total_cycles or 1.0
    census: Counter = Counter()
    for p in result.phases:
        census[p.bound] += p.cycles
    return {k: v / total for k, v in census.items()}


def render_schedule(result: ScheduleResult) -> str:
    """ASCII report: Gantt-style phase bars + bound census."""
    summary = phase_summary(result)
    rows = []
    for phase, ms, share in summary:
        bar = "#" * max(1, round(share * _BAR_WIDTH))
        rows.append((phase, f"{ms:.2f}", f"{share * 100:.1f}%", bar))
    header = (
        f"{result.accelerator} / {result.model}: "
        f"{result.total_ms:.1f} ms @ {result.frequency_ghz:.1f} GHz"
    )
    table = render_table(["phase", "ms", "share", "timeline"], rows, header)
    census = bound_census(result)
    bound_line = "bound by: " + ", ".join(
        f"{k} {v * 100:.0f}%" for k, v in sorted(census.items(), key=lambda x: -x[1])
    )
    return table + "\n" + bound_line
