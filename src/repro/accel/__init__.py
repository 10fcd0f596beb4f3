"""Cycle-level accelerator simulator: Athena + published baselines."""

from repro.accel.baselines import (
    PAPER_TABLE6,
    PAPER_TABLE7,
    athena_run,
    baseline_run,
    calibrated_athena,
    calibrated_baseline,
    cross_deployment,
    edap,
    table6,
    table7,
)
from repro.accel.configs import (
    ALL_CONFIGS,
    ARK,
    ATHENA_ACCEL,
    BASELINES,
    BTS,
    CRATERLAKE,
    SHARP,
    AcceleratorConfig,
    by_name,
)
from repro.accel.ablation import AblationResult, run_ablations
from repro.accel.energy import EnergyResult, energy_for
from repro.accel.report import bound_census, phase_summary, render_schedule
from repro.accel.sensitivity import lane_sweep, precision_sweep_perf
from repro.accel.scheduler import ScheduleResult, schedule
from repro.accel.workload import ckks_trace

__all__ = [
    "ALL_CONFIGS",
    "ARK",
    "ATHENA_ACCEL",
    "BASELINES",
    "BTS",
    "CRATERLAKE",
    "PAPER_TABLE6",
    "PAPER_TABLE7",
    "SHARP",
    "AblationResult",
    "AcceleratorConfig",
    "EnergyResult",
    "ScheduleResult",
    "athena_run",
    "baseline_run",
    "by_name",
    "calibrated_athena",
    "calibrated_baseline",
    "ckks_trace",
    "cross_deployment",
    "edap",
    "energy_for",
    "bound_census",
    "phase_summary",
    "schedule",
    "render_schedule",
    "run_ablations",
    "lane_sweep",
    "precision_sweep_perf",
    "table6",
    "table7",
]
