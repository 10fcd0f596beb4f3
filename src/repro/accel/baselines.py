"""Calibrated full-system runs: Table 6/7, Fig. 8/9/10/11.

Methodology (mirrors the paper's §5.1): every architecture gets exactly one
calibration constant — its ``efficiency`` — fitted so its *ResNet-20*
latency matches the value its own paper (or, for Athena, this paper)
reports. Everything else (the other three benchmarks, phase breakdowns,
cross-deployment runs, energy) is then model-predicted. The uncalibrated
model predictions are also exposed for honesty checks in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np

from repro.accel.configs import (
    ATHENA_ACCEL,
    BASELINES,
    AcceleratorConfig,
    by_name,
)
from repro.accel.energy import energy_for
from repro.accel.scheduler import ScheduleResult, schedule
from repro.accel.workload import MODEL_NAMES, ckks_trace
from repro.core.trace import WorkloadTrace, trace_model
from repro.fhe.params import ATHENA as ATHENA_PARAMS

#: Published ResNet-20 latencies (ms) used as calibration anchors
#: (baselines: their own papers, as collected in this paper's Table 6;
#: Athena: this paper's Table 6, w7a7).
CALIBRATION_ANCHORS_MS = {
    "craterlake": 321.0,
    "ark": 125.0,
    "bts": 1910.0,
    "sharp": 99.0,
    "athena": 65.5,
}

#: The paper's full Table 6 for comparison in reports (ms).
PAPER_TABLE6 = {
    "craterlake": {"lenet": 182, "mnist_cnn": 35, "resnet20": 321, "resnet56": 946},
    "ark": {"lenet": 71, "mnist_cnn": 14, "resnet20": 125, "resnet56": 368},
    "bts": {"lenet": 1084, "mnist_cnn": 206, "resnet20": 1910, "resnet56": 5627},
    "sharp": {"lenet": 56, "mnist_cnn": 11, "resnet20": 99, "resnet56": 292},
    "athena-w7a7": {"lenet": 26.6, "mnist_cnn": 9.2, "resnet20": 65.5, "resnet56": 198.7},
    "athena-w6a7": {"lenet": 24.1, "mnist_cnn": 7.3, "resnet20": 54.9, "resnet56": 157.8},
}

#: The paper's Table 7 (EDP, J*s).
PAPER_TABLE7 = {
    "craterlake": {"lenet": 3.73, "mnist_cnn": 0.42, "resnet20": 11.61, "resnet56": 100.86},
    "ark": {"lenet": 0.64, "mnist_cnn": 0.138, "resnet20": 1.99, "resnet56": 17.25},
    "bts": {"lenet": 193.46, "mnist_cnn": 6.987, "resnet20": 600.6, "resnet56": 5213},
    "sharp": {"lenet": 0.31, "mnist_cnn": 0.012, "resnet20": 0.96, "resnet56": 8.36},
    "athena-w7a7": {"lenet": 0.056, "mnist_cnn": 0.008, "resnet20": 0.35, "resnet56": 3.32},
    "athena-w6a7": {"lenet": 0.050, "mnist_cnn": 0.005, "resnet20": 0.24, "resnet56": 1.96},
}


@lru_cache(maxsize=None)
def calibrated_baseline(name: str) -> AcceleratorConfig:
    """Baseline config with efficiency fitted on its published ResNet-20."""
    cfg = by_name(name)
    raw = schedule(ckks_trace("resnet20"), replace(cfg, efficiency=1.0))
    target = CALIBRATION_ANCHORS_MS[name]
    eff = raw.total_ms / target
    return replace(cfg, efficiency=eff)


def baseline_run(name: str, model: str) -> ScheduleResult:
    """CKKS pipeline of ``model`` on a calibrated baseline accelerator."""
    return schedule(ckks_trace(model), calibrated_baseline(name))


@lru_cache(maxsize=1)
def _athena_calibration() -> float:
    """Athena efficiency fitted on the paper's ResNet-20 (w7a7) using a
    reference ResNet-20 trace with Fig. 4-scale MAC peaks."""
    trace = reference_athena_trace("resnet20")
    raw = schedule(trace, replace(ATHENA_ACCEL, efficiency=1.0))
    return raw.total_ms / CALIBRATION_ANCHORS_MS["athena"]


def calibrated_athena() -> AcceleratorConfig:
    return replace(ATHENA_ACCEL, efficiency=_athena_calibration())


@lru_cache(maxsize=None)
def reference_athena_trace(model: str, t_cap: int | None = None) -> WorkloadTrace:
    """Athena trace for a benchmark model built from its architecture alone
    (weights untrained; MAC peaks set to Fig. 4-representative 2^14)."""
    from repro.data import synthetic_cifar, synthetic_digits
    from repro.quant.models import build
    from repro.quant.quantize import QuantConfig, quantize_model

    rng = np.random.default_rng(7)
    if model in ("mnist_cnn", "lenet"):
        calib, _ = synthetic_digits(8, rng)
    else:
        calib, _ = synthetic_cifar(8, rng)
    net = build(model, rng=np.random.default_rng(11))
    qm = quantize_model(net, calib, QuantConfig(7, 7), model)
    # Representative Fig. 4 MAC scale; precision sweeps shift it via t_cap
    # (MAC peaks track the quantization range the cap encodes).
    peak = (t_cap // 2) if t_cap else (1 << 14)
    for layer in qm.mac_layers():
        layer.mac_peak = peak
    return trace_model(qm, ATHENA_PARAMS, t_eff=t_cap)


def athena_run(model: str) -> ScheduleResult:
    """Athena-accelerator run of ``model``'s reference trace."""
    return schedule(reference_athena_trace(model), calibrated_athena())


def athena_run_w6a7(model: str) -> ScheduleResult:
    """w6a7 mode: smaller accumulations => smaller effective LUTs (the paper
    halves the MAC range with 6-bit weights, emulated by capping t at 2^14)."""
    return schedule(reference_athena_trace(model, t_cap=1 << 14), calibrated_athena())


def table6(models: tuple[str, ...] = MODEL_NAMES) -> dict[str, dict[str, float]]:
    """Regenerate Table 6: latency (ms) per accelerator per benchmark."""
    out: dict[str, dict[str, float]] = {}
    for name in [cfg.name for cfg in BASELINES]:
        out[name] = {m: baseline_run(name, m).total_ms for m in models}
    out["athena-w7a7"] = {m: athena_run(m).total_ms for m in models}
    out["athena-w6a7"] = {m: athena_run_w6a7(m).total_ms for m in models}
    return out


def table7(models: tuple[str, ...] = MODEL_NAMES) -> dict[str, dict[str, float]]:
    """Regenerate Table 7: EDP (J*s)."""
    out: dict[str, dict[str, float]] = {}
    for name in [cfg.name for cfg in BASELINES]:
        cfg = calibrated_baseline(name)
        out[name] = {
            m: energy_for(baseline_run(name, m), cfg).edp for m in models
        }
    cfg = calibrated_athena()
    out["athena-w7a7"] = {
        m: energy_for(athena_run(m), cfg).edp for m in models
    }
    out["athena-w6a7"] = {
        m: energy_for(athena_run_w6a7(m), cfg).edp for m in models
    }
    return out


def edap(models: tuple[str, ...] = MODEL_NAMES) -> dict[str, dict[str, float]]:
    """Fig. 11: EDP x area."""
    table = table7(models)
    out: dict[str, dict[str, float]] = {}
    for name, row in table.items():
        area = (
            ATHENA_ACCEL.area_mm2 if name.startswith("athena") else by_name(name).area_mm2
        )
        out[name] = {m: v * area for m, v in row.items()}
    return out


def cross_deployment(model: str = "resnet20") -> dict[str, float]:
    """Fig. 8: the *Athena framework* deployed on SHARP / CraterLake vs the
    Athena accelerator.

    Baselines get an SE unit for free, per the paper, and all three designs
    are scheduled with the *same* efficiency factor so the comparison
    isolates architecture (unit mix, dataflow) rather than the CKKS-fitted
    utilization constants.
    """
    trace = reference_athena_trace(model)
    eff = _athena_calibration()
    out = {"athena": schedule(trace, calibrated_athena()).total_ms}
    for name in ("sharp", "craterlake"):
        cfg = replace(by_name(name), efficiency=eff)
        out[name] = schedule(trace, cfg).total_ms
    return out
