"""Design-choice ablations for the Athena accelerator.

The paper motivates four architectural decisions; this module quantifies
each by switching it off in the simulator:

* **two-region FBS dataflow** (Fig. 7) — without it, the baby (SMult/HAdd)
  and giant (CMult) halves of FBS serialize;
* **flexible per-layer LUT sizing** (§3.3) — without it, every FBS runs at
  the full t = 65537 table;
* **on-chip PRNG key regeneration** (§4.1) — without it, keyswitch keys
  stream both halves from HBM;
* **SE unit** (§4.2.3) — without the register shifter, extraction costs
  ~log2(N) barrel-shifter cycles per sample instead of ~1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.accel.baselines import calibrated_athena, reference_athena_trace
from repro.accel.scheduler import schedule
from repro.core.trace import WorkloadTrace


@dataclass(frozen=True)
class AblationResult:
    name: str
    baseline_ms: float
    ablated_ms: float

    @property
    def slowdown(self) -> float:
        return self.ablated_ms / self.baseline_ms


def _flexible_lut_pair(model: str) -> tuple[WorkloadTrace, WorkloadTrace]:
    """(flexible, fixed) traces: per-layer tables sized to Fig. 4-scale MAC
    ranges (~2^13) versus every FBS at the full t = 65537 table."""
    return (
        reference_athena_trace(model, t_cap=1 << 13),
        reference_athena_trace(model),
    )


def _double_key_traffic(trace: WorkloadTrace) -> WorkloadTrace:
    out = WorkloadTrace(trace.model, trace.params)
    for p in trace.phases:
        ops = p.ops.scaled(1.0)
        ops.hbm_bytes *= 2  # both key halves stream from HBM
        out.add(p.phase, p.layer, ops)
    return out


#: Cycles per extraction on the barrel shifter that replaces the SE unit:
#: ~log2(N) at the paper's N = 2^15.
_SHIFTER_CYCLES = 15.0


def _slow_extraction(trace: WorkloadTrace) -> WorkloadTrace:
    out = WorkloadTrace(trace.model, trace.params)
    for p in trace.phases:
        ops = p.ops.scaled(1.0)
        ops.extract *= _SHIFTER_CYCLES
        out.add(p.phase, p.layer, ops)
    return out


def run_ablations(model: str = "resnet20") -> list[AblationResult]:
    cfg = calibrated_athena()
    trace = reference_athena_trace(model)
    base = schedule(trace, cfg).total_ms
    results = [
        AblationResult(
            "no-two-region-dataflow",
            base,
            schedule(trace, replace(cfg, fbs_region_overlap=False)).total_ms,
        ),
        AblationResult(
            "no-flexible-lut",
            schedule(_flexible_lut_pair(model)[0], cfg).total_ms,
            schedule(_flexible_lut_pair(model)[1], cfg).total_ms,
        ),
        AblationResult(
            "no-prng-key-regen",
            base,
            schedule(_double_key_traffic(trace), cfg).total_ms,
        ),
        AblationResult(
            "no-se-unit",
            base,
            schedule(_slow_extraction(trace), cfg).total_ms,
        ),
    ]
    return results
