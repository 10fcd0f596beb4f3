"""Energy / EDP / EDAP models (paper §5.3, Tables 7, Fig. 10-11).

Athena's energy is activity-based: each unit class contributes its Table 9
peak power for the cycles it is busy (from the scheduler's per-resource
accounting) plus an idle/leakage floor; HBM traffic is charged per byte
(HBM2E, ~31 pJ/B) on top of its background power. Baselines, whose
microarchitectural activity we do not model at unit granularity, are
charged published peak power times a utilization factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accel.configs import ATHENA_ACCEL, AcceleratorConfig
from repro.accel.scheduler import ScheduleResult

#: Mapping from scheduler resource names to Athena Table 9 unit names.
_RESOURCE_UNIT = {
    "ntt": "ntt",
    "fru": "fru",
    "automorph": "automorphism",
    "se": "se",
    "rnsconv": "fru",  # base conversion runs on the FRU array
    "scratchpad": "scratchpad",
    "hbm": "hbm",
}

HBM_PJ_PER_BYTE = 31.0
IDLE_FRACTION = 0.08  # leakage + clock tree as a fraction of peak
#: Average datapath occupancy of a busy compute unit (not every MM/MA lane
#: toggles every busy cycle; Table 9 powers are peak).
COMPUTE_ACTIVITY = 0.4
BASELINE_UTILIZATION = 0.7


@dataclass
class EnergyResult:
    accelerator: str
    model: str
    time_ms: float
    energy_j: float
    breakdown_j: dict[str, float]

    @property
    def edp(self) -> float:
        """Energy-delay product in J*s (the paper's Table 7 metric)."""
        return self.energy_j * self.time_ms / 1e3


def athena_energy(result: ScheduleResult, cfg: AcceleratorConfig = ATHENA_ACCEL) -> EnergyResult:
    """Activity-based energy from per-resource busy cycles.

    Busy cycles come from the *raw* resource model, so they are rescaled to
    wall-clock (the calibrated efficiency affects time, and unit activity
    scales with it); per-unit busy time is capped at total runtime. The
    memory system (scratchpad, register files, HBM background + per-byte)
    is charged for the whole run — this is what produces the paper's
    Fig. 10 "memory is ~half the energy" split.
    """
    unit_power = {u.name: u.power_w for u in cfg.units}
    total_s = result.total_ms / 1e3
    # Aggregate raw busy cycles per *unit* (several resources share the FRU).
    raw_unit_cycles: dict[str, float] = {}
    raw_total = 0.0
    hbm_bytes = 0.0
    for phase in result.phases:
        for resource, cyc in phase.resource_cycles.items():
            if resource == "hbm":
                hbm_bytes += cyc * cfg.hbm_bw_tbs * 1e12 / (cfg.frequency_ghz * 1e9)
                continue
            unit = _RESOURCE_UNIT.get(resource)
            if unit in ("scratchpad", None):
                continue
            raw_unit_cycles[unit] = raw_unit_cycles.get(unit, 0.0) + cyc
        raw_total += max(phase.resource_cycles.values(), default=0.0)
    scale = (result.total_ms * 1e6 * cfg.frequency_ghz) / raw_total if raw_total else 0.0
    breakdown: dict[str, float] = {}
    for unit, cycles in raw_unit_cycles.items():
        busy_s = min(cycles * scale / (cfg.frequency_ghz * 1e9), total_s)
        breakdown[unit] = unit_power.get(unit, 0.0) * busy_s * COMPUTE_ACTIVITY
    # Memory system + support fabric run for the duration of the inference.
    for unit in ("scratchpad", "register_file", "noc", "prng"):
        breakdown[unit] = unit_power.get(unit, 0.0) * total_s
    breakdown["hbm"] = (
        unit_power.get("hbm", 0.0) * total_s + hbm_bytes * HBM_PJ_PER_BYTE * 1e-12
    )
    breakdown["idle"] = cfg.power_w * IDLE_FRACTION * total_s
    energy = sum(breakdown.values())
    return EnergyResult(cfg.name, result.model, result.total_ms, energy, breakdown)


def baseline_energy(result: ScheduleResult, cfg: AcceleratorConfig) -> EnergyResult:
    """Peak-power x utilization model for the published baselines."""
    total_s = result.total_ms / 1e3
    energy = cfg.power_w * BASELINE_UTILIZATION * total_s
    return EnergyResult(
        cfg.name, result.model, result.total_ms, energy, {"total": energy}
    )


def energy_for(result: ScheduleResult, cfg: AcceleratorConfig) -> EnergyResult:
    if cfg.units:
        return athena_energy(result, cfg)
    return baseline_energy(result, cfg)
