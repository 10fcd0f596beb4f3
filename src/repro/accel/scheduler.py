"""Cycle scheduler: map an FHE op trace onto an accelerator configuration.

Model: each pipeline phase's latency is the *maximum* over its resource
demands (deeply pipelined units overlap within a phase), divided by the
architecture's calibrated efficiency factor:

    cycles(phase) = max(ntt, fru, automorph, extract, rnsconv,
                        scratchpad-BW, HBM-BW) / efficiency

with one exception that drives the paper's Fig. 8 result: FBS phases on
architectures *without* the two-region dataflow serialize the baby-step
(FRU-class elementwise) work against the giant-step (NTT/keyswitch) work,
so their FBS latency uses (fru + ntt + rnsconv) instead of the max.

Architectures without an SE unit get one "for ease of comparison", as the
paper does for Fig. 8 (extraction falls back to 1-per-cycle shifting).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accel.configs import AcceleratorConfig
from repro.core.trace import OpCounts, WorkloadTrace
from repro.errors import ScheduleError


@dataclass
class PhaseResult:
    phase: str
    layer: str
    cycles: float
    bound: str  # which resource bound this phase
    resource_cycles: dict[str, float] = field(default_factory=dict)


@dataclass
class ScheduleResult:
    accelerator: str
    model: str
    phases: list[PhaseResult]
    frequency_ghz: float

    @property
    def total_cycles(self) -> float:
        return sum(p.cycles for p in self.phases)

    @property
    def total_ms(self) -> float:
        return self.total_cycles / (self.frequency_ghz * 1e9) * 1e3

    def ms_by_phase(self) -> dict[str, float]:
        out: dict[str, float] = {}
        scale = 1.0 / (self.frequency_ghz * 1e9) * 1e3
        for p in self.phases:
            out[p.phase] = out.get(p.phase, 0.0) + p.cycles * scale
        return out


def _resource_cycles(
    ops: OpCounts, cfg: AcceleratorConfig, ring_n: int
) -> dict[str, float]:
    """Raw per-resource busy cycles for one phase's op counts."""
    # NTT units are deeply pipelined stream processors: a new limb-NTT can
    # be issued every N/lanes cycles (the radix only changes how many
    # pipeline passes — area — not steady-state throughput).
    ntt_c = ops.ntt * ring_n / cfg.ntt_butterflies
    fru_c = max(
        ops.mod_mul / cfg.mod_mul_tput,
        ops.mod_add / cfg.mod_add_tput,
    )
    auto_c = ops.automorph * ring_n / cfg.automorph_tput
    extract_tput = cfg.extract_tput if cfg.extract_tput > 0 else 1
    se_c = ops.extract / extract_tput
    rns_c = ops.rnsconv / cfg.rnsconv_tput
    # Memory: the FRU cascades MM into MA with register-file accumulators
    # and constant registers (paper Fig. 5), so a fused multiply-accumulate
    # streams ~one 4-byte word per MM+MA pair (~2 bytes per counted op);
    # NTT passes stream operands once per stage group.
    touched_bytes = (ops.mod_mul + ops.mod_add + ops.rnsconv) * 2 + ops.ntt * ring_n * 2
    scratch_bpc = cfg.scratchpad_bw_tbs * 1e12 / (cfg.frequency_ghz * 1e9)
    mem_c = touched_bytes / scratch_bpc
    hbm_bpc = cfg.hbm_bw_tbs * 1e12 / (cfg.frequency_ghz * 1e9)
    hbm_c = ops.hbm_bytes / hbm_bpc
    return {
        "ntt": ntt_c,
        "fru": fru_c,
        "automorph": auto_c,
        "se": se_c,
        "rnsconv": rns_c,
        "scratchpad": mem_c,
        "hbm": hbm_c,
    }


def schedule_phase(
    phase: str, ops: OpCounts, cfg: AcceleratorConfig, ring_n: int
) -> tuple[float, str, dict[str, float]]:
    res = _resource_cycles(ops, cfg, ring_n)
    if phase.endswith("_giant") and cfg.fbs_region_overlap:
        # Region 0 hosts only a fraction of the FRU array: the giant half's
        # elementwise and base-conversion work contend for that slice.
        res["fru"] = res["fru"] / cfg.giant_fru_fraction
        res["rnsconv"] = res["rnsconv"] / cfg.giant_fru_fraction
    if phase.endswith("_giant") and not cfg.fbs_region_overlap:
        # No two-region dataflow: the giant (CMult/NTT/base-conv) half
        # serializes against the baby half instead of hiding behind it.
        serial = res["fru"] + res["ntt"] + res["rnsconv"]
        candidates = {**res, "fbs-serial": serial}
        del candidates["fru"], candidates["ntt"], candidates["rnsconv"]
    else:
        candidates = dict(res)
    bound = max(candidates, key=candidates.get)  # type: ignore[arg-type]
    cycles = candidates[bound] / cfg.efficiency
    return cycles, bound, res


def schedule(trace: WorkloadTrace, cfg: AcceleratorConfig) -> ScheduleResult:
    if not trace.phases:
        raise ScheduleError("empty trace")
    ring_n = trace.params.n
    phases: list[PhaseResult] = []
    for p in trace.phases:
        cycles, bound, res = schedule_phase(p.phase, p.ops, cfg, ring_n)
        result = PhaseResult(p.phase, p.layer, cycles, bound, res)
        prev = phases[-1] if phases else None
        if (
            cfg.fbs_region_overlap
            and p.phase.endswith("_giant")
            and prev is not None
            and prev.layer == p.layer
            and p.phase == f"{prev.phase}_giant"
        ):
            # Two-region dataflow (paper Fig. 7): the baby (Region 1) and
            # giant (Region 0) halves run concurrently — latency is the max.
            merged = max(prev.cycles, cycles)
            prev.bound = prev.bound if prev.cycles >= cycles else bound
            prev.cycles = merged
            for k, v in res.items():
                prev.resource_cycles[k] = prev.resource_cycles.get(k, 0.0) + v
            continue
        phases.append(result)
    # Fold *_giant names back into their base phase for reporting.
    for p in phases:
        if p.phase.endswith("_giant"):
            p.phase = p.phase[: -len("_giant")]
    return ScheduleResult(cfg.name, trace.model, phases, cfg.frequency_ghz)
