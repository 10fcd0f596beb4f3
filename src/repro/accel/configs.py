"""Accelerator configurations: Athena (paper §4, Tables 8-9) and the four
published baselines (CraterLake, ARK, BTS, SHARP) as architectural models.

Each configuration carries:

* compute resources as *throughputs* (elements or butterflies per cycle) —
  the natural abstraction for these deeply pipelined designs;
* the memory system (scratchpad capacity + bandwidth, HBM);
* area and power, which for the baselines are their published totals and
  for Athena the paper's Table 9 breakdown (these are *inputs* from RTL
  synthesis, see DESIGN.md substitution #1);
* an ``efficiency`` scalar: the single per-architecture calibration factor
  that absorbs scheduling/utilization effects our cycle model does not
  capture. It is fitted once on ResNet-20 (the only benchmark all baseline
  papers report) and then every other number is model-predicted.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class UnitSpec:
    """One compute-unit class with an area/power share."""

    name: str
    area_mm2: float
    power_w: float


@dataclass(frozen=True)
class AcceleratorConfig:
    name: str
    frequency_ghz: float
    lanes: int  # SIMD width of the vector datapath
    # compute throughputs (per cycle, aggregate over all unit instances)
    ntt_butterflies: int  # butterfly ops per cycle
    mod_mul_tput: int  # elementwise modular multipliers
    mod_add_tput: int  # elementwise modular adders
    automorph_tput: int  # elements per cycle through automorphism units
    extract_tput: int  # sample extractions per cycle (0 = unsupported)
    rnsconv_tput: int  # base-conversion elements per cycle
    # memory system
    scratchpad_mb: float
    scratchpad_reg_mb: float  # register-file style second-level (Table 8 "+x MB")
    scratchpad_bw_tbs: float
    hbm_gb: float
    hbm_bw_tbs: float
    # totals
    area_mm2: float
    power_w: float
    # calibration
    efficiency: float = 1.0
    #: True when the FBS baby (FRU) and giant (NTT/CMult) halves can run in
    #: separate regions concurrently (paper Fig. 7 dataflow).
    fbs_region_overlap: bool = False
    #: Fraction of the FRU/base-conversion throughput living in Region 0
    #: (the giant-step region) when the two-region dataflow is active.
    giant_fru_fraction: float = 1.0
    units: tuple[UnitSpec, ...] = field(default=())


#: Athena accelerator (paper §4.1-4.2, Tables 8 and 9).
#: 2048 lanes; 256 radix-8 NTT units (2048 data/cycle); 17 FRU blocks with
#: 2048 MM + 2048 MA each (1 in region 0, 16 in region 1); 8 automorphism
#: cores of parallelism 256; SE register shifter ~1 extraction/cycle.
ATHENA_UNITS = (
    UnitSpec("automorphism", 3.8, 3.0),
    UnitSpec("prng", 1.2, 1.9),
    UnitSpec("ntt", 4.51, 3.9),
    UnitSpec("se", 0.32, 0.94),
    UnitSpec("fru", 42.6, 89.1),
    UnitSpec("noc", 5.9, 7.8),
    UnitSpec("register_file", 8.4, 4.9),
    UnitSpec("scratchpad", 20.1, 4.8),
    UnitSpec("hbm", 29.6, 31.8),
)

ATHENA_ACCEL = AcceleratorConfig(
    name="athena",
    frequency_ghz=1.0,
    lanes=2048,
    ntt_butterflies=2048,
    mod_mul_tput=17 * 2048,
    mod_add_tput=17 * 2048,
    automorph_tput=2048,
    extract_tput=2,
    rnsconv_tput=17 * 2048,
    scratchpad_mb=45,
    scratchpad_reg_mb=15,
    scratchpad_bw_tbs=180,
    hbm_gb=16,
    hbm_bw_tbs=1,
    area_mm2=116.4,
    power_w=148.1,
    efficiency=0.55,
    fbs_region_overlap=True,
    giant_fru_fraction=1.0 / 17.0,  # Region 0 holds 1 of the 17 FRU blocks
    units=ATHENA_UNITS,
)

#: CraterLake [38]: 2048-lane vector design, huge CRB (RNS base conversion)
#: array (2048 x 60 MACs), 256+26 MB scratchpad at 84 TB/s.
CRATERLAKE = AcceleratorConfig(
    name="craterlake",
    frequency_ghz=1.0,
    lanes=2048,
    ntt_butterflies=2048,
    mod_mul_tput=2048 * 5,  # vector FUs; CRB MACs are base-conversion-only
    mod_add_tput=2048 * 5,
    automorph_tput=2048,
    extract_tput=0,
    rnsconv_tput=2048 * 60,
    scratchpad_mb=256,
    scratchpad_reg_mb=26,
    scratchpad_bw_tbs=84,
    hbm_gb=16,
    hbm_bw_tbs=1,
    area_mm2=222.7,
    power_w=207.0,
    efficiency=1.0,
)

#: ARK [23]: runtime data generation, large 512+76 MB scratchpad.
ARK = AcceleratorConfig(
    name="ark",
    frequency_ghz=1.0,
    lanes=4096,
    ntt_butterflies=4096,
    mod_mul_tput=4096 * 2,
    mod_add_tput=4096 * 2,
    automorph_tput=4096,
    extract_tput=0,
    rnsconv_tput=4096 * 12,
    scratchpad_mb=512,
    scratchpad_reg_mb=76,
    scratchpad_bw_tbs=92,
    hbm_gb=16,
    hbm_bw_tbs=1,
    area_mm2=418.3,
    power_w=281.3,
    efficiency=1.0,
)

#: BTS [24]: bootstrapping-oriented but bandwidth-hungry design.
BTS = AcceleratorConfig(
    name="bts",
    frequency_ghz=1.2,
    lanes=2048,
    ntt_butterflies=1024,
    mod_mul_tput=2048,
    mod_add_tput=2048,
    automorph_tput=2048,
    extract_tput=0,
    rnsconv_tput=2048 * 2,
    scratchpad_mb=512,
    scratchpad_reg_mb=22,
    scratchpad_bw_tbs=330,
    hbm_gb=16,
    hbm_bw_tbs=1,
    area_mm2=373.6,
    power_w=133.8,
    efficiency=1.0,
)

#: SHARP [22]: short-word (36-bit) design, best published CKKS efficiency.
SHARP = AcceleratorConfig(
    name="sharp",
    frequency_ghz=1.0,
    lanes=2048,
    ntt_butterflies=2048 * 2,
    mod_mul_tput=2048 * 2,  # BConv MACs support only base conversion
    mod_add_tput=2048 * 2,
    automorph_tput=2048 * 2,
    extract_tput=0,
    rnsconv_tput=2048 * 16,
    scratchpad_mb=180,
    scratchpad_reg_mb=18,
    scratchpad_bw_tbs=72,
    hbm_gb=16,
    hbm_bw_tbs=1,
    area_mm2=178.8,
    # Power is not published for SHARP; estimated by area-scaling
    # CraterLake's 207 W / 222.7 mm^2 density with a short-word discount.
    power_w=133.0,
    efficiency=1.0,
)

BASELINES = (CRATERLAKE, ARK, BTS, SHARP)
ALL_CONFIGS = (ATHENA_ACCEL,) + BASELINES


def by_name(name: str) -> AcceleratorConfig:
    for cfg in ALL_CONFIGS:
        if cfg.name == name:
            return cfg
    raise KeyError(f"unknown accelerator {name!r}")
