"""Athena core: coefficient encoding, LUTs, five-step loop, inference engines."""

from repro.core.encoding import (
    TABLE2_SHAPES,
    ConvShape,
    EncodingPlan,
    athena_plan,
    cheetah_plan,
    conv_via_coefficients,
)
from repro.core.framework import AthenaPipeline, CiphertextExecutor
from repro.core.keyinventory import build_inventory, summarize as key_summary
from repro.core.inference import (
    AthenaNoiseModel,
    InferenceStats,
    SimulatedAthenaEngine,
)
from repro.core.lut import activation_lut, relu_lut, remap_lut
from repro.core.program import (
    AthenaProgram,
    LinearStep,
    LutSpec,
    PlainIntExecutor,
    PoolStep,
    ProgramExecutor,
    RemapStep,
    ReshapeStep,
    ResidualStep,
    lower,
    run_program,
)
from repro.core.trace import WorkloadTrace, trace_model

__all__ = [
    "TABLE2_SHAPES",
    "AthenaNoiseModel",
    "AthenaPipeline",
    "AthenaProgram",
    "CiphertextExecutor",
    "ConvShape",
    "EncodingPlan",
    "InferenceStats",
    "LinearStep",
    "LutSpec",
    "PlainIntExecutor",
    "PoolStep",
    "ProgramExecutor",
    "RemapStep",
    "ReshapeStep",
    "ResidualStep",
    "build_inventory",
    "key_summary",
    "lower",
    "run_program",
    "SimulatedAthenaEngine",
    "WorkloadTrace",
    "activation_lut",
    "athena_plan",
    "cheetah_plan",
    "conv_via_coefficients",
    "relu_lut",
    "remap_lut",
    "trace_model",
]
