"""Athena reproduction: quantized CNN inference under FHE + accelerator sim.

Subpackages:

* :mod:`repro.fhe` — BFV/LWE cryptographic substrate
* :mod:`repro.quant` — quantized CNN training/inference framework
* :mod:`repro.data` — synthetic dataset generators
* :mod:`repro.core` — the Athena five-step inference framework
* :mod:`repro.perf` — the worker pool's executor configuration
* :mod:`repro.serve` — warm inference sessions + on-disk plan cache
* :mod:`repro.accel` — cycle-level accelerator simulator and baselines
* :mod:`repro.eval` — per-table / per-figure experiment drivers

The curated top-level surface (``repro.lower``, ``repro.run_program``,
``repro.AthenaPipeline``, ``repro.FbsLut``, ``repro.ExecConfig``, ...) is
re-exported lazily (PEP 562) so that ``import repro`` stays free of the
numpy-heavy submodule imports until a symbol is actually touched.
"""

__version__ = "1.1.0"

#: Curated public API; everything else is reachable via the subpackages but
#: carries no top-level stability promise.
_EXPORTS = {
    "AthenaPipeline": ("repro.core.framework", "AthenaPipeline"),
    "AthenaProgram": ("repro.core.program", "AthenaProgram"),
    "AthenaService": ("repro.serve", "AthenaService"),
    "CompiledProgram": ("repro.core.plan", "CompiledProgram"),
    "ExecConfig": ("repro.perf", "ExecConfig"),
    "FbsLut": ("repro.fhe.fbs", "FbsLut"),
    "InferenceRequest": ("repro.serve", "InferenceRequest"),
    "InferenceResult": ("repro.serve", "InferenceResult"),
    "InferenceSession": ("repro.serve", "InferenceSession"),
    "SessionCore": ("repro.serve", "SessionCore"),
    "SessionRuntime": ("repro.serve", "SessionRuntime"),
    "ShardedPlanCache": ("repro.serve", "ShardedPlanCache"),
    "Tenant": ("repro.serve", "Tenant"),
    "compile_program": ("repro.core.plan", "compile_program"),
    "lower": ("repro.core.program", "lower"),
    "run_program": ("repro.core.program", "run_program"),
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
