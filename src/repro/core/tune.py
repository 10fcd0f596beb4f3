"""The tune stage ``benchmarks/ledger/`` still calls: nothing is tuned.

There is no per-step encoding choice (README "Tuning", DESIGN.md §14): a
lowered program compiles to one plan. ``benchmarks/ledger/`` (``tracing.py``,
``workloads.py``) still times a tune stage and forwards its ``.tuning``, so
this module keeps exactly that call shape until the ledger drops it
(ROADMAP, "Re-base the ledger").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.program import AthenaProgram
from repro.fhe.params import FheParams

__all__ = ["TuningResult", "tune_program"]


@dataclass(frozen=True)
class TuningResult:
    """Nothing was tuned: ``tuning`` is always ``None``."""

    tuning: None = None


def tune_program(program: AthenaProgram,
                 params: FheParams | None = None) -> TuningResult:
    """The ledger's tune stage: there is nothing to choose."""
    return TuningResult()
