"""Pluggable layer-lowering registry.

Lowering used to be a closed ``isinstance`` chain inside
``repro.core.program._lower_layers``: four zoo CNNs and a silent
``QuantizationError`` for anything else. This module opens that seam:
each quantized-IR layer type registers a :class:`LoweringRule` that emits
the layer's program steps (and may consume a lookahead layer, which is
how conv+max-pool fusion is expressed). Every LUT-bearing step is
Athena-encoded (paper §3.2.1 — Table 2's cost comparison against Cheetah
is :func:`repro.core.trace.strategy_costs`) and refreshes in one round.

The registry is keyed by layer type and walked through the MRO, so a
subclass of ``QConv`` lowers through the conv rule unless it registers
its own. Unknown types raise :class:`repro.errors.UnsupportedLayer`
carrying the layer's index and class name, which the CLI surfaces as a
clean one-line error.

The stock rules reproduce the historical lowering *byte for byte* —
step names, fusion decisions, LUT specs, and step order are pinned by
the frozen-walker equivalence suite in ``tests/test_program.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.errors import UnsupportedLayer
from repro.fhe.params import FheParams
from repro.quant.quantize import (
    QAvgPool,
    QConv,
    QFlatten,
    QGlobalAvgPool,
    QLinear,
    QMaxPool,
    QResidual,
    QuantConfig,
)

__all__ = [
    "LoweringContext",
    "LoweringRule",
    "lower_layers",
    "lowering_rules",
    "register_rule",
    "rule_for",
]


# --------------------------------------------------------------------------
# Rule registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LoweringContext:
    """Everything a rule may consult while emitting steps.

    ``lower_block`` re-enters the lowering driver for nested layer lists
    (residual branches) so rules never import the driver directly.
    """

    cfg: QuantConfig
    params: FheParams
    prefix: str
    lower_block: Callable


@dataclass(frozen=True)
class LoweringRule:
    """One layer type's lowering: ``emit(ctx, layer, nxt, name)``.

    ``emit`` returns ``(steps, consumed)`` where ``consumed`` is how many
    *extra* input layers the rule swallowed beyond ``layer`` itself
    (conv+max-pool fusion consumes one).
    """

    layer_type: type
    emit: Callable

    def __call__(self, ctx, layer, nxt, name):
        return self.emit(ctx, layer, nxt, name)


_RULES: dict[type, LoweringRule] = {}


def register_rule(layer_type: type):
    """Class decorator-style registration of a lowering rule function."""

    def decorate(fn):
        _RULES[layer_type] = LoweringRule(layer_type, fn)
        return fn

    return decorate


def _ensure_stock_rules() -> None:
    # Importing repro.core.program registers the stock rules; guard for
    # callers that import this module directly.
    if not _RULES:
        import repro.core.program  # noqa: F401


def rule_for(layer) -> LoweringRule | None:
    """Resolve a layer's rule through its MRO (subclasses inherit rules)."""
    _ensure_stock_rules()
    for klass in type(layer).__mro__:
        rule = _RULES.get(klass)
        if rule is not None:
            return rule
    return None


def lowering_rules() -> dict[type, LoweringRule]:
    """A snapshot of the registry (type -> rule)."""
    _ensure_stock_rules()
    return dict(_RULES)


def lower_layers(layers: list, cfg: QuantConfig, params: FheParams,
                 prefix: str = "") -> list:
    """The registry-driven lowering driver.

    Walks the quantized-IR layer list, dispatching each layer to its
    registered rule; rules may consume a lookahead layer (fusion). Step
    naming (``{prefix}{classname}{index}``, one index per source layer)
    matches the historical pass exactly.
    """
    ctx = LoweringContext(cfg=cfg, params=params, prefix=prefix,
                          lower_block=lower_layers)
    steps: list = []
    i = 0
    idx = 0
    while i < len(layers):
        layer = layers[i]
        nxt = layers[i + 1] if i + 1 < len(layers) else None
        rule = rule_for(layer)
        if rule is None:
            kind = type(layer).__name__
            raise UnsupportedLayer(
                f"cannot lower layer {i} ({kind}): no LoweringRule is "
                f"registered for {kind!r} — register one with "
                f"repro.core.lowering.register_rule",
                index=i,
                layer_type=kind,
            )
        name = f"{prefix}{type(layer).__name__.lower()}{idx}"
        emitted, consumed = rule(ctx, layer, nxt, name)
        steps.extend(emitted)
        i += 1 + consumed
        idx += 1
    return steps


# --------------------------------------------------------------------------
# Stock rules (registered on import of repro.core.program)
# --------------------------------------------------------------------------


def _register_stock_rules() -> None:
    """Register the built-in rules.

    Called once by ``repro.core.program`` at the end of its own import —
    the step classes live there, and importing them at module top would
    be circular. Idempotent (re-registration overwrites in place).
    """
    from repro.core import program as program_mod

    LinearStep = program_mod.LinearStep
    PoolStep = program_mod.PoolStep
    RemapStep = program_mod.RemapStep
    ReshapeStep = program_mod.ReshapeStep
    ResidualStep = program_mod.ResidualStep
    AthenaProgram = program_mod.AthenaProgram
    lut_spec = program_mod.lut_spec
    monotone = program_mod.MONOTONE_ACTIVATIONS

    @register_rule(QConv)
    def _lower_conv(ctx, layer, nxt, name):
        mac_values = int(math.prod(layer.out_shape))
        out_values = mac_values
        fused = None
        consumed = 0
        if isinstance(nxt, QMaxPool) and layer.activation in monotone:
            fused = nxt
            out_values = mac_values // nxt.stride**2
            consumed = 1
        step = LinearStep(
            op="conv", layer=layer, lut=lut_spec(layer), name=name,
            stat="conv", mac_values=mac_values, out_values=out_values,
            fused_pool=fused,
        )
        return [step], consumed

    @register_rule(QLinear)
    def _lower_fc(ctx, layer, nxt, name):
        step = LinearStep(
            op="fc", layer=layer, lut=lut_spec(layer), name=name,
            stat="fc", mac_values=layer.out_features,
            out_values=layer.out_features,
        )
        return [step], 0

    @register_rule(QMaxPool)
    def _lower_maxpool(ctx, layer, nxt, name):
        return [PoolStep(op="max", layer=layer, name=name)], 0

    @register_rule(QAvgPool)
    def _lower_avgpool(ctx, layer, nxt, name):
        return [
            PoolStep(op="sum", layer=layer, name=name, stat="avgpool"),
            RemapStep(lut=lut_spec(layer), name=name, stat="avgpool"),
        ], 0

    @register_rule(QGlobalAvgPool)
    def _lower_gap(ctx, layer, nxt, name):
        return [
            PoolStep(op="gap", layer=layer, name=name, stat="gap"),
            RemapStep(lut=lut_spec(layer), name=name, stat="gap"),
        ], 0

    @register_rule(QFlatten)
    def _lower_flatten(ctx, layer, nxt, name):
        return [ReshapeStep(name=name)], 0

    @register_rule(QResidual)
    def _lower_residual(ctx, layer, nxt, name):
        body = AthenaProgram(
            ctx.lower_block(layer.body, ctx.cfg, ctx.params,
                            prefix=f"{name}.body."),
            ctx.cfg, ctx.params, name=f"{name}.body",
        )
        shortcut = None
        if layer.shortcut:
            shortcut = AthenaProgram(
                ctx.lower_block(layer.shortcut, ctx.cfg, ctx.params,
                                prefix=f"{name}.skip."),
                ctx.cfg, ctx.params, name=f"{name}.skip",
            )
        step = ResidualStep(layer=layer, body=body, shortcut=shortcut,
                            lut=lut_spec(layer), name=name)
        return [step], 0
