"""Lowered Athena program IR: one schedule shared by every backend.

The five-step Athena loop (paper Fig. 2) used to be re-derived by four
independent ``isinstance``-chain walkers — the plaintext integer forward,
the simulated engine, the accelerator trace generator, and the LUT builder
— each hand-coding the same fusion decisions. This module makes those
decisions exactly once: :func:`lower` compiles a :class:`QuantizedModel`
into an :class:`AthenaProgram`, a flat sequence of loop-step nodes, and
every backend consumes the program through the :class:`ProgramExecutor`
protocol via :func:`run_program`.

Node kinds
----------

* :class:`LinearStep`   — conv/FC MAC plus its merged remap LUT; may carry a
  max-pool fused into the MAC domain.
* :class:`PoolStep`     — standalone pooling: ``max`` (LUT max-tree), ``sum``
  (average-pool window sum), ``gap`` (global sum).
* :class:`RemapStep`    — a bare LUT round with no linear layer in front
  (the average-pool / global-average-pool division tables).
* :class:`ReshapeStep`  — flatten; free on every backend.
* :class:`ResidualStep` — wide-scale branch join + post-add ReLU LUT, with
  the branches as nested sub-programs.

Fusion rules (applied at lowering time, consumed by all executors)
------------------------------------------------------------------

1. **Conv + max-pool in the MAC domain.** A ``QMaxPool`` directly following
   a conv whose merged activation is monotone rides on the conv's
   :class:`LinearStep`: pool-then-remap equals remap-then-pool exactly for
   a monotone LUT, and MAC-scale values tolerate e_ms where int-a values do
   not. Non-monotone activations (gelu) keep a separate activation-domain
   :class:`PoolStep`.
2. **Residual wide-scale join.** Both branches of a :class:`ResidualStep`
   arrive at the shared ``add_scale`` (see :class:`QResidual`); the
   encrypted addition plus one post-add LUT is a single program node.
3. **Average pooling as sum + LUT.** ``QAvgPool``/``QGlobalAvgPool`` lower
   into a :class:`PoolStep` (pure additions) followed by a
   :class:`RemapStep` carrying the division table.
4. **Tail no-S2C.** The last LUT-bearing step of the program is marked
   ``s2c=False``: the final FBS output is decoded from slots directly, so
   the real-ciphertext backend skips one slot-to-coefficient transform.
   (The trace executor deliberately keeps the legacy accounting — it still
   bills the tail S2C — so pre/post-refactor phase totals stay comparable.)

Executor protocol
-----------------

An executor implements one handler per node kind (``linear`` / ``pool`` /
``remap`` / ``reshape`` / ``residual``); each handler receives the step and
the flowing value and returns the new value. Value semantics are
executor-defined: integer tensors for the plaintext and simulated engines,
BFV ciphertexts for the real backend, ``None`` for pure accounting walkers
such as the trace generator. :func:`run_program` owns the schedule —
including the recursion into residual sub-programs — so no executor can
drift from the lowered fusion decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.core import lowering
from repro.errors import QuantizationError
from repro.fhe.fbs import (
    FbsLut,
    evaluate_poly_all,
    interpolate_range,
    register_interpolation,
)
from repro.fhe.params import ATHENA, FheParams
from repro.quant import nn
from repro.quant.quantize import (
    QAvgPool,
    QConv,
    QFlatten,
    QGlobalAvgPool,
    QLinear,
    QMaxPool,
    QResidual,
    QuantConfig,
    QuantizedModel,
    _int_conv,
    _wrap_t,
)

#: Merged activations whose remap LUT is monotone non-decreasing, so a
#: following max-pool commutes with the remap and may fuse into MAC domain.
MONOTONE_ACTIVATIONS = frozenset({"identity", "relu", "sigmoid"})


# --------------------------------------------------------------------------
# LUT specs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LutSpec:
    """Recipe for one FBS table, resolved at lowering time.

    ``remap`` tabulates the source node's own ``remap`` over the centered
    domain (bit-exact with plaintext quantized inference for any merged
    activation); ``divide`` is the pooling table LUT(x) = round(x / d).
    """

    kind: str  # 'remap' | 'divide'
    source: object  # Q-node providing remap()/mac_peak
    divisor: int = 1
    name: str = ""
    #: Restricted interpolation domain radius (from the source node's
    #: calibrated ``lut_range``): the MAC provably stays in [-r, r], so
    #: the table only needs to match the exact semantics there and may be
    #: the degree <= 2r interpolant everywhere else. None -> full-domain.
    lut_range: int | None = None

    def build(self, cfg: QuantConfig, t: int | None = None) -> FbsLut:
        """Materialize the table over Z_t."""
        t = t or cfg.t
        r = self.lut_range
        if r and 2 * r + 1 < t:
            # Restricted-domain build: interpolate the exact semantics over
            # the certified MAC range only. The resulting degree <= 2r
            # polynomial (vs t-1 generically) is what FBS evaluates, so the
            # BSGS ladder shrinks with the layer's bit allocation. The full
            # table it induces on Z_t is registered with its coefficients:
            # FbsLut then picks them up through the interpolation cache and
            # plan serialization round-trips bit-identically.
            pts = np.arange(-r, r + 1, dtype=np.int64)
            vals = self.apply_exact(pts, cfg)
            coeffs = interpolate_range(vals, r, t)
            table = evaluate_poly_all(coeffs, t)
            register_interpolation(table, t, coeffs)
            return FbsLut(table, t, self.name)
        raw = np.arange(t, dtype=np.int64)
        domain = np.where(raw > t // 2, raw - t, raw)
        if self.kind == "remap":
            return FbsLut(self.source.remap(domain, cfg.a_max), t, self.name)
        if self.kind == "divide":
            vals = np.rint(domain / self.divisor).astype(np.int64)
            return FbsLut(vals, t, self.name)
        raise QuantizationError(f"unknown LUT spec kind {self.kind!r}")

    def apply_exact(self, values: np.ndarray, cfg: QuantConfig) -> np.ndarray:
        """The table's exact integer semantics, without tabulating Z_t."""
        if self.kind == "remap":
            return self.source.remap(values, cfg.a_max)
        return np.rint(values / self.divisor).astype(np.int64)


def lut_spec(layer) -> LutSpec:
    """LUT recipe for one quantized-IR node (part of the lowering pass)."""
    rng = getattr(layer, "lut_range", None)
    if isinstance(layer, (QConv, QLinear, QResidual)):
        name = getattr(layer, "activation", "residual-add")
        return LutSpec("remap", layer, name=f"remap-{name}", lut_range=rng)
    if isinstance(layer, QAvgPool):
        k2 = layer.kernel**2
        return LutSpec("divide", layer, divisor=k2, name=f"avgpool/{k2}",
                       lut_range=rng)
    if isinstance(layer, QGlobalAvgPool):
        return LutSpec("divide", layer, divisor=layer.spatial,
                       name=f"gap/{layer.spatial}", lut_range=rng)
    raise QuantizationError(f"no LUT for {type(layer).__name__}")


# --------------------------------------------------------------------------
# Program nodes
# --------------------------------------------------------------------------


@dataclass
class LinearStep:
    """Conv/FC MAC + merged remap LUT (+ optionally a MAC-domain max-pool)."""

    kind: ClassVar[str] = "linear"
    phase: ClassVar[str] = "linear"

    op: str  # 'conv' | 'fc'
    layer: QConv | QLinear
    lut: LutSpec
    name: str
    stat: str  # engine stat label ('conv' | 'fc')
    mac_values: int  # raw MAC outputs of the linear op
    out_values: int  # LUT-round size (after any fused pooling)
    fused_pool: QMaxPool | None = None
    s2c: bool = True


@dataclass
class PoolStep:
    """Standalone pooling: 'max' (LUT tree), 'sum' (window sum), 'gap'."""

    kind: ClassVar[str] = "pool"
    phase: ClassVar[str] = "pooling"

    op: str  # 'max' | 'sum' | 'gap'
    layer: QMaxPool | QAvgPool | QGlobalAvgPool
    name: str
    stat: str = "maxpool"


@dataclass
class RemapStep:
    """A bare LUT round (no linear layer): pooling division tables."""

    kind: ClassVar[str] = "remap"

    lut: LutSpec
    name: str
    stat: str  # engine stat label ('avgpool' | 'gap')
    phase: str = "pooling"
    s2c: bool = True

    @property
    def source(self):
        return self.lut.source


@dataclass
class ReshapeStep:
    """Flatten: free on every backend (pure layout change)."""

    kind: ClassVar[str] = "reshape"
    phase: ClassVar[str] = "data"

    name: str


@dataclass
class ResidualStep:
    """Wide-scale branch join + one post-add LUT (paper's residual rule)."""

    kind: ClassVar[str] = "residual"
    phase: ClassVar[str] = "linear"

    layer: QResidual
    body: "AthenaProgram"
    shortcut: "AthenaProgram | None"
    lut: LutSpec
    name: str
    stat: str = "residual-add"
    s2c: bool = True

    @property
    def skip_alpha(self) -> int:
        return self.layer.skip_alpha


@dataclass
class AthenaProgram:
    """A lowered model: the flat loop-step schedule plus its context."""

    steps: list
    config: QuantConfig
    params: FheParams
    name: str = "model"

    def __iter__(self):
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def mac_sources(self) -> list:
        """MAC-producing IR nodes in execution order (Fig. 4 x-axis)."""
        out: list = []
        for step in self.steps:
            if step.kind == "linear":
                out.append(step.layer)
            elif step.kind == "pool" and step.op in ("sum", "gap"):
                out.append(step.layer)
            elif step.kind == "residual":
                out.extend(step.body.mac_sources())
                if step.shortcut:
                    out.extend(step.shortcut.mac_sources())
                out.append(step.layer)
        return out

    def lut_steps(self) -> list:
        """Every step carrying a LUT spec, in execution order."""
        out: list = []
        for step in self.steps:
            if step.kind == "residual":
                out.extend(step.body.lut_steps())
                if step.shortcut:
                    out.extend(step.shortcut.lut_steps())
                out.append(step)
            elif step.kind in ("linear", "remap"):
                out.append(step)
        return out

    def final_scale(self) -> float:
        """Output scale of the classifier head (softmax LUT input scale)."""
        for step in reversed(self.steps):
            if step.kind == "linear" and step.op == "fc":
                return step.layer.out_scale
        return 1.0

    def compile(self, params: FheParams | None = None):
        """Precompute this program's :class:`repro.core.plan.CompiledProgram`.

        Convenience wrapper over :func:`repro.core.plan.compile_program`
        (imported lazily — the plan module depends on this one).
        """
        from repro.core.plan import compile_program

        return compile_program(self, params or self.params)


# --------------------------------------------------------------------------
# Lowering pass — dispatch lives in the repro.core.lowering registry; this
# module registers the stock rules and keeps the public lower() entry point.
# --------------------------------------------------------------------------


def lower(model: QuantizedModel, params: FheParams = ATHENA) -> AthenaProgram:
    """Compile a quantized model into its Athena loop schedule."""
    steps = _lower_layers(model.layers, model.config, params, prefix="")
    # Tail fusion: the program's last LUT round feeds the decoder (or the
    # softmax LUTs, which consume slots), not another coefficient-encoded
    # linear layer, so its S2C is dropped.
    for step in reversed(steps):
        if step.kind in ("linear", "remap", "residual"):
            step.s2c = False
            break
    return AthenaProgram(steps, model.config, params, name=model.name)


def _lower_layers(layers: list, cfg: QuantConfig, params: FheParams,
                  prefix: str) -> list:
    """Registry-driven lowering (see :mod:`repro.core.lowering`).

    Kept under its historical name; raises
    :class:`repro.errors.UnsupportedLayer` for layer types with no
    registered rule.
    """
    return lowering.lower_layers(layers, cfg, params, prefix=prefix)


# --------------------------------------------------------------------------
# Executor protocol + driver
# --------------------------------------------------------------------------


class ProgramExecutor:
    """One handler per node kind; ``value`` semantics are executor-defined."""

    def linear(self, step: LinearStep, value):
        raise NotImplementedError

    def pool(self, step: PoolStep, value):
        raise NotImplementedError

    def remap(self, step: RemapStep, value):
        raise NotImplementedError

    def reshape(self, step: ReshapeStep, value):
        return value

    def residual(self, step: ResidualStep, main, skip):
        raise NotImplementedError


def run_program(program: AthenaProgram, executor: ProgramExecutor, value=None):
    """Drive ``executor`` through the program's schedule.

    The driver owns the step order and the residual-branch recursion (body,
    then shortcut, then join) so every backend executes the identical
    schedule; executors only decide how each step is realized.
    """
    for step in program.steps:
        if step.kind == "residual":
            main = run_program(step.body, executor, value)
            skip = (
                run_program(step.shortcut, executor, value)
                if step.shortcut
                else value
            )
            value = executor.residual(step, main, skip)
        else:
            value = getattr(executor, step.kind)(step, value)
    return value


# --------------------------------------------------------------------------
# Plaintext integer executor (the exact reference semantics)
# --------------------------------------------------------------------------


class PlainIntExecutor(ProgramExecutor):
    """Bit-exact integer inference — what the ciphertext pipeline computes.

    Fused conv+max-pool steps are realized remap-then-pool (the LUT is
    monotone, so this equals the MAC-domain order the encrypted backends
    use, without tabulating the LUT). MAC peaks are recorded on the source
    IR nodes, preserving the calibration side effect (Fig. 4 / check_t).
    """

    def __init__(self, cfg: QuantConfig):
        self.cfg = cfg

    def linear(self, step: LinearStep, x_q: np.ndarray) -> np.ndarray:
        layer = step.layer
        if step.op == "conv":
            mac = _int_conv(x_q, layer)
        else:
            mac = x_q @ layer.weight.T + layer.bias
        layer.mac_peak = max(layer.mac_peak, int(np.abs(mac).max()))
        out = step.lut.apply_exact(_wrap_t(mac, self.cfg.t), self.cfg)
        if step.fused_pool is not None:
            out = self._maxpool(out, step.fused_pool)
        return out

    def pool(self, step: PoolStep, x_q: np.ndarray) -> np.ndarray:
        layer = step.layer
        if step.op == "max":
            return self._maxpool(x_q, layer)
        if step.op == "sum":
            cols, oh, ow = nn.im2col(x_q, layer.kernel, layer.kernel, layer.stride, 0)
            b, c = x_q.shape[0], x_q.shape[1]
            total = cols.reshape(b, oh, ow, c, layer.kernel**2).sum(axis=-1)
        else:  # gap
            total = x_q.sum(axis=(2, 3))
        layer.mac_peak = max(layer.mac_peak, int(np.abs(total).max()))
        return total

    def remap(self, step: RemapStep, total: np.ndarray) -> np.ndarray:
        out = step.lut.apply_exact(total, self.cfg)
        return out.transpose(0, 3, 1, 2) if out.ndim == 4 else out

    def reshape(self, step: ReshapeStep, x_q: np.ndarray) -> np.ndarray:
        return x_q.reshape(x_q.shape[0], -1)

    def residual(self, step: ResidualStep, main: np.ndarray,
                 skip: np.ndarray) -> np.ndarray:
        total = main + skip * step.skip_alpha
        step.layer.mac_peak = max(step.layer.mac_peak, int(np.abs(total).max()))
        return step.lut.apply_exact(_wrap_t(total, self.cfg.t), self.cfg)

    @staticmethod
    def _maxpool(x_q: np.ndarray, layer: QMaxPool) -> np.ndarray:
        cols, oh, ow = nn.im2col(x_q, layer.kernel, layer.kernel, layer.stride, 0)
        b, c = x_q.shape[0], x_q.shape[1]
        return (
            cols.reshape(b, oh, ow, c, layer.kernel**2)
            .max(axis=-1)
            .transpose(0, 3, 1, 2)
        )


# The stock lowering rules close over this module's step classes, so they
# register once the classes above exist (end of import).
lowering._register_stock_rules()
