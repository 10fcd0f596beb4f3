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
  the branches as nested step lists.

Fusion rules (applied at lowering time, consumed by all executors)
------------------------------------------------------------------

1. **Conv + max-pool in the MAC domain.** A ``QMaxPool`` directly following
   a conv whose merged activation is monotone rides on the conv's
   :class:`LinearStep`: MAC-scale values tolerate e_ms where int-a values
   do not. The max-tree takes each window difference mod t, so
   pool-then-remap equals remap-then-pool for a monotone LUT exactly when
   every window difference stays inside +/-t/2; past that both the
   ciphertext and the integer walker wrap. Non-monotone activations (gelu)
   keep a separate activation-domain :class:`PoolStep`.
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
executor-defined: integer tensors for :class:`PlainIntExecutor` and the
simulated engine (its subclass), BFV ciphertexts for the real backend
(which walks the compiled plan's steps, not this program's), ``None`` for
pure accounting walkers such as the trace generator. :func:`run_program`
owns the schedule — including the recursion into residual branches — so
no executor can drift from the lowered fusion decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.errors import QuantizationError, UnsupportedLayer
from repro.fhe.fbs import FbsLut, evaluate_poly_all, interpolate_range
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
            # BSGS ladder shrinks with the layer's bit allocation. The LUT
            # holds the full table that polynomial induces on Z_t; the
            # table's interpolant, which the LUT derives, is the polynomial.
            pts = np.arange(-r, r + 1, dtype=np.int64)
            coeffs = interpolate_range(self.apply_exact(pts, cfg), r, t)
            return FbsLut(evaluate_poly_all(coeffs, t), t, self.name)
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

    op: str  # 'conv' | 'fc'
    layer: QConv | QLinear
    lut: LutSpec
    name: str
    stat: str  # engine stat label ('conv' | 'fc')
    mac_values: int  # raw MAC outputs of the linear op
    out_values: int  # LUT-round size (after any fused pooling)
    fused_pool: QMaxPool | None = None
    s2c: bool = field(init=False, default=True)


@dataclass
class PoolStep:
    """Standalone pooling: 'max' (LUT tree), 'sum' (window sum), 'gap'."""

    kind: ClassVar[str] = "pool"

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
    s2c: bool = field(init=False, default=True)

    @property
    def source(self):
        return self.lut.source


@dataclass
class ReshapeStep:
    """Flatten: free on every backend (pure layout change)."""

    kind: ClassVar[str] = "reshape"

    name: str


@dataclass
class ResidualStep:
    """Wide-scale branch join + one post-add LUT (paper's residual rule)."""

    kind: ClassVar[str] = "residual"
    stat: ClassVar[str] = "residual-add"

    layer: QResidual
    body: list
    shortcut: list | None
    lut: LutSpec
    name: str
    s2c: bool = field(init=False, default=True)

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
        return [step.layer for step in _flat(self.steps)
                if step.kind in ("linear", "residual")
                or (step.kind == "pool" and step.op in ("sum", "gap"))]

    def lut_steps(self) -> list:
        """Every step carrying a LUT spec, in execution order."""
        return [step for step in _flat(self.steps)
                if step.kind in ("linear", "remap", "residual")]

    def final_scale(self) -> float:
        """Output scale of the classifier head (softmax LUT input scale)."""
        for step in reversed(self.steps):
            if step.kind == "linear" and step.op == "fc":
                return step.layer.out_scale
        return 1.0


def _flat(steps: list):
    """Every step in execution order: a residual block's body, then its
    shortcut, then the block itself (its join)."""
    for step in steps:
        if step.kind == "residual":
            yield from _flat(step.body)
            yield from _flat(step.shortcut or [])
        yield step


# --------------------------------------------------------------------------
# Lowering pass
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
    """Lower one quantized-IR layer list into program steps.

    Steps are named ``{prefix}{classname}{index}``, one index per source
    layer, so a subclass of a Q-node lowers like its base under its own
    name. A conv followed by a max-pool consumes the pool when the fusion
    rule allows it; residual branches lower by recursion. Any other type
    raises :class:`repro.errors.UnsupportedLayer`.
    """
    steps: list = []
    i = 0
    idx = 0
    while i < len(layers):
        layer = layers[i]
        nxt = layers[i + 1] if i + 1 < len(layers) else None
        name = f"{prefix}{type(layer).__name__.lower()}{idx}"
        if isinstance(layer, QConv):
            mac_values = int(math.prod(layer.out_shape))
            fused = None
            if isinstance(nxt, QMaxPool) and layer.activation in MONOTONE_ACTIVATIONS:
                fused = nxt
                i += 1  # the pool rides on this step
            steps.append(LinearStep(
                op="conv", layer=layer, lut=lut_spec(layer), name=name,
                stat="conv", mac_values=mac_values,
                out_values=mac_values // fused.stride**2 if fused else mac_values,
                fused_pool=fused,
            ))
        elif isinstance(layer, QLinear):
            steps.append(LinearStep(
                op="fc", layer=layer, lut=lut_spec(layer), name=name,
                stat="fc", mac_values=layer.out_features,
                out_values=layer.out_features,
            ))
        elif isinstance(layer, QMaxPool):
            steps.append(PoolStep(op="max", layer=layer, name=name))
        elif isinstance(layer, (QAvgPool, QGlobalAvgPool)):
            op, stat = ("sum", "avgpool") if isinstance(layer, QAvgPool) else ("gap", "gap")
            steps.append(PoolStep(op=op, layer=layer, name=name, stat=stat))
            steps.append(RemapStep(lut=lut_spec(layer), name=name, stat=stat))
        elif isinstance(layer, QFlatten):
            steps.append(ReshapeStep(name=name))
        elif isinstance(layer, QResidual):
            steps.append(ResidualStep(
                layer=layer,
                body=_lower_layers(layer.body, cfg, params, f"{name}.body."),
                shortcut=(_lower_layers(layer.shortcut, cfg, params, f"{name}.skip.")
                          if layer.shortcut else None),
                lut=lut_spec(layer), name=name,
            ))
        else:
            kind = type(layer).__name__
            raise UnsupportedLayer(
                f"cannot lower layer {i} ({kind}): not a quantized-IR layer type",
                index=i,
                layer_type=kind,
            )
        i += 1
        idx += 1
    return steps


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


def run_program(program, executor: ProgramExecutor, value=None):
    """Drive ``executor`` through the program's schedule.

    ``program`` is a lowered :class:`AthenaProgram` or its compiled
    :class:`repro.core.plan.CompiledProgram`: both are a ``steps`` list
    whose residual steps carry their branches as ``body`` / ``shortcut``
    step lists, so the one walker drives either tree. It owns the step order
    and the residual-branch recursion (body, then shortcut, then join) so
    every backend executes the identical schedule; executors only decide how
    each step is realized.
    """
    return _walk(program.steps, executor, value)


def _walk(steps: list, executor: ProgramExecutor, value):
    for step in steps:
        if step.kind == "residual":
            main = _walk(step.body, executor, value)
            skip = _walk(step.shortcut, executor, value) if step.shortcut else value
            value = executor.residual(step, main, skip)
        else:
            value = getattr(executor, step.kind)(step, value)
    return value


# --------------------------------------------------------------------------
# Plaintext integer executor (the exact reference semantics)
# --------------------------------------------------------------------------


def _windows(x_q: np.ndarray, layer) -> np.ndarray:
    """(B, C, H, W) -> (B, out_h, out_w, C, k*k) pooling windows."""
    cols, oh, ow = nn.im2col(x_q, layer.kernel, layer.kernel, layer.stride, 0)
    return cols.reshape(x_q.shape[0], oh, ow, x_q.shape[1], layer.kernel**2)


class PlainIntExecutor(ProgramExecutor):
    """Bit-exact integer inference — what the ciphertext pipeline computes.

    The one integer walker. Every LUT reads its input mod t (``_lut``);
    every max-pool, fused into a conv's MAC domain or standalone, is the
    FHE max-tree over differences taken mod t (``_maxpool``), which equals
    remap-then-max while window differences stay inside +/-t/2. Every MAC
    (conv/FC, pool sum, residual join) passes through ``_mac``, which
    records its peak on the source IR node (the calibration side effect
    behind Fig. 4 / check_t) and returns the value the step goes on with.
    The simulated engine subclasses this walker and overrides only
    ``_lut``, ``_relu`` and ``_mac``; :class:`BiasCorrector` overrides only
    ``_mac``.
    """

    def __init__(self, cfg: QuantConfig):
        self.cfg = cfg

    def _lut(self, step, value: np.ndarray) -> np.ndarray:
        """One LUT round on ``value`` read mod t."""
        return step.lut.apply_exact(_wrap_t(value, self.cfg.t), self.cfg)

    def _relu(self, diff: np.ndarray) -> np.ndarray:
        """One max-tree ReLU on a centered mod-t difference."""
        return np.maximum(diff, 0)

    def _mac(self, layer, value: np.ndarray) -> np.ndarray:
        layer.mac_peak = max(layer.mac_peak, int(np.abs(value).max()))
        return value

    def _maxpool(self, x_q: np.ndarray, layer: QMaxPool) -> np.ndarray:
        """max(a, b) = b + relu(a - b), reduced pairwise over each window."""
        vals = _windows(x_q, layer)
        while vals.shape[-1] > 1:
            n, half = vals.shape[-1], vals.shape[-1] // 2
            low = vals[..., half : 2 * half]
            merged = low + self._relu(_wrap_t(vals[..., :half] - low, self.cfg.t))
            if n % 2:
                merged = np.concatenate([merged, vals[..., -1:]], axis=-1)
            vals = merged
        return vals[..., 0].transpose(0, 3, 1, 2)

    def linear(self, step: LinearStep, x_q: np.ndarray) -> np.ndarray:
        layer = step.layer
        if step.op == "conv":
            mac = _int_conv(x_q, layer)
        else:
            mac = x_q @ layer.weight.T + layer.bias
        mac = self._mac(layer, mac)
        if step.fused_pool is not None:
            mac = self._maxpool(mac, step.fused_pool)
        return self._lut(step, mac)

    def pool(self, step: PoolStep, x_q: np.ndarray) -> np.ndarray:
        if step.op == "max":
            return self._maxpool(x_q, step.layer)
        total = (_windows(x_q, step.layer).sum(axis=-1) if step.op == "sum"
                 else x_q.sum(axis=(2, 3)))  # gap
        return self._mac(step.layer, total)

    def remap(self, step: RemapStep, total: np.ndarray) -> np.ndarray:
        out = self._lut(step, total)
        return out.transpose(0, 3, 1, 2) if out.ndim == 4 else out

    def reshape(self, step: ReshapeStep, x_q: np.ndarray) -> np.ndarray:
        return x_q.reshape(x_q.shape[0], -1)

    def residual(self, step: ResidualStep, main: np.ndarray,
                 skip: np.ndarray) -> np.ndarray:
        # skip_alpha is a noise-free ciphertext SMult (exact).
        total = self._mac(step.layer, main + skip * step.skip_alpha)
        return self._lut(step, total)


class BiasCorrector(PlainIntExecutor):
    """The integer walker with CalibTIP bias correction folded into each MAC.

    ``z_means`` maps ``id(node)`` of a conv/linear IR node to the
    per-channel mean of its float pre-activation on the calibration batch.
    The per-channel mean of that minus the dequantized integer MAC is a
    systematic quantization bias: it is rounded into the integer bias, and
    the walk goes on with the corrected MAC, so every later layer corrects
    against corrected inputs. Nodes without an entry are only tracked.
    """

    def __init__(self, cfg: QuantConfig, z_means: dict):
        super().__init__(cfg)
        self.z_means = z_means

    def _mac(self, layer, value: np.ndarray) -> np.ndarray:
        z_mean = self.z_means.get(id(layer))
        if z_mean is not None:
            s = layer.in_scale * layer.w_scale
            axes = (0, *range(2, value.ndim))
            shift = np.rint((z_mean - value.mean(axis=axes) * s) / s).astype(np.int64)
            layer.bias = layer.bias + shift
            value = value + shift.reshape(-1, *[1] * (value.ndim - 2))
        return super()._mac(layer, value)
