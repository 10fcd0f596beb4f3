"""Post-training quantization into the Athena integer IR (paper §3.1).

The pipeline follows the classic three-step procedure the paper cites:
activations quantized to ``a_bits`` with calibrated scales, integer multiply
-accumulate, and a *remapping* back to the activation range. The remapping
is expressed as a lookup table over the MAC value — exactly the object
Athena evaluates under FHE with functional bootstrapping (remap and
activation merged: ``LUT(x) = clip(round(act(x * scale_in * scale_w) /
scale_out))``).

The quantized model is an explicit IR (:class:`QConv`, :class:`QLinear`,
:class:`QResidual`, pool/flatten ops). Its integer inference
(:meth:`QuantizedModel.forward_int`) is bit-exact with what the Athena
framework computes on ciphertexts, so plain-vs-cipher accuracy comparisons
isolate precisely the FHE-induced noise — the property Table 5 measures.

Residual blocks requantize both branches to a shared scale before the
encrypted addition, then apply one post-add ReLU LUT; that is why the paper
counts at least two bootstraps per residual block.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModulusOverflow, QuantizationError
from repro.quant import nn
from repro.quant.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Gelu,
    GlobalAvgPool,
    Linear,
    MaxPool2d,
    ReLU,
    Residual,
    Sequential,
    Sigmoid,
)

#: Float activation layers that fuse into the remap LUT.
_ACTIVATION_LAYERS = {ReLU: "relu", Sigmoid: "sigmoid", Gelu: "gelu"}


def _merged_activation(layer) -> str | None:
    for cls, name in _ACTIVATION_LAYERS.items():
        if isinstance(layer, cls):
            return name
    return None


#: Merged activations the remap LUT supports (paper §3.2.3/§3.4: "any
#: non-linear function"): each maps a *float-domain* pre-activation to its
#: float output; the remap quantizes the result.
ACTIVATIONS: dict = {
    "identity": lambda z: z,
    "relu": lambda z: np.maximum(z, 0.0),
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60))),
    "gelu": lambda z: 0.5 * z * (1.0 + np.tanh(np.sqrt(2 / np.pi) * (z + 0.044715 * z**3))),
}


@dataclass(frozen=True)
class QuantConfig:
    """wXaY quantization configuration (paper evaluates w7a7 and w6a7)."""

    w_bits: int = 7
    a_bits: int = 7
    t: int = 65537  # plaintext modulus the MACs must fit into

    @property
    def w_max(self) -> int:
        return (1 << (self.w_bits - 1)) - 1

    @property
    def a_max(self) -> int:
        return (1 << (self.a_bits - 1)) - 1

    @property
    def label(self) -> str:
        return f"w{self.w_bits}a{self.a_bits}"


@dataclass(frozen=True)
class LayerQuantConfig:
    """Per-layer bit-width override (mixed-precision PTQ, CalibTIP-style).

    A model-global :class:`QuantConfig` fixes one ``(w_bits, a_bits)``
    pair; the mixed-precision allocator (:mod:`repro.quant.mp`) assigns
    one of these per MAC layer instead. The layer's weights quantize to
    ``w_max`` and its remap clips to ``a_max``, so the layer's MAC range
    — and with it the restricted LUT domain and the interpolated FBS
    degree — shrinks with the bits.
    """

    w_bits: int
    a_bits: int

    def __post_init__(self) -> None:
        if self.w_bits < 2 or self.a_bits < 2:
            raise QuantizationError(
                f"per-layer bit-widths must be >= 2, got {self.label}"
            )

    @property
    def w_max(self) -> int:
        return (1 << (self.w_bits - 1)) - 1

    @property
    def a_max(self) -> int:
        return (1 << (self.a_bits - 1)) - 1

    @property
    def label(self) -> str:
        return f"w{self.w_bits}a{self.a_bits}"


# --------------------------------------------------------------------------
# Quantized IR
# --------------------------------------------------------------------------


@dataclass
class QConv:
    """Integer convolution + merged remap/activation LUT parameters.

    ``out_max`` widens the remap range for pre-residual-add layers: both
    branches of a residual block remap into a shared *wide* scale (~2^13)
    so the encrypted addition happens at MAC-like magnitude, where the
    modulus-switch noise e_ms only perturbs LSBs (see QResidual).
    """

    weight: np.ndarray  # int64 (out_ch, in_ch, k, k)
    bias: np.ndarray  # int64 (out_ch,), in MAC scale
    stride: int
    pad: int
    in_scale: float
    w_scale: float
    out_scale: float
    activation: str  # 'relu' | 'identity'
    in_shape: tuple[int, int, int]
    out_shape: tuple[int, int, int]
    mac_peak: int = 0  # filled during integer inference (Fig. 4)
    out_max: int | None = None  # None -> quant config a_max
    #: Channel groups of the source conv. The stored ``weight`` is always
    #: the *dense equivalent* (zeros outside the group-diagonal blocks),
    #: so execution and encoding are group-agnostic; the count is kept for
    #: provenance and folded into ``program_fingerprint``.
    groups: int = 1
    #: Mixed-precision override this layer was quantized under (or None
    #: for the model-global config). Drives the remap clip bound.
    bits: LayerQuantConfig | None = None
    #: Restricted LUT domain radius: the layer's MAC provably stays within
    #: [-lut_range, lut_range], so the FBS table only needs to agree with
    #: the remap there (interpolated degree <= 2r instead of t-1).
    lut_range: int | None = None

    @property
    def remap_multiplier(self) -> float:
        return self.in_scale * self.w_scale / self.out_scale

    def remap(self, mac: np.ndarray, a_max: int) -> np.ndarray:
        """LUT(x) = clip(round(act(x * mac_scale) / out_scale)) elementwise.

        For relu/identity this reduces to the multiplier form; the general
        float-domain form admits any activation in :data:`ACTIVATIONS`.
        """
        bound = self.out_max or (self.bits.a_max if self.bits else a_max)
        z = ACTIVATIONS[self.activation](mac.astype(np.float64) * self.in_scale * self.w_scale)
        return np.clip(np.rint(z / self.out_scale), -bound, bound).astype(np.int64)


@dataclass
class QLinear:
    weight: np.ndarray  # int64 (out_f, in_f)
    bias: np.ndarray  # int64 (out_f,)
    in_scale: float
    w_scale: float
    out_scale: float
    activation: str
    in_features: int
    out_features: int
    mac_peak: int = 0
    out_max: int | None = None
    bits: LayerQuantConfig | None = None
    lut_range: int | None = None

    @property
    def remap_multiplier(self) -> float:
        return self.in_scale * self.w_scale / self.out_scale

    def remap(self, mac: np.ndarray, a_max: int) -> np.ndarray:
        bound = self.out_max or (self.bits.a_max if self.bits else a_max)
        z = ACTIVATIONS[self.activation](mac.astype(np.float64) * self.in_scale * self.w_scale)
        return np.clip(np.rint(z / self.out_scale), -bound, bound).astype(np.int64)


@dataclass
class QMaxPool:
    kernel: int
    stride: int


@dataclass
class QAvgPool:
    """Average pooling as a sum plus LUT(x) = round(x / k^2)."""

    kernel: int
    stride: int
    mac_peak: int = field(init=False, default=0)
    lut_range: int | None = field(init=False, default=None)


@dataclass
class QGlobalAvgPool:
    spatial: int  # H*W being averaged
    mac_peak: int = field(init=False, default=0)
    lut_range: int | None = field(init=False, default=None)


@dataclass
class QFlatten:
    pass


#: Wide intermediate range for pre-add branch remaps: large enough that
#: the e_ms perturbation (std ~43) only touches LSBs of the sum, small
#: enough that the two-branch sum stays far inside the plaintext modulus
#: (2 * 8192 * ~1.1 << t/2 = 32768).
RESIDUAL_WIDE_MAX = 8192


@dataclass
class QResidual:
    """Quantized basic block in the wide-add form.

    Both branches land at the shared ``add_scale`` with range ~2^13: the
    body's last conv remaps (identity LUT) into it; a projection shortcut
    does the same; an identity shortcut is lifted by the *exact* integer
    factor ``skip_alpha`` (a noise-free ciphertext SMult). The encrypted
    addition then happens at MAC-like magnitude and one post-add ReLU LUT
    folds everything back to activation precision.
    """

    body: list
    shortcut: list | None
    add_scale: float
    out_scale: float
    skip_alpha: int = 1  # identity-skip integer rescale (1 for projections)
    #: Peak of the post-add sum (also a LUT input).
    mac_peak: int = field(init=False, default=0)
    lut_range: int | None = field(init=False, default=None)

    @property
    def remap_multiplier(self) -> float:
        return self.add_scale / self.out_scale

    def remap(self, total: np.ndarray, a_max: int) -> np.ndarray:
        z = np.maximum(total.astype(np.float64), 0)
        return np.clip(np.rint(z * self.remap_multiplier), -a_max, a_max).astype(np.int64)


@dataclass
class QuantizedModel:
    layers: list
    config: QuantConfig
    input_scale: float
    input_shape: tuple[int, int, int]
    name: str = "model"
    _program: object = field(init=False, default=None, repr=False, compare=False)

    def quantize_input(self, x: np.ndarray) -> np.ndarray:
        q = np.rint(x / self.input_scale)
        return np.clip(q, -self.config.a_max, self.config.a_max).astype(np.int64)

    def program(self):
        """The lowered AthenaProgram (cached; see repro.core.program).

        Mutating ``layers`` structurally invalidates the cache — reset
        ``_program`` to None afterwards. Weight/scale edits on the existing
        IR nodes are picked up automatically (the program references them).
        """
        if self._program is None:
            from repro.core.program import lower

            self._program = lower(self)
        return self._program

    def forward_int(self, x_q: np.ndarray) -> np.ndarray:
        """Exact integer inference; returns integer logits."""
        from repro.core.program import PlainIntExecutor, run_program

        return run_program(self.program(), PlainIntExecutor(self.config), x_q)

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        return self.forward_int(self.quantize_input(x))

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Top-1 accuracy, ``x`` run 256 images at a time."""
        correct = 0
        for s in range(0, x.shape[0], 256):
            logits = self.forward_float(x[s : s + 256])
            correct += int((logits.argmax(axis=1) == y[s : s + 256]).sum())
        return correct / x.shape[0]

    def mac_layers(self):
        """All IR nodes that produce a MAC consumed by a LUT (Fig. 4 x-axis)."""
        return self.program().mac_sources()

    def max_mac(self) -> int:
        return max((l.mac_peak for l in self.mac_layers()), default=0)

    def validate_t(self) -> None:
        """Raise :class:`ModulusOverflow` naming the worst offending layer.

        ``mac_peak`` is a calibration observable — run ``forward_int`` (or
        ``accuracy``) over representative data first, otherwise all peaks
        are zero and validation trivially passes.
        """
        half = self.config.t // 2
        worst = None
        for idx, layer in enumerate(self.mac_layers()):
            peak = int(getattr(layer, "mac_peak", 0))
            if peak > half and (worst is None or peak > worst[1]):
                worst = (idx, peak, layer)
        if worst is not None:
            idx, peak, layer = worst
            raise ModulusOverflow(
                f"{type(layer).__name__.lower()}[{idx}] MAC peak {peak} "
                f"exceeds t//2 = {half} (t = {self.config.t}) by {peak - half}",
                layer=f"{type(layer).__name__.lower()}[{idx}]",
                mac_peak=peak,
                t=self.config.t,
                excess=peak - half,
            )

    def check_t(self) -> bool:
        """True when every observed MAC fits the plaintext modulus."""
        try:
            self.validate_t()
        except ModulusOverflow:
            return False
        return True


# --------------------------------------------------------------------------
# Integer primitives (per-step execution lives in repro.core.program)
# --------------------------------------------------------------------------


def _int_conv(x_q: np.ndarray, layer: QConv) -> np.ndarray:
    cols, oh, ow = nn.im2col(x_q, layer.weight.shape[2], layer.weight.shape[3],
                             layer.stride, layer.pad)
    wmat = layer.weight.reshape(layer.weight.shape[0], -1)
    mac = cols @ wmat.T + layer.bias
    return mac.transpose(0, 3, 1, 2)


def _wrap_t(mac: np.ndarray, t: int) -> np.ndarray:
    """Centered reduction mod t — the ciphertext MAC semantics.

    For models whose MACs fit t (the paper's Fig. 4 condition) this is the
    identity; when a MAC overflows it wraps exactly as it would in the BFV
    plaintext ring, keeping plain-quant and encrypted inference bit-exact.
    """
    return (mac + t // 2) % t - t // 2


# --------------------------------------------------------------------------
# BatchNorm folding
# --------------------------------------------------------------------------


def fold_batchnorm(model: Sequential) -> Sequential:
    """Return a copy of the model with every Conv+BN pair fused."""

    def fold_list(layers: list) -> list:
        out: list = []
        i = 0
        while i < len(layers):
            layer = layers[i]
            nxt = layers[i + 1] if i + 1 < len(layers) else None
            if isinstance(layer, Conv2d) and isinstance(nxt, BatchNorm2d):
                out.append(_fuse(layer, nxt))
                i += 2
            elif isinstance(layer, Residual):
                body = Sequential(*fold_list(layer.body.layers))
                shortcut = (
                    Sequential(*fold_list(layer.shortcut.layers))
                    if isinstance(layer.shortcut, Sequential)
                    else copy.deepcopy(layer.shortcut)
                )
                out.append(Residual(body, shortcut))
                i += 1
            elif isinstance(layer, Sequential):
                out.append(Sequential(*fold_list(layer.layers)))
                i += 1
            else:
                out.append(copy.deepcopy(layer))
                i += 1
        return out

    return Sequential(*fold_list(model.layers))


def _fuse(conv: Conv2d, bn: BatchNorm2d) -> Conv2d:
    scale = bn.gamma / np.sqrt(bn.running_var + nn.BN_EPS)
    fused = Conv2d(conv.in_ch, conv.out_ch, conv.kernel, conv.stride, conv.pad, bias=True)
    fused.weight = conv.weight * scale[:, None, None, None]
    base_bias = conv.bias if conv.bias is not None else 0.0
    fused.bias = (base_bias - bn.running_mean) * scale + bn.beta
    fused.w_grad = np.zeros_like(fused.weight)
    fused.b_grad = np.zeros_like(fused.bias)
    return fused


# --------------------------------------------------------------------------
# Calibration + quantization
# --------------------------------------------------------------------------


def _quantize_weights(w: np.ndarray, w_max: int) -> tuple[np.ndarray, float]:
    scale = max(float(np.abs(w).max()), 1e-12) / w_max
    return np.clip(np.rint(w / scale), -w_max, w_max).astype(np.int64), scale


def _act_scale(values: np.ndarray, a_max: int) -> float:
    return max(float(np.abs(values).max()), 1e-12) / a_max


def quantize_model(
    model: Sequential,
    calib_x: np.ndarray,
    config: QuantConfig,
    name: str = "model",
    mp=None,
    bias_correct: bool = False,
    lut_margin: int | None = None,
) -> QuantizedModel:
    """Fold BN, calibrate activation scales on ``calib_x``, emit integer IR.

    Mixed-precision extensions (all default-off; with none requested the
    legacy single-config path is unchanged):

    - ``mp``: an :class:`repro.quant.mp.MpConfig` (any mapping with
      ``.get`` works) assigning :class:`LayerQuantConfig` overrides by
      layer name — ``conv0``, ``linear1``, ... numbered over MAC layers
      in conversion order, residual branches included.
    - ``bias_correct``: CalibTIP-style bias correction — shift each
      conv/linear's integer bias by the per-channel mean discrepancy
      between the float pre-activation and the dequantized integer MAC
      observed on ``calib_x``.
    - ``lut_margin``: record each LUT-bearing node's calibrated MAC peak
      plus this safety margin as ``lut_range``, enabling restricted-domain
      LUT interpolation downstream (``repro.fhe.fbs.interpolate_range``).

    Any of the three switches on *tracking*: once the IR is built, the
    whole calibration batch runs once through the one integer walker
    (:class:`repro.core.program.BiasCorrector`, a ``PlainIntExecutor``
    that corrects each bias as its MAC goes by), so MAC peaks, bias
    corrections and LUT windows come from exactly the network
    ``forward_int`` and the FHE pipeline run, wrapped MACs included.
    """
    folded = fold_batchnorm(model)
    calib_x = np.asarray(calib_x, dtype=np.float64)
    a_max = config.a_max
    input_scale = _act_scale(calib_x, a_max)
    z_means: dict = {}  # id(conv/linear node) -> per-channel mean of z
    mac_index = [0]  # shared conv/linear naming counter (conversion order)

    def _layer_cfg(kind: str):
        lname = f"{kind}{mac_index[0]}"
        mac_index[0] += 1
        return mp.get(lname) if mp is not None else None

    def convert(layers: list, x_f: np.ndarray, in_scale: float):
        """Returns (ir_list, out_float, out_scale)."""
        ir: list = []
        i = 0
        scale = in_scale
        while i < len(layers):
            layer = layers[i]
            nxt = layers[i + 1] if i + 1 < len(layers) else None
            if isinstance(layer, (Conv2d, Linear)):
                is_conv = isinstance(layer, Conv2d)
                act = _merged_activation(nxt) or "identity"
                z = layer.forward(x_f)
                a = ACTIVATIONS[act](z)
                lcfg = _layer_cfg("conv" if is_conv else "linear")
                out_scale = _act_scale(a, lcfg.a_max if lcfg else a_max)
                w_q, w_scale = _quantize_weights(
                    layer.weight, lcfg.w_max if lcfg else config.w_max
                )
                bias = layer.bias if layer.bias is not None else np.zeros(len(w_q))
                common = dict(
                    bias=np.rint(bias / (scale * w_scale)).astype(np.int64),
                    in_scale=scale,
                    w_scale=w_scale,
                    out_scale=out_scale,
                    activation=act,
                    bits=lcfg,
                )
                if is_conv:
                    # Grouped convs quantize the grouped tensor (zeros in the
                    # dense expansion quantize to exact zeros, so w_scale is
                    # identical either way) and store the dense equivalent —
                    # every downstream consumer sees an ordinary conv.
                    groups = getattr(layer, "groups", 1)
                    node = QConv(
                        weight=nn.expand_grouped_weight(w_q, groups),
                        groups=groups,
                        stride=layer.stride,
                        pad=layer.pad,
                        in_shape=tuple(x_f.shape[1:]),
                        out_shape=tuple(a.shape[1:]),
                        **common,
                    )
                else:
                    node = QLinear(
                        weight=w_q,
                        in_features=layer.weight.shape[1],
                        out_features=layer.weight.shape[0],
                        **common,
                    )
                ir.append(node)
                z_means[id(node)] = z.mean(axis=(0, *range(2, z.ndim)))
                x_f, scale = a, out_scale
                i += 2 if act != "identity" else 1
            elif isinstance(layer, (MaxPool2d, AvgPool2d, GlobalAvgPool, Flatten)):
                if isinstance(layer, GlobalAvgPool):
                    ir.append(QGlobalAvgPool(spatial=x_f.shape[2] * x_f.shape[3]))
                elif isinstance(layer, Flatten):
                    ir.append(QFlatten())
                else:
                    qtype = QMaxPool if isinstance(layer, MaxPool2d) else QAvgPool
                    ir.append(qtype(layer.kernel, layer.stride))
                x_f = layer.forward(x_f)
                i += 1
            elif isinstance(layer, Residual):
                node, x_f, scale = _convert_residual(layer, x_f, scale)
                ir.append(node)
                i += 1
            elif _merged_activation(layer):
                raise QuantizationError(
                    "stray activation: must directly follow Conv2d/Linear"
                )
            else:
                raise QuantizationError(f"cannot quantize {type(layer).__name__}")
        return ir, x_f, scale

    def _convert_residual(block: Residual, x_f: np.ndarray, in_scale: float):
        # Both branches meet at a shared *wide* scale (see QResidual).
        main_f = block.body.forward(x_f)
        skip_f = block.shortcut.forward(x_f) if block.shortcut else x_f
        out_f = np.maximum(main_f + skip_f, 0)
        branch_peak = max(
            float(np.abs(main_f).max()), float(np.abs(skip_f).max()), 1e-12
        )
        target_scale = branch_peak / RESIDUAL_WIDE_MAX
        skip_alpha = 1
        if block.shortcut is None:
            # Identity skip arrives at in_scale as small integers; lift it
            # with an exact integer factor so both branches share a scale
            # with zero approximation error (plain == cipher exactly).
            skip_alpha = max(1, round(in_scale / target_scale))
            add_scale = in_scale / skip_alpha
        else:
            add_scale = target_scale
        body_ir, _, _ = convert(block.body.layers, x_f, in_scale)
        _retarget_tail(body_ir, add_scale)
        shortcut_ir = None
        if block.shortcut:
            shortcut_ir, _, _ = convert(block.shortcut.layers, x_f, in_scale)
            _retarget_tail(shortcut_ir, add_scale)
        out_scale = _act_scale(out_f, a_max)
        node = QResidual(
            body=body_ir,
            shortcut=shortcut_ir,
            add_scale=add_scale,
            out_scale=out_scale,
            skip_alpha=skip_alpha,
        )
        return node, out_f, out_scale

    def _retarget_tail(ir: list, add_scale: float) -> None:
        tail = ir[-1]
        if not isinstance(tail, (QConv, QLinear)):
            raise QuantizationError("residual branch must end in conv/linear")
        if tail.activation != "identity":
            raise QuantizationError("pre-add layer must not carry an activation")
        tail.out_scale = add_scale
        tail.out_max = RESIDUAL_WIDE_MAX

    ir, _, _ = convert(folded.layers, calib_x, input_scale)
    # The classifier head keeps wide precision: softmax's exp LUT operates
    # on the logits, and at int-a granularity the e_ms perturbation would
    # swing exp() by whole quantization steps. Argmax is scale-invariant,
    # so plain accuracy is unaffected. The width is clamped to t//4 so the
    # logits stay inside the plaintext modulus at small-t test parameters.
    tail = ir[-1] if ir else None
    if isinstance(tail, QLinear) and tail.activation == "identity":
        wide = min(RESIDUAL_WIDE_MAX // 4, config.t // 4)
        eff_a = tail.bits.a_max if tail.bits else a_max
        tail.out_scale = tail.out_scale * eff_a / wide
        tail.out_max = wide
    qmodel = QuantizedModel(ir, config, input_scale, tuple(calib_x.shape[1:]),
                            name=name)
    if mp is not None or bias_correct or lut_margin is not None:
        # Imported here: repro.core and repro.quant.mp import this module.
        from repro.core.program import BiasCorrector, run_program
        from repro.quant.mp import assign_lut_ranges

        corrector = BiasCorrector(config, z_means if bias_correct else {})
        run_program(qmodel.program(), corrector, qmodel.quantize_input(calib_x))
        if lut_margin is not None:
            assign_lut_ranges(qmodel, lut_margin)
    return qmodel
