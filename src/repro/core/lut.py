"""LUT construction: quantized-layer remapping merged with activations.

Athena's key idea (paper §3.2.3): every non-linearity *and* the
re-quantization step is one table lookup over Z_t,

    LUT(x) = clip(round(act(x * scale_in * scale_w) / scale_out))

evaluated under FHE by functional bootstrapping. This module builds those
tables from the quantized IR so that the encrypted pipeline and the
plaintext integer pipeline share literally the same table — any output
difference between them is then attributable to FHE noise alone.

Also provided: generic activation tables (ReLU / sigmoid / GELU / ...), the
average-pool division table, and the two-step softmax tables (exp and
reciprocal-of-sum), all per §3.2.3. Max-pooling's max-tree lives in the
integer walker, :class:`repro.core.program.PlainIntExecutor`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from repro.errors import QuantizationError
from repro.fhe.fbs import FbsLut


def _centered_domain(t: int) -> np.ndarray:
    raw = np.arange(t, dtype=np.int64)
    return np.where(raw > t // 2, raw - t, raw)


def remap_lut(multiplier: float, activation: str, a_max: int, t: int) -> FbsLut:
    """LUT(x) = clip(round(act(x) * multiplier), -a_max, a_max) over Z_t."""
    x = _centered_domain(t).astype(np.float64)
    if activation == "relu":
        x = np.maximum(x, 0)
    elif activation != "identity":
        raise QuantizationError(f"unsupported merged activation {activation!r}")
    vals = np.clip(np.rint(x * multiplier), -a_max, a_max).astype(np.int64)
    return FbsLut(vals, t, f"remap-{activation}")


# ---------------------------------------------------------------------------
# Generic activation tables ("Athena supports any non-linear function")
# ---------------------------------------------------------------------------


def activation_lut(
    fn: Callable[[np.ndarray], np.ndarray],
    t: int,
    in_scale: float = 1.0,
    out_scale: float = 1.0,
    name: str = "act",
) -> FbsLut:
    """LUT(x) = round(fn(x * in_scale) / out_scale) over the centered domain."""
    x = _centered_domain(t).astype(np.float64) * in_scale
    vals = np.rint(np.asarray(fn(x)) / out_scale).astype(np.int64)
    return FbsLut(vals, t, name)


@lru_cache(maxsize=None)
def relu_lut(t: int) -> FbsLut:
    """ReLU table over Z_t. Cached: the table (with its polynomial and
    BSGS schedule) depends only on ``t``, so every compiled max tree and
    layer build shares one instance."""
    return FbsLut.from_function(lambda x: np.maximum(x, 0), t, "relu")


@lru_cache(maxsize=None)
def sigmoid_lut(t: int, in_scale: float, out_levels: int) -> FbsLut:
    """Sigmoid quantized to ``out_levels`` integer levels (cached)."""
    return activation_lut(
        lambda x: out_levels / (1.0 + np.exp(-x)), t, in_scale, 1.0, "sigmoid"
    )


# ---------------------------------------------------------------------------
# Softmax (paper §3.2.3: exp LUT, inverse LUT, one CMult)
# ---------------------------------------------------------------------------


#: The softmax exp table's output scale (its value at 0) and the reciprocal
#: table's numerator scale, in integer levels.
SOFTMAX_EXP_LEVELS = 256
SOFTMAX_INV_LEVELS = 256


def softmax_luts(t: int, in_scale: float) -> tuple[FbsLut, FbsLut, int]:
    """(exp table, reciprocal table, product shift) for encrypted softmax.

    Step 1: e_i = round(exp(x_i * in_scale) * exp_levels)  (bounded bit width)
    Step 2: r = round(inv_levels * exp_levels / sum_j e_j)
    Step 3: softmax_i ~= e_i * r / (inv_levels)  via one CMult.

    ``exp_levels`` / ``inv_levels`` are :data:`SOFTMAX_EXP_LEVELS` /
    :data:`SOFTMAX_INV_LEVELS`.
    """
    exp_levels, inv_levels = SOFTMAX_EXP_LEVELS, SOFTMAX_INV_LEVELS
    exp_lut = activation_lut(
        lambda x: np.clip(np.exp(np.minimum(x, 0.0)) * exp_levels, 0, exp_levels),
        t,
        in_scale,
        1.0,
        "softmax-exp",
    )
    x = _centered_domain(t).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(x > 0, inv_levels * exp_levels / np.maximum(x, 1), 0.0)
    inv_lut = FbsLut(np.rint(np.clip(inv, 0, t // 2)).astype(np.int64), t, "softmax-inv")
    return exp_lut, inv_lut, inv_levels


def softmax_plain(
    logits: np.ndarray, exp_lut: FbsLut, inv_lut: FbsLut, inv_levels: int, t: int
) -> np.ndarray:
    """Reference integer softmax using the FHE recipe (max-subtracted)."""
    x = np.asarray(logits, dtype=np.int64)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = exp_lut.apply_plain(shifted)
    total = e.sum(axis=-1, keepdims=True)
    r = inv_lut.apply_plain(total)
    probs = e * r  # the CMult
    return probs / (probs.sum(axis=-1, keepdims=True) + 1e-12)
