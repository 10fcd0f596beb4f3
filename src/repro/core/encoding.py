"""Coefficient encoding for linear layers (paper §3.2.1, Eq. 1, Table 2).

A convolution becomes a single negacyclic polynomial product when features
and kernels are laid out as

    M_hat[c*HW + h*W + w]                          = M[c, h, w]
    K_hat[T - c'*Cin*HW - c*HW - i*W - j]          = K[c', c, i, j]
    T = HW*(Cout*Cin - 1) + W*(Wk - 1) + Wk - 1

after which output (c', h, w) sits at coefficient T - c'*Cin*HW + h*W + w of
M_hat * K_hat. No rotations are needed — this is the "Conv: O(C) PMult,
0 HRot" row of the paper's Table 3.

Two packing *strategies* are modeled for Table 2:

* **Cheetah-style** (input-channel-major): all Cin channels packed per
  ciphertext, one polynomial product per output channel; the valid outputs
  of each kernel are scattered across Cout result ciphertexts.
* **Athena-style** (output-channel-major): kernels arranged across the Cout
  dimension so one product accumulates many output channels *compactly* in
  a single result ciphertext — more PMult/HAdd, far fewer result
  ciphertexts, which is what makes the subsequent sample-extraction step
  cheap (its cost scales with result-ciphertext count x N).

Fully-connected layers are the Wk = W = 1 special case (inner product).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import EncodingError


# ---------------------------------------------------------------------------
# Concrete single-ciphertext encoding (validates Eq. 1 end to end)
# ---------------------------------------------------------------------------


def encode_features(m: np.ndarray, n: int) -> np.ndarray:
    """Eq. 1 feature layout: M_hat[c*HW + h*W + w] = M[c, h, w]."""
    cin, h, w = m.shape
    if cin * h * w > n:
        raise EncodingError(f"feature map ({cin}x{h}x{w}) exceeds degree {n}")
    out = np.zeros(n, dtype=np.int64)
    out[: cin * h * w] = m.reshape(-1)
    return out


def t_index(cout: int, cin: int, h: int, w: int, wk: int) -> int:
    """Eq. 1's T on an ``(h, w)`` grid: the kernel polynomial's top coefficient,
    and the coefficient of output ``(0, 0, 0)``. The one statement of it."""
    return h * w * (cout * cin - 1) + w * (wk - 1) + wk - 1


def encode_kernels(k: np.ndarray, h: int, w: int, n: int) -> np.ndarray:
    """Eq. 1 kernel layout (output-channel-major, Athena ordering)."""
    cout, cin, wk, wk2 = k.shape
    if wk != wk2:
        raise EncodingError("kernels must be square")
    top = t_index(cout, cin, h, w, wk)
    if top >= n:
        raise EncodingError(
            f"conv ({cout},{cin},{h},{w},{wk}) needs degree > {top}, have {n}"
        )
    taps = np.arange(wk, dtype=np.int64)
    chan = np.arange(cout * cin, dtype=np.int64).reshape(cout, cin, 1, 1) * (h * w)
    out = np.zeros(n, dtype=np.int64)
    out[top - chan - taps[:, None] * w - taps] = k
    return out


def extract_conv_outputs(
    product: np.ndarray,
    cout: int,
    cin: int,
    h: int,
    w: int,
    wk: int,
    stride: int = 1,
) -> np.ndarray:
    """Gather valid outputs of M_hat*K_hat into (Cout, H_out, W_out).

    ``h``/``w`` are the (already padded) input sizes; valid positions are
    h' <= H - Wk, w' <= W - Wk on the stride grid.
    """
    oh, ow = (h - wk) // stride + 1, (w - wk) // stride + 1
    positions = valid_output_positions(cout, cin, h, w, wk, stride)
    return product[positions].reshape(cout, oh, ow)


def conv_via_coefficients(
    m: np.ndarray, k: np.ndarray, n: int, stride: int = 1, pad: int = 0,
    modulus: int | None = None,
) -> np.ndarray:
    """Full-precision reference: pad, encode, negacyclic-multiply, extract.

    This is the *plaintext* version of Athena's Step 1 and is bit-identical
    to what the encrypted path computes in BFV coefficients.
    """
    from repro.fhe.ntt import negacyclic_mul_exact

    cout, cin, wk, _ = k.shape
    if pad:
        m = np.pad(m, ((0, 0), (pad, pad), (pad, pad)))
    _, h, w = m.shape
    mh = encode_features(m, n)
    kh = encode_kernels(k, h, w, n)
    product = np.array(negacyclic_mul_exact(list(mh), list(kh)))
    if modulus is not None:
        product = ((product + modulus // 2) % modulus) - modulus // 2
    return extract_conv_outputs(product, cout, cin, h, w, wk, stride)


def lane_span(cout: int, cin: int, h: int, w: int, wk: int) -> int:
    """Coefficient span of one image's Eq. 1 workspace (kernel + input).

    The kernel support tops out at ``t_index`` and the feature polynomial at
    ``cin*h*w - 1``, so the product M_hat * K_hat has support strictly below
    ``t_index + cin*h*w``. Independent images packed at this stride in one
    ciphertext therefore never mix: a lower lane's products stay below the
    next lane's offset, and a higher lane's would need a negative monomial
    degree. ``h``/``w`` are the padded input sizes; an FC layer is the
    ``h = w = wk = 1`` case.
    """
    return t_index(cout, cin, h, w, wk) + cin * h * w


def output_cells(
    cout: int, cin: int, gh: int, gw: int, wk: int, ys, xs
) -> np.ndarray:
    """Coefficients of M_hat*K_hat holding output ``(c', y, x)`` for every
    channel, grid row in ``ys`` and grid column in ``xs`` — C order.

    The image may sit anywhere inside the ``(gh, gw)`` coefficient grid as
    long as everything outside it is an exact zero (the invariant every
    refresh round maintains): the product at ``t_index - c'*cin*gh*gw +
    y*gw + x`` is then the kernel's window sum anchored at grid cell
    ``(y, x)``.
    """
    base = t_index(cout, cin, gh, gw, wk) - np.arange(cout, dtype=np.int64) * (
        cin * gh * gw)
    ys = np.asarray(ys, dtype=np.int64) * gw
    xs = np.asarray(xs, dtype=np.int64)
    return (base[:, None, None] + ys[None, :, None] + xs[None, None, :]).reshape(-1)


def valid_output_positions(
    cout: int, cin: int, h: int, w: int, wk: int, stride: int
) -> np.ndarray:
    """Coefficient indices holding valid conv outputs (for sample extract):
    :func:`output_cells` on the stride grid of an image filling ``(h, w)``."""
    return output_cells(
        cout, cin, h, w, wk,
        np.arange(0, h - wk + 1, stride), np.arange(0, w - wk + 1, stride))


# ---------------------------------------------------------------------------
# Packing plans (Table 2 + op counts for the complexity/trace models)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvShape:
    """One convolution layer's shape, Table 2 notation."""

    hw: int  # H (= W) of the (unpadded) input feature map
    cin: int
    cout: int
    wk: int
    stride: int
    pad: int

    @property
    def h_padded(self) -> int:
        return self.hw + 2 * self.pad

    @property
    def out_hw(self) -> int:
        return (self.h_padded - self.wk) // self.stride + 1

    @property
    def valid_outputs(self) -> int:
        return self.cout * self.out_hw**2

    @property
    def feature_size(self) -> int:
        return self.h_padded**2

    def describe(self) -> str:
        return (
            f"({self.hw}^2, {self.cin}, {self.cout}, {self.wk}, "
            f"{self.stride}, {self.pad})"
        )


@dataclass(frozen=True)
class EncodingPlan:
    """Cost/occupancy summary of one packing strategy on one layer."""

    strategy: str
    input_cts: int
    pmult: int
    hadd: int
    result_cts: int
    valid_ratio: float


def athena_plan(shape: ConvShape, n: int) -> EncodingPlan:
    """Output-channel-major packing (paper §3.2.1).

    Kernels are grouped so each polynomial product accumulates a group of
    output channels compactly; the result occupies
    ceil(valid_channel_span / N) ciphertexts, where each output channel
    spans the stride-1 grid (stride subsampling cannot be compacted inside
    a single product).
    """
    hw_pad = shape.feature_size
    span_per_channel = hw_pad  # output grid before stride subsampling
    # Kernels per product limited by Cout'*Cin*HW <= N.
    group = max(1, min(shape.cout, n // max(1, shape.cin * hw_pad)))
    groups = math.ceil(shape.cout / group)
    # Each group is one product against the (shared) input ciphertext(s).
    input_cts = math.ceil(shape.cin * hw_pad / n)
    pmult = groups * input_cts
    hadd = groups * max(0, input_cts - 1)
    result_span = shape.cout * span_per_channel
    result_cts = max(groups if group * shape.cin * hw_pad > n else 1,
                     math.ceil(result_span / n))
    valid = shape.valid_outputs
    return EncodingPlan(
        strategy="athena",
        input_cts=input_cts,
        pmult=pmult,
        hadd=hadd,
        result_cts=result_cts,
        valid_ratio=valid / (result_cts * n),
    )


def cheetah_plan(shape: ConvShape, n: int) -> EncodingPlan:
    """Input-channel-major packing (Cheetah [16]).

    All Cin channels share a ciphertext (split when they exceed N); one
    product per output channel, so valid data is spread across Cout result
    ciphertexts regardless of how few outputs each contains.
    """
    hw_pad = shape.feature_size
    splits = math.ceil(shape.cin * hw_pad / n)
    pmult = shape.cout * splits
    hadd = shape.cout * max(0, splits - 1)
    result_cts = shape.cout
    valid = shape.valid_outputs
    return EncodingPlan(
        strategy="cheetah",
        input_cts=splits,
        pmult=pmult,
        hadd=hadd,
        result_cts=result_cts,
        valid_ratio=valid / (result_cts * n),
    )


#: The six layer shapes of the paper's Table 2.
TABLE2_SHAPES = (
    ConvShape(32, 3, 16, 3, 1, 1),
    ConvShape(32, 16, 16, 3, 1, 1),
    ConvShape(32, 16, 32, 1, 2, 0),
    ConvShape(16, 32, 32, 3, 1, 1),
    ConvShape(16, 32, 64, 1, 2, 0),
    ConvShape(8, 64, 64, 3, 1, 1),
)
