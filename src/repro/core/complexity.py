"""Computational-complexity model (paper Table 3).

Symbolic operation counts for the CKKS-based pipeline of [27] versus the
Athena framework, instantiated with concrete parameters. Notation follows
the paper: N polynomial degree, f kernel width, C channels, p and r the
degrees of the polynomial fits used by CKKS ReLU and bootstrapping, t the
plaintext modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class OpComplexity:
    """Counts of the three op classes Table 3 tracks."""

    pmult: int
    cmult: int
    hrot: int

    def __add__(self, other: "OpComplexity") -> "OpComplexity":
        return OpComplexity(
            self.pmult + other.pmult,
            self.cmult + other.cmult,
            self.hrot + other.hrot,
        )


def ckks_conv(f: int, c: int) -> OpComplexity:
    """CKKS multiplexed convolution: O(f^2 C) PMult, O(f^2)+O(C) HRot."""
    return OpComplexity(pmult=f * f * c, cmult=0, hrot=f * f + c)


def ckks_relu(p: int) -> OpComplexity:
    """Polynomial-approximation ReLU: O(p) PMult, O(sqrt p) CMult."""
    return OpComplexity(pmult=p, cmult=math.isqrt(p), hrot=0)


def ckks_bootstrap(n: int, r: int) -> OpComplexity:
    """CKKS bootstrapping: O(cbrt N)+O(r) PMult, O(sqrt r) CMult, O(cbrt N) HRot."""
    cbrt = round(n ** (1 / 3))
    return OpComplexity(pmult=cbrt + r, cmult=math.isqrt(r), hrot=cbrt)


def athena_conv(c: int) -> OpComplexity:
    """Coefficient-encoded convolution: O(C) PMult, zero rotations."""
    return OpComplexity(pmult=c, cmult=0, hrot=0)


def athena_packing(c: int) -> OpComplexity:
    """LWE -> RLWE packing: O(C) PMult and O(C) HRot (BSGS mat-vec)."""
    return OpComplexity(pmult=c, cmult=0, hrot=c)


def athena_fbs(t: int) -> OpComplexity:
    """Functional bootstrapping: O(t) SMult (counted as PMult column),
    O(sqrt t) CMult (Alg. 2)."""
    return OpComplexity(pmult=t, cmult=math.isqrt(t), hrot=0)


def athena_s2c(n: int) -> OpComplexity:
    """Slot-to-coefficient: O(cbrt N) PMult and HRot."""
    cbrt = round(n ** (1 / 3))
    return OpComplexity(pmult=cbrt, cmult=0, hrot=cbrt)


@dataclass(frozen=True)
class Table3Row:
    solution: str
    operation: str
    complexity: OpComplexity


def table3(
    n: int = 1 << 15,
    f: int = 3,
    c: int = 64,
    p: int = 27,
    r: int = 31,
    t: int = 65537,
) -> list[Table3Row]:
    """Instantiate Table 3 with concrete parameters (paper defaults)."""
    return [
        Table3Row("ckks", "conv", ckks_conv(f, c)),
        Table3Row("ckks", "relu", ckks_relu(p)),
        Table3Row("ckks", "bootstrap", ckks_bootstrap(1 << 16, r)),
        Table3Row("athena", "conv", athena_conv(c)),
        Table3Row("athena", "packing", athena_packing(c)),
        Table3Row("athena", "fbs", athena_fbs(t)),
        Table3Row("athena", "s2c", athena_s2c(n)),
    ]
