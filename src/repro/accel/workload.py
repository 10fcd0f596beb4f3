"""CKKS baseline workload model (DESIGN.md substitution #4).

The baseline accelerators (CraterLake / ARK / BTS / SHARP) run the
*CKKS-based* float models of [27, 28]: multiplexed-parallel convolutions,
minimax-composite polynomial ReLU, and full CKKS bootstrapping after each
layer pair. This module builds op-count traces for those pipelines at the
baselines' parameter regime (N = 2^16, ~44 limbs, dnum = 4), reusing the
same :class:`repro.core.trace.OpCounts` vocabulary so the one scheduler
serves both worlds.

Per-benchmark layer inventories follow the paper's §5.1 descriptions. Op
constants per phase follow Table 3's complexity rows; the single remaining
degree of freedom per architecture (its ``efficiency`` factor) is fitted on
ResNet-20 in :mod:`repro.accel.baselines` — exactly mirroring the paper's
own methodology ("we normalize the computational complexity of other
benchmarks to that of ResNet-20").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.trace import OpCounts, WorkloadTrace


@dataclass(frozen=True)
class CkksRing:
    """Minimal ring descriptor for the scheduler (duck-typed FheParams)."""

    n: int
    num_limbs: int
    t: int


CKKS_RING = CkksRing(n=1 << 16, num_limbs=44, t=0)
CKKS_DNUM = 4


def _pmult() -> OpCounts:
    l, n = CKKS_RING.num_limbs, CKKS_RING.n
    return OpCounts(ntt=l, mod_mul=2 * l * n, hbm_bytes=l * n * 4)


def _hadd() -> OpCounts:
    l, n = CKKS_RING.num_limbs, CKKS_RING.n
    return OpCounts(mod_add=2 * l * n)


def _keyswitch() -> OpCounts:
    l, n = CKKS_RING.num_limbs, CKKS_RING.n
    return OpCounts(
        ntt=2 * CKKS_DNUM * l,
        mod_mul=2 * CKKS_DNUM * l * n,
        mod_add=2 * CKKS_DNUM * l * n,
        rnsconv=2 * l * n,
        hbm_bytes=CKKS_DNUM * l * n * 4,
    )


def _rotation() -> OpCounts:
    out = _keyswitch()
    out.automorph += 2 * CKKS_RING.num_limbs
    return out


def _cmult() -> OpCounts:
    l, n = CKKS_RING.num_limbs, CKKS_RING.n
    out = OpCounts(ntt=6 * l, mod_mul=8 * l * n, mod_add=2 * l * n, rnsconv=4 * l * n)
    out += _keyswitch()
    return out


def conv_ops(f: int, cin: int, cout: int) -> OpCounts:
    """Multiplexed conv: O(f^2 C) PMult + O(f^2)+O(C) rotations (Table 3)."""
    out = OpCounts()
    out += _pmult().scaled(f * f * max(1, cin // 4))
    out += _rotation().scaled(f * f + cout)
    out += _hadd().scaled(f * f * max(1, cin // 4))
    return out


def fc_ops(in_features: int, out_features: int) -> OpCounts:
    diags = max(1, min(in_features, 128))
    out = OpCounts()
    out += _pmult().scaled(diags)
    out += _rotation().scaled(2 * math.isqrt(diags))
    out += _hadd().scaled(diags)
    return out


#: Degree p of the minimax composite polynomial ReLU.
RELU_DEGREE = 27


def relu_ops() -> OpCounts:
    """Minimax composite polynomial ReLU: O(p) PMult, O(sqrt p)-ish CMult."""
    out = OpCounts()
    out += _pmult().scaled(2 * RELU_DEGREE)
    out += _cmult().scaled(15)
    out += _hadd().scaled(2 * RELU_DEGREE)
    return out


def maxpool_ops(windows: int, k: int) -> OpCounts:
    """CKKS max-pooling: (k^2 - 1) encrypted comparisons per window, each a
    composite-polynomial sign evaluation (comparable to a ReLU)."""
    comparisons = k * k - 1
    slots = CKKS_RING.n // 2
    batches = max(1, math.ceil(windows / slots))
    return relu_ops().scaled(comparisons * batches * 2)


def bootstrap_ops() -> OpCounts:
    """Full CKKS bootstrap: CtS/StC linear transforms (BSGS rotations),
    EvalMod polynomial, modulus raise — the dominant macro-op."""
    out = OpCounts()
    out += _rotation().scaled(160)
    out += _pmult().scaled(200)
    out += _cmult().scaled(24)
    out += _hadd().scaled(360)
    return out


#: (phase, op-name, OpCounts) inventories per benchmark (paper §5.1).
def _mnist_layers():
    yield "linear", "conv1", conv_ops(5, 1, 5)
    yield "relu", "relu1", relu_ops()
    yield "linear", "fc1", fc_ops(245, 100)
    yield "relu", "relu2", relu_ops()
    yield "linear", "fc2", fc_ops(100, 10)
    for i in range(2):
        yield "bootstrap", f"boot{i}", bootstrap_ops()


def _lenet_layers():
    yield "linear", "conv1", conv_ops(5, 1, 6)
    yield "relu", "relu1", relu_ops()
    yield "pooling", "pool1", maxpool_ops(6 * 14 * 14, 2)
    yield "linear", "conv2", conv_ops(5, 6, 16)
    yield "relu", "relu2", relu_ops()
    yield "pooling", "pool2", maxpool_ops(16 * 5 * 5, 2)
    yield "linear", "fc1", fc_ops(400, 120)
    yield "relu", "relu3", relu_ops()
    yield "linear", "fc2", fc_ops(120, 84)
    yield "relu", "relu4", relu_ops()
    yield "linear", "fc3", fc_ops(84, 10)
    # Max-pooling's comparison chains burn multiplicative depth quickly, so
    # LeNet under CKKS bootstraps disproportionately often for its size.
    for i in range(14):
        yield "bootstrap", f"boot{i}", bootstrap_ops()


def _resnet_layers(blocks_per_stage: int):
    widths = (16, 32, 64)
    yield "linear", "conv0", conv_ops(3, 3, 16)
    yield "relu", "relu0", relu_ops()
    boots = 1
    current = 16
    for stage, w in enumerate(widths):
        for b in range(blocks_per_stage):
            name = f"s{stage}b{b}"
            yield "linear", f"{name}.conv1", conv_ops(3, current, w)
            yield "relu", f"{name}.relu1", relu_ops()
            yield "linear", f"{name}.conv2", conv_ops(3, w, w)
            if stage > 0 and b == 0:
                yield "linear", f"{name}.proj", conv_ops(1, current, w)
            yield "relu", f"{name}.relu2", relu_ops()
            boots += 2  # >= 2 bootstraps per residual block (paper §1)
            current = w
    yield "pooling", "gap", _rotation().scaled(6)
    yield "linear", "fc", fc_ops(64, 10)
    boots += 1
    for i in range(boots):
        yield "bootstrap", f"boot{i}", bootstrap_ops()


_BENCHES = {
    "mnist_cnn": _mnist_layers,
    "lenet": _lenet_layers,
    "resnet20": lambda: _resnet_layers(3),
    "resnet56": lambda: _resnet_layers(9),
}


def ckks_trace(model_name: str) -> WorkloadTrace:
    """Full CKKS-pipeline trace for one benchmark model."""
    if model_name not in _BENCHES:
        raise KeyError(f"unknown benchmark {model_name!r}; options: {sorted(_BENCHES)}")
    trace = WorkloadTrace(model_name, CKKS_RING)  # type: ignore[arg-type]
    for phase, layer, ops in _BENCHES[model_name]():
        trace.add(phase, layer, ops)
    return trace


MODEL_NAMES = tuple(_BENCHES)
