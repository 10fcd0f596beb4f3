"""The ledger's own subjects: three fixed micro models, seeded inputs.

Weights never depend on ``--seed`` (one plan fingerprint per workload for
the life of the benchmark); the seed only draws inputs. The builders are
deliberately local: ``repro.perf.bench`` / ``repro.serve.loadgen`` carry
look-alikes that ROADMAP item 2 will collapse, and a benchmark whose
subjects move with the code under test measures nothing.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.fhe.params import TEST_FBS, TEST_LOOP
from repro.quant.mp import assign_lut_ranges
from repro.quant.quantize import (
    QConv,
    QFlatten,
    QLinear,
    QResidual,
    QuantConfig,
    QuantizedModel,
)

WEIGHT_SEED = 5
CALIBRATION_INPUTS = 256
#: Refresh noise reaches the LUT input itself: the LWE modulus switch down to
#: t adds a rounding error of std sqrt((|s|^2 + 1) / 12) to every MAC — 1.9
#: at TEST_LOOP (lwe_n = 64), 1.0 at TEST_FBS (lwe_n = 16), measured — and
#: the +-1 activation flips it causes are summed by the next layer's weights.
#: ``assign_lut_ranges``' default margin of 8 absorbs that on the stem only:
#: with it alone the fc round of narrow_block leaves its window about once in
#: a thousand inferences. Extra window per MAC layer of narrow_block, in
#: ``mac_layers()`` order (stem, body, shortcut, residual sum, fc), sized so
#: that a Monte-Carlo of the noise model (4e6 draws, tail extrapolated) puts
#: an escape anywhere at about 1e-8 an inference.
NARROW_HEADROOM = (0, 4, 4, 4, 8)


def _ints(rng, lo, hi, shape):
    return rng.integers(lo, hi + 1, shape).astype(np.int64)


def wide_cnn() -> QuantizedModel:
    """conv(1->2,k3) on 6x6 -> fc(32->3) at TEST_LOOP, full-domain LUTs.

    Both refresh rounds interpolate over all of Z_257, so each FBS is a
    degree-256 polynomial: the FBS-bound subject."""
    rng = np.random.default_rng(WEIGHT_SEED)
    conv = QConv(
        weight=_ints(rng, -2, 2, (2, 1, 3, 3)), bias=_ints(rng, -4, 4, 2),
        stride=1, pad=0, in_scale=1.0, w_scale=1.0, out_scale=12.0,
        activation="relu", in_shape=(1, 6, 6), out_shape=(2, 4, 4),
    )
    fc_w = _ints(rng, -1, 1, (3, 32))
    fc_w[:, rng.permutation(32)[:16]] = 0
    fc = QLinear(
        weight=fc_w, bias=_ints(rng, -3, 3, 3), in_scale=1.0, w_scale=1.0,
        out_scale=2.0, activation="identity", in_features=32, out_features=3,
    )
    return QuantizedModel(
        [conv, QFlatten(), fc], QuantConfig(4, 4, t=TEST_LOOP.t), 1.0,
        (1, 6, 6), name="ledger_wide",
    )


def narrow_block() -> QuantizedModel:
    """stem conv -> strided residual block with 1x1 projection -> fc at
    TEST_LOOP, LUT windows restricted by a plaintext calibration.

    Same layers as :func:`wide_cnn` used differently: every FBS table only
    has to agree on its calibrated MAC window, so FBS is a low-degree
    polynomial and the rotations of packing and S2C dominate."""
    rng = np.random.default_rng(WEIGHT_SEED)

    def conv(cin, cout, k, stride, pad, hw, act, out_scale):
        oh = (hw + 2 * pad - k) // stride + 1
        return QConv(
            weight=_ints(rng, -2, 2, (cout, cin, k, k)),
            bias=_ints(rng, -2, 2, cout), stride=stride, pad=pad,
            in_scale=1.0, w_scale=1.0, out_scale=out_scale, activation=act,
            in_shape=(cin, hw, hw), out_shape=(cout, oh, oh),
        )

    stem = conv(1, 1, 3, 1, 0, 6, "relu", 8.0)
    block = QResidual(
        body=[conv(1, 2, 3, 2, 1, 4, "identity", 6.0)],
        shortcut=[conv(1, 2, 1, 2, 0, 4, "identity", 6.0)],
        add_scale=1.0, out_scale=2.0, skip_alpha=1,
    )
    fc = QLinear(
        weight=_ints(rng, -1, 1, (3, 8)), bias=_ints(rng, -2, 2, 3),
        in_scale=1.0, w_scale=1.0, out_scale=4.0, activation="identity",
        in_features=8, out_features=3,
    )
    qm = QuantizedModel(
        [stem, block, QFlatten(), fc], QuantConfig(4, 4, t=TEST_LOOP.t), 1.0,
        (1, 6, 6), name="ledger_narrow",
    )
    calib = _ints(np.random.default_rng(WEIGHT_SEED + 1), -2, 2,
                  (CALIBRATION_INPUTS, 1, 6, 6))
    qm.forward_int(calib)
    layers = qm.mac_layers()
    assign_lut_ranges(qm)
    for layer, headroom in zip(layers, NARROW_HEADROOM, strict=True):
        layer.lut_range += headroom
    return qm


def packed_cnn() -> QuantizedModel:
    """conv(1->1,k2) on 3x3 -> fc(4->2) at TEST_FBS: two images per
    ciphertext. Weights and biases are multiples of ``out_scale`` = 16, so
    every LUT input sits 8 from a rounding boundary. The refresh noise on it
    is a sum of at most lwe_n + 1 = 17 rounding errors of at most a half, so
    it cannot reach 8 and cannot flip an output: served answers are
    bit-exact (a step of 8 is missed by one once in 750 inferences). MACs
    stay within +-96, clear of the wrap at t // 2 = 128."""
    conv = QConv(
        weight=np.array([[[[16, 0], [0, 16]]]], dtype=np.int64),
        bias=np.array([16], dtype=np.int64), stride=1, pad=0, in_scale=1.0,
        w_scale=1.0, out_scale=16.0, activation="relu", in_shape=(1, 3, 3),
        out_shape=(1, 2, 2),
    )
    fc = QLinear(
        weight=np.array([[16, -16, 0, 0], [0, 0, 16, -16]], dtype=np.int64),
        bias=np.array([16, -16], dtype=np.int64), in_scale=1.0, w_scale=1.0,
        out_scale=16.0, activation="identity", in_features=4, out_features=2,
    )
    return QuantizedModel(
        [conv, QFlatten(), fc], QuantConfig(4, 4, t=TEST_FBS.t), 1.0,
        (1, 3, 3), name="ledger_packed",
    )


def input_stream(qm: QuantizedModel, seed: int):
    """Endless seeded inputs in [-2, 2].

    For a model with restricted LUT windows, inputs are rejection-sampled
    against a plaintext copy so every plaintext MAC stays inside the peak
    the model was calibrated to (``mac_peak`` as the builder left it; the
    whole margin of each window is then left to refresh noise): a wrong
    answer is the program's fault, never the input's.
    """
    rng = np.random.default_rng(seed)
    probe = copy.deepcopy(qm)
    windows = [
        (layer, layer.mac_peak) for layer in probe.mac_layers() if layer.lut_range
    ]
    return _draw(rng, probe, windows, qm.input_shape)


def _draw(rng, probe, windows, shape):
    while True:
        x = _ints(rng, -2, 2, shape)
        for layer, _ in windows:
            layer.mac_peak = 0
        if windows:
            probe.forward_int(x[None])
        if all(layer.mac_peak <= limit for layer, limit in windows):
            yield x
