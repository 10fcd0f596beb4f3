"""The four hand-built micro models the tests, the CLI and the docs share.

Each builder draws its weights from a caller-seeded generator, so every
consumer that passes ``default_rng(SUBJECT_SEED)`` compiles the
byte-identical model (same ``program_fingerprint``, same plan-cache key).
:data:`SUBJECTS` names them with the parameter set each is sized for; it
is the one list behind ``repro compile`` / ``trace`` / ``serve``
``--model``.
"""

from __future__ import annotations

import numpy as np

from repro.fhe.params import TEST_FBS, TEST_LOOP, FheParams
from repro.quant.quantize import (
    QConv,
    QFlatten,
    QLinear,
    QResidual,
    QuantConfig,
    QuantizedModel,
)

#: The generator seed every named consumer builds a subject from.
SUBJECT_SEED = 5


def mnist_cnn_micro(rng: np.random.Generator) -> QuantizedModel:
    """conv(1->2, k3) on 6x6 -> flatten -> fc(32->3), sized for TEST_LOOP.

    The canonical micro model of the loop tests and the ``repro compile``
    CLI — always built from a caller-seeded generator so every consumer
    compiles the byte-identical model (same fingerprint)."""
    cfg = QuantConfig(4, 4, t=TEST_LOOP.t)
    conv = QConv(
        weight=rng.integers(-2, 3, (2, 1, 3, 3)).astype(np.int64),
        bias=rng.integers(-4, 5, 2).astype(np.int64),
        stride=1, pad=0, in_scale=1.0, w_scale=1.0, out_scale=12.0,
        activation="relu", in_shape=(1, 6, 6), out_shape=(2, 4, 4),
    )
    fc_w = rng.integers(-1, 2, (3, 32)).astype(np.int64)
    fc_w[:, rng.permutation(32)[:16]] = 0
    fc = QLinear(
        weight=fc_w, bias=rng.integers(-3, 4, 3).astype(np.int64),
        in_scale=1.0, w_scale=1.0, out_scale=2.0, activation="identity",
        in_features=32, out_features=3,
    )
    return QuantizedModel(
        [conv, QFlatten(), fc], cfg, 1.0, (1, 6, 6), name="mnist_cnn_micro"
    )


def resnet_block_micro(rng: np.random.Generator) -> QuantizedModel:
    """conv -> projection residual (stride-2 downsample) -> fc, TEST_LOOP-sized.

    The residual-family companion to :func:`mnist_cnn_micro`: a stem conv,
    one paper-style basic block with a strided body and a 1x1 projection
    shortcut, and a small head. Exercises the placed-layout compile path
    (both branches refresh into the join layout) that the plain micro model
    never reaches.
    """
    cfg = QuantConfig(4, 4, t=TEST_LOOP.t)

    def conv(cin, cout, k, stride, pad, hw, act, out_scale):
        oh = (hw + 2 * pad - k) // stride + 1
        return QConv(
            weight=rng.integers(-2, 3, (cout, cin, k, k)).astype(np.int64),
            bias=rng.integers(-2, 3, cout).astype(np.int64),
            stride=stride, pad=pad, in_scale=1.0, w_scale=1.0,
            out_scale=out_scale, activation=act,
            in_shape=(cin, hw, hw), out_shape=(cout, oh, oh),
        )

    stem = conv(1, 1, 3, 1, 0, 6, "relu", 8.0)
    block = QResidual(
        body=[conv(1, 2, 3, 2, 1, 4, "identity", 6.0)],
        shortcut=[conv(1, 2, 1, 2, 0, 4, "identity", 6.0)],
        add_scale=1.0, out_scale=2.0, skip_alpha=1,
    )
    # Coarse head scale: the fc sums 8 join outputs, so its output step
    # must cover the summed per-branch refresh noise or the micro model
    # amplifies TEST_LOOP's (deliberately large) noise into its logits.
    fc = QLinear(
        weight=rng.integers(-1, 2, (3, 8)).astype(np.int64),
        bias=rng.integers(-2, 3, 3).astype(np.int64),
        in_scale=1.0, w_scale=1.0, out_scale=4.0, activation="identity",
        in_features=8, out_features=3,
    )
    return QuantizedModel(
        [stem, block, QFlatten(), fc], cfg, 1.0, (1, 6, 6),
        name="resnet_block_micro",
    )


def serve_micro_cnn(rng: np.random.Generator) -> QuantizedModel:
    """conv(1->1, k3) on 4x4 -> flatten -> fc(4->2), sized for TEST_FBS.

    The serving smoke model: one full five-step round plus a fused tail at
    the smallest ring where the real backend runs in ~a second, so service
    tests and the ``repro serve`` demo stay fast. Always built from a
    caller-seeded generator so every consumer gets the byte-identical
    model (same fingerprint), mirroring :func:`mnist_cnn_micro`.
    """
    cfg = QuantConfig(4, 4, t=TEST_FBS.t)
    conv = QConv(
        weight=rng.integers(-2, 3, (1, 1, 3, 3)).astype(np.int64),
        bias=rng.integers(-2, 3, 1).astype(np.int64),
        stride=1, pad=0, in_scale=1.0, w_scale=1.0, out_scale=8.0,
        activation="relu", in_shape=(1, 4, 4), out_shape=(1, 2, 2),
    )
    fc = QLinear(
        weight=rng.integers(-1, 2, (2, 4)).astype(np.int64),
        bias=rng.integers(-2, 3, 2).astype(np.int64),
        in_scale=1.0, w_scale=1.0, out_scale=2.0, activation="identity",
        in_features=4, out_features=2,
    )
    return QuantizedModel(
        [conv, QFlatten(), fc], cfg, 1.0, (1, 4, 4), name="serve_micro"
    )


def pack_cnn(rng: np.random.Generator) -> QuantizedModel:
    """conv(1->1, k2) on 3x3 -> flatten -> fc(4->2): the batchable subject.

    Sized so two images fit in one TEST_FBS ciphertext (conv lane span 13,
    fc lane span 11, n=32 => ``batch_capacity == 2``) — the cross-user
    batching subject of the equivalence tests. Weights and biases
    are hand-placed multiples of ``out_scale`` so every LUT input sits a
    full quantization step away from a rounding boundary: the +-1 LWE
    refresh noise can never flip an output, making batched, single, and
    plain integer inference *bit-identical* (not merely close). The ``rng``
    parameter mirrors the other builders' signature; the model is fully
    deterministic.
    """
    del rng  # deterministic by design; see docstring
    cfg = QuantConfig(4, 4, t=TEST_FBS.t)
    conv = QConv(
        weight=np.array([[[[8, 0], [0, 8]]]], dtype=np.int64),
        bias=np.array([8], dtype=np.int64),
        stride=1, pad=0, in_scale=1.0, w_scale=1.0, out_scale=8.0,
        activation="relu", in_shape=(1, 3, 3), out_shape=(1, 2, 2),
    )
    fc = QLinear(
        weight=np.array([[8, -8, 0, 0], [0, 0, 8, 8]], dtype=np.int64),
        bias=np.array([8, -8], dtype=np.int64),
        in_scale=1.0, w_scale=1.0, out_scale=8.0, activation="identity",
        in_features=4, out_features=2,
    )
    return QuantizedModel(
        [conv, QFlatten(), fc], cfg, 1.0, (1, 3, 3), name="pack"
    )


#: CLI / docs name -> (builder, the parameter set the model is sized for).
SUBJECTS: dict[str, tuple] = {
    "mnist_cnn": (mnist_cnn_micro, TEST_LOOP),
    "resnet20_block": (resnet_block_micro, TEST_LOOP),
    "serve_micro": (serve_micro_cnn, TEST_FBS),
    "pack": (pack_cnn, TEST_FBS),
}


def micro_subject(name: str) -> tuple[QuantizedModel, FheParams]:
    """The named subject built from ``default_rng(SUBJECT_SEED)``, with its
    parameter set."""
    builder, params = SUBJECTS[name]
    return builder(np.random.default_rng(SUBJECT_SEED)), params
