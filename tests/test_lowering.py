"""The closed lowering pass and its ciphertext-path coverage.

Fast tier: subclasses of a Q-node lower like their base, the typed
:class:`~repro.errors.UnsupportedLayer` error and its CLI surface, and
grouped/depthwise conv equivalence across the plaintext and simulated
executors.

Slow tier: the real-ciphertext pipeline over every layer shape the
lowering covers — fused max-pool, interior padding, identity
and projection residuals, average/global-average pooling heads, grouped
convs, and a three-stage resnet56-style miniature — each checked against
the integer reference model.
"""

import numpy as np
import pytest

from repro.core.inference import AthenaNoiseModel, SimulatedAthenaEngine
from repro.core.plan import compile_program, program_fingerprint
from repro.core.program import lower
from repro.errors import QuantizationError, ReproError, UnsupportedLayer
from repro.fhe.params import TEST_LOOP
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
)
from tests.conftest import refresh_noise_bound

CFG = QuantConfig(4, 4, t=TEST_LOOP.t)


def _conv(rng, cin, cout, k, stride, pad, hw, act="relu", out_scale=8.0,
          wmax=2, out_max=None, groups=1):
    oh = (hw + 2 * pad - k) // stride + 1
    weight = rng.integers(-wmax, wmax + 1, (cout, cin, k, k)).astype(np.int64)
    if groups > 1:
        # Zero outside the block diagonal: the Q-IR stores the dense
        # equivalent of a grouped conv (execution is group-agnostic).
        gout, gin = cout // groups, cin // groups
        for o in range(cout):
            g = o // gout
            weight[o, : g * gin] = 0
            weight[o, (g + 1) * gin:] = 0
    return QConv(
        weight=weight,
        bias=rng.integers(-2, 3, cout).astype(np.int64),
        stride=stride, pad=pad, in_scale=1.0, w_scale=1.0,
        out_scale=out_scale, activation=act, groups=groups,
        in_shape=(cin, hw, hw), out_shape=(cout, oh, oh), out_max=out_max)


def _fc(rng, fin, fout, out_scale=2.0):
    return QLinear(
        weight=rng.integers(-1, 2, (fout, fin)).astype(np.int64),
        bias=rng.integers(-2, 3, fout).astype(np.int64),
        in_scale=1.0, w_scale=1.0, out_scale=out_scale,
        activation="identity", in_features=fin, out_features=fout)


# ---------------------------------------------------------------------------
# Closed lowering
# ---------------------------------------------------------------------------


class TestClosedLowering:
    def test_subclass_lowers_like_its_base(self):
        class FancyConv(QConv):
            pass

        rng = np.random.default_rng(0)
        conv = _conv(rng, 1, 1, 3, 1, 0, 6)
        tail = [QMaxPool(2, 2), QFlatten(), _fc(rng, 4, 3)]

        def steps(first):
            qm = QuantizedModel([first, *tail], CFG, 1.0, (1, 6, 6))
            return lower(qm, TEST_LOOP).steps

        def shape(steps):
            return [(s.kind, getattr(s, "op", None), getattr(s, "out_values", None))
                    for s in steps]

        base, fancy = steps(conv), steps(FancyConv(**vars(conv)))
        assert [s.name for s in fancy] == ["fancyconv0", "qflatten1", "qlinear2"]
        assert fancy[0].fused_pool is tail[0]  # the conv + max-pool fusion holds
        assert shape(fancy) == shape(base)

    def test_unknown_type_in_a_branch_names_its_index_and_type(self):
        class Mystery:
            pass

        rng = np.random.default_rng(0)
        block = QResidual(body=[_conv(rng, 1, 1, 3, 1, 1, 4), Mystery()],
                          shortcut=None, add_scale=1.0, out_scale=2.0)
        qm = QuantizedModel([block], CFG, 1.0, (1, 4, 4))
        with pytest.raises(UnsupportedLayer) as exc_info:
            lower(qm, TEST_LOOP)
        assert (exc_info.value.index, exc_info.value.layer_type) == (1, "Mystery")


class TestUnsupportedLayer:
    def test_typed_error_carries_index_and_type(self):
        class Mystery:
            pass

        rng = np.random.default_rng(0)
        qm = QuantizedModel(
            [_conv(rng, 1, 1, 3, 1, 0, 6), Mystery()], CFG, 1.0, (1, 6, 6))
        with pytest.raises(UnsupportedLayer) as exc_info:
            lower(qm, TEST_LOOP)
        exc = exc_info.value
        assert exc.index == 1
        assert exc.layer_type == "Mystery"
        # The typed error slots into the existing hierarchy (CLI catch-all).
        assert isinstance(exc, QuantizationError)
        assert isinstance(exc, ReproError)

    def test_cli_surfaces_clean_one_liner(self, capsys, monkeypatch):
        from repro import cli
        from repro.quant.subjects import SUBJECTS

        class Mystery:
            pass

        rng = np.random.default_rng(0)
        qm = QuantizedModel(
            [_conv(rng, 1, 1, 3, 1, 0, 6), Mystery()], CFG, 1.0, (1, 6, 6))
        monkeypatch.setitem(SUBJECTS, "mnist_cnn", (lambda rng: qm, TEST_LOOP))
        assert cli.main(["compile", "--params", "test-loop"]) == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        assert "repro: error: unsupported layer at layer 1 (Mystery)" in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Grouped / depthwise convs (fast: plaintext + simulated executors)
# ---------------------------------------------------------------------------


class TestGroupedConv:
    def _twins(self, groups):
        """A grouped conv model and its dense ``groups=1`` twin (identical
        dense-equivalent weights, so execution must be bit-identical)."""
        rng = np.random.default_rng(21)
        grouped = _conv(rng, 2, 2, 3, 1, 0, 5, out_scale=8.0, groups=groups)
        dense = QConv(**{**vars(grouped), "groups": 1})
        layers = lambda c: [c, QFlatten(), _fc(np.random.default_rng(22), 18, 3)]  # noqa: E731
        qm_g = QuantizedModel(layers(grouped), CFG, 1.0, (2, 5, 5))
        qm_d = QuantizedModel(layers(dense), CFG, 1.0, (2, 5, 5))
        return qm_g, qm_d

    @pytest.mark.parametrize("groups", [2])
    def test_plain_forward_matches_dense_twin(self, groups):
        qm_g, qm_d = self._twins(groups)
        x_q = np.random.default_rng(23).integers(-2, 3, (4, 2, 5, 5))
        assert np.array_equal(qm_g.forward_int(x_q), qm_d.forward_int(x_q))

    def test_depthwise_weight_shape_lowers(self):
        # Depthwise: groups == cin == cout, one 3x3 filter per channel.
        rng = np.random.default_rng(24)
        conv = _conv(rng, 2, 2, 3, 1, 0, 4, out_scale=8.0, groups=2)
        qm = QuantizedModel(
            [conv, QFlatten(), _fc(rng, 8, 3)], CFG, 1.0, (2, 4, 4))
        program = lower(qm, TEST_LOOP)
        assert program.steps[0].kind == "linear"
        compile_program(program, TEST_LOOP)  # artifacts fit TEST_LOOP

    def test_sim_engine_bit_identical_to_plain(self):
        qm_g, _ = self._twins(2)
        x = np.random.default_rng(25).integers(-2, 3, (4, 2, 5, 5))
        engine = SimulatedAthenaEngine(
            qm_g, params=TEST_LOOP, noise=AthenaNoiseModel(enabled=False))
        got = engine.infer(x.astype(np.float64))
        want = qm_g.forward_int(qm_g.quantize_input(x.astype(np.float64)))
        assert np.array_equal(got, want)

    def test_groups_fold_into_fingerprint(self):
        qm_g, qm_d = self._twins(2)
        fp_g = program_fingerprint(lower(qm_g, TEST_LOOP))
        fp_d = program_fingerprint(lower(qm_d, TEST_LOOP))
        # Same dense weights, different provenance: the topology is part
        # of the plan-cache key.
        assert fp_g != fp_d


# ---------------------------------------------------------------------------
# Real-ciphertext coverage of the lowering surface
# ---------------------------------------------------------------------------


def _run_ciphertext(layers, in_shape, seed=7, pipe_seed=41):
    """Lower, compile, and run one mini model through the real-ciphertext
    pipeline; assert the output within the refresh-noise bound of the
    integer reference and return the plan."""
    from repro.core.framework import AthenaPipeline

    rng = np.random.default_rng(seed)
    qm = QuantizedModel(layers, CFG, 1.0, in_shape)
    x_q = rng.integers(-2, 3, in_shape).astype(np.int64)
    ref = qm.forward_int(x_q[None])[0].reshape(-1)
    plan = compile_program(qm.program(), TEST_LOOP)
    pipe = AthenaPipeline(TEST_LOOP, seed=pipe_seed)
    got = pipe.run(plan, x_q)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= refresh_noise_bound(qm, TEST_LOOP)
    return plan


@pytest.mark.slow
class TestCiphertextCoverage:
    """Every layer shape the lowering covers, end to end under TEST_LOOP.

    Tolerance: :func:`tests.conftest.refresh_noise_bound` for each model —
    4 sigma of the logit error its last two refreshes cause, 4 to 9 LSB
    here (sigma is 1.0 to 2.0: the ±2 these tests used to assert was a
    one-to-two-sigma draw). A wrong rotation, LUT or layout lands anywhere
    in ±128 (see the noise notes in DESIGN.md).
    """

    def test_fused_conv_maxpool(self):
        r = np.random.default_rng(11)
        plan = _run_ciphertext([
            _conv(r, 1, 2, 3, 1, 1, 4, out_scale=6.0),
            QMaxPool(2, 2), QFlatten(), _fc(r, 8, 3),
        ], (1, 4, 4))
        assert plan.steps[0].pool_rounds  # the pool fused into the conv

    def test_interior_padded_conv(self):
        r = np.random.default_rng(12)
        _run_ciphertext([
            _conv(r, 1, 1, 3, 1, 0, 6, out_scale=6.0),
            _conv(r, 1, 2, 3, 1, 1, 4, out_scale=6.0),
            QFlatten(), _fc(r, 32, 3),
        ], (1, 6, 6))

    def test_identity_residual(self):
        r = np.random.default_rng(13)
        _run_ciphertext([
            _conv(r, 1, 1, 3, 1, 0, 6, out_scale=8.0),
            QResidual(
                body=[_conv(r, 1, 1, 3, 1, 1, 4, act="identity",
                            out_scale=6.0)],
                shortcut=None, add_scale=1.0, out_scale=2.0, skip_alpha=2),
            QFlatten(), _fc(r, 16, 3),
        ], (1, 6, 6))

    def test_projection_residual(self):
        r = np.random.default_rng(14)
        _run_ciphertext([
            _conv(r, 1, 1, 3, 1, 0, 6, out_scale=8.0),
            QResidual(
                body=[_conv(r, 1, 2, 3, 2, 1, 4, act="identity",
                            out_scale=6.0)],
                shortcut=[_conv(r, 1, 2, 1, 2, 0, 4, act="identity",
                                out_scale=6.0)],
                add_scale=1.0, out_scale=2.0, skip_alpha=1),
            QFlatten(), _fc(r, 8, 3),
        ], (1, 6, 6))

    def test_global_avgpool_head(self):
        r = np.random.default_rng(15)
        _run_ciphertext([
            _conv(r, 1, 2, 3, 1, 0, 6, out_scale=12.0, out_max=6),
            QGlobalAvgPool(spatial=16), _fc(r, 2, 3),
        ], (1, 6, 6))

    def test_avgpool(self):
        r = np.random.default_rng(16)
        _run_ciphertext([
            _conv(r, 1, 2, 3, 1, 0, 6, out_scale=10.0),
            QAvgPool(kernel=2, stride=2), QFlatten(), _fc(r, 8, 3),
        ], (1, 6, 6))

    def test_grouped_conv(self):
        r = np.random.default_rng(21)
        _run_ciphertext([
            _conv(r, 2, 2, 3, 1, 0, 5, out_scale=8.0, groups=2),
            QFlatten(), _fc(np.random.default_rng(22), 18, 3),
        ], (2, 5, 5), seed=23)

    def test_resnet56_style_mini(self):
        """Three-stage resnet56 topology in miniature: stem, identity
        residual, projection (stride-2) residual, GAP head, FC."""
        r = np.random.default_rng(31)
        _run_ciphertext([
            _conv(r, 1, 1, 3, 1, 0, 6, out_scale=8.0),
            QResidual(
                body=[_conv(r, 1, 1, 3, 1, 1, 4, act="identity",
                            out_scale=6.0)],
                shortcut=None, add_scale=1.0, out_scale=2.0, skip_alpha=2),
            QResidual(
                body=[_conv(r, 1, 2, 3, 2, 1, 4, act="identity",
                            out_scale=6.0)],
                shortcut=[_conv(r, 1, 2, 1, 2, 0, 4, act="identity",
                                out_scale=6.0)],
                add_scale=1.0, out_scale=2.0, skip_alpha=1),
            QGlobalAvgPool(spatial=4), _fc(r, 2, 3),
        ], (1, 6, 6))
