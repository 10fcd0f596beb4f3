"""Tests for PTQ calibration, BN folding, and integer inference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import synthetic_cifar, synthetic_digits
from repro.quant.models import build, input_shape, lenet, mnist_cnn, resnet20
from repro.quant.nn import BatchNorm2d, Conv2d, ReLU, Sequential, Sgd, train_epoch
from repro.quant.quantize import (
    QConv,
    QLinear,
    QResidual,
    QuantConfig,
    _wrap_t,
    fold_batchnorm,
    quantize_model,
)
from tests.conftest import remap_multiplier


@pytest.fixture(scope="module")
def trained_mnist():
    rng = np.random.default_rng(0)
    x, y = synthetic_digits(1200, rng)
    model = mnist_cnn(rng=np.random.default_rng(1))
    opt = Sgd(lr=0.05)
    for _ in range(4):
        train_epoch(model, x, y, opt, rng=rng)
    return model, x, y


@pytest.fixture(scope="module")
def trained_resnet_tiny():
    rng = np.random.default_rng(2)
    x, y = synthetic_cifar(400, rng)
    model = resnet20(rng=np.random.default_rng(3), width=0.25)
    opt = Sgd(lr=0.05)
    train_epoch(model, x, y, opt, batch_size=32, rng=rng)
    return model, x, y


class TestQuantConfig:
    def test_ranges(self):
        cfg = QuantConfig(7, 7)
        assert cfg.w_max == 63 and cfg.a_max == 63
        assert cfg.label == "w7a7"

    def test_asymmetric(self):
        cfg = QuantConfig(6, 7)
        assert cfg.w_max == 31 and cfg.a_max == 63


class TestBatchNormFolding:
    def test_fold_preserves_function(self, rng):
        conv = Conv2d(3, 4, 3, 1, 1, bias=False, rng=rng)
        bn = BatchNorm2d(4)
        x = rng.normal(size=(8, 3, 6, 6))
        # give BN non-trivial running stats
        seq = Sequential(conv, bn, ReLU())
        for _ in range(30):
            seq.forward(x, train=True)
        bn.gamma[:] = rng.uniform(0.5, 1.5, 4)
        bn.beta[:] = rng.uniform(-0.5, 0.5, 4)
        folded = fold_batchnorm(seq)
        assert len(folded.layers) == 2  # conv+relu
        assert np.allclose(folded.forward(x), seq.forward(x, train=False), atol=1e-8)

    def test_fold_inside_residual(self, trained_resnet_tiny):
        model, x, _ = trained_resnet_tiny
        folded = fold_batchnorm(model)
        assert np.allclose(folded.forward(x[:8]), model.forward(x[:8]), atol=1e-6)


class TestQuantizedInference:
    def test_accuracy_close_to_float(self, trained_mnist):
        model, x, y = trained_mnist
        from repro.quant.nn import accuracy

        fa = accuracy(model, x[:400], y[:400])
        qm = quantize_model(model, x[:256], QuantConfig(7, 7))
        qa = qm.accuracy(x[:400], y[:400])
        assert abs(fa - qa) < 0.05

    def test_w6a7_close(self, trained_mnist):
        model, x, y = trained_mnist
        qm = quantize_model(model, x[:256], QuantConfig(6, 7))
        assert qm.accuracy(x[:400], y[:400]) > 0.8

    def test_weights_within_range(self, trained_mnist):
        model, x, _ = trained_mnist
        cfg = QuantConfig(7, 7)
        qm = quantize_model(model, x[:64], cfg)
        for layer in qm.layers:
            if isinstance(layer, (QConv, QLinear)):
                assert np.abs(layer.weight).max() <= cfg.w_max

    def test_activations_within_range(self, trained_mnist):
        model, x, _ = trained_mnist
        cfg = QuantConfig(7, 7)
        qm = quantize_model(model, x[:64], cfg)
        xq = qm.quantize_input(x[:16])
        assert np.abs(xq).max() <= cfg.a_max
        logits = qm.forward_int(xq)
        assert logits.dtype == np.int64

    def test_mac_peaks_recorded(self, trained_mnist):
        model, x, _ = trained_mnist
        qm = quantize_model(model, x[:64], QuantConfig(7, 7))
        qm.forward_float(x[:32])
        assert qm.max_mac() > 0
        assert all(l.mac_peak >= 0 for l in qm.mac_layers())

    def test_check_t_for_paper_config(self, trained_mnist):
        model, x, _ = trained_mnist
        qm = quantize_model(model, x[:64], QuantConfig(7, 7))
        qm.forward_float(x[:128])
        assert qm.check_t()

    def test_deterministic(self, trained_mnist):
        model, x, _ = trained_mnist
        qm = quantize_model(model, x[:64], QuantConfig(7, 7))
        a = qm.forward_float(x[:8])
        b = qm.forward_float(x[:8])
        assert np.array_equal(a, b)

    def test_residual_ir_structure(self, trained_resnet_tiny):
        model, x, _ = trained_resnet_tiny
        qm = quantize_model(model, x[:32], QuantConfig(7, 7))
        residuals = [l for l in qm.layers if isinstance(l, QResidual)]
        assert len(residuals) == 9  # 3 stages x 3 blocks
        # stride-2 stage transitions have projection shortcuts
        assert sum(1 for r in residuals if r.shortcut) == 2
        # pre-add branch tails remap with identity activation
        for r in residuals:
            assert r.body[-1].activation == "identity"

    def test_resnet_quant_accuracy(self, trained_resnet_tiny):
        model, x, y = trained_resnet_tiny
        from repro.quant.nn import accuracy

        fa = accuracy(model, x[:200], y[:200])
        qm = quantize_model(model, x[:64], QuantConfig(7, 7))
        assert abs(fa - qm.accuracy(x[:200], y[:200])) < 0.08

    def test_lenet_pipeline(self):
        rng = np.random.default_rng(5)
        x, y = synthetic_digits(400, rng)
        model = lenet(rng=np.random.default_rng(6), width=0.5)
        opt = Sgd(lr=0.05)
        train_epoch(model, x, y, opt, rng=rng)
        qm = quantize_model(model, x[:64], QuantConfig(7, 7))
        logits = qm.forward_float(x[:16])
        assert logits.shape == (16, 10)


class TestWrapSemantics:
    def test_wrap_identity_in_range(self):
        t = 65537
        mac = np.array([0, 100, -100, t // 2, -(t // 2)])
        assert np.array_equal(_wrap_t(mac, t), mac)

    def test_wrap_overflows(self):
        t = 65537
        assert _wrap_t(np.array([t // 2 + 1]), t)[0] == -(t // 2)
        assert _wrap_t(np.array([t]), t)[0] == 0

    def test_wrap_matches_ring_semantics(self, rng):
        t = 257
        vals = rng.integers(-10 * t, 10 * t, 100)
        wrapped = _wrap_t(vals, t)
        assert np.array_equal(wrapped % t, vals % t)
        assert np.abs(wrapped).max() <= t // 2


class TestModelBuilders:
    @pytest.mark.parametrize("name", ["mnist_cnn", "lenet", "resnet20", "resnet56"])
    def test_forward_shapes(self, name):
        model = build(name, rng=np.random.default_rng(0), width=0.25)
        c, h, w = input_shape(name)
        out = model.forward(np.random.default_rng(1).normal(size=(2, c, h, w)))
        assert out.shape == (2, 10)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build("vgg16")

    def test_resnet20_conv_count(self):
        from repro.quant.nn import Conv2d as C

        model = build("resnet20", rng=np.random.default_rng(0))

        def count(layers):
            n = 0
            for l in layers:
                if isinstance(l, C):
                    n += 1
                elif hasattr(l, "body"):
                    n += count(l.body.layers)
                    if l.shortcut:
                        n += count(l.shortcut.layers)
                elif hasattr(l, "layers"):
                    n += count(l.layers)
            return n

        # 19 backbone convolutions + 2 projection shortcuts
        assert count(model.layers) == 21


class TestFoldWithoutBatchNorm:
    def test_conv_only_model_unchanged(self, rng):
        """Folding is the identity on models with no BN layers."""
        from repro.quant.nn import Flatten, Linear

        seq = Sequential(
            Conv2d(2, 3, 3, 1, 1, rng=rng), ReLU(), Flatten(), Linear(48, 4, rng=rng)
        )
        folded = fold_batchnorm(seq)
        assert [type(l) for l in folded.layers] == [type(l) for l in seq.layers]
        x = rng.normal(size=(5, 2, 4, 4))
        assert np.array_equal(folded.forward(x), seq.forward(x))
        # The copy shares no mutable layer state with the original.
        folded.layers[0].weight[:] += 1.0
        assert not np.allclose(folded.forward(x), seq.forward(x))

    def test_residual_without_bn(self, rng):
        from repro.quant.nn import Residual

        body = Sequential(Conv2d(2, 2, 3, 1, 1, bias=True, rng=rng), ReLU())
        model = Sequential(Residual(body, None))
        folded = fold_batchnorm(model)
        x = rng.normal(size=(3, 2, 5, 5))
        assert np.allclose(folded.forward(x), model.forward(x))


class TestRemapMultiplierRounding:
    def _linear(self, out_scale, bits=None, activation="identity"):
        from repro.quant.quantize import LayerQuantConfig, QLinear

        return QLinear(
            weight=np.eye(1, dtype=np.int64),
            bias=np.zeros(1, dtype=np.int64),
            in_scale=0.5,
            w_scale=0.25,
            out_scale=out_scale,
            activation=activation,
            in_features=1,
            out_features=1,
            bits=LayerQuantConfig(*bits) if bits else None,
        )

    def test_two_bit_clips_to_unit_range(self):
        # multiplier = 0.5*0.25/0.125 = 1: the remap is the identity before
        # the clip, and a 2-bit activation clamps to {-1, 0, 1}.
        lin = self._linear(out_scale=0.125, bits=(2, 2))
        assert remap_multiplier(lin) == pytest.approx(1.0)
        mac = np.arange(-5, 6)
        out = lin.remap(mac, a_max=63)  # per-layer bound must win over a_max
        assert np.array_equal(out, np.clip(mac, -1, 1))

    def test_ten_bit_preserves_exact_rounding(self):
        # multiplier = 0.5: half-integer products round to even (np.rint),
        # and the 10-bit bound (511) never clips in this range.
        lin = self._linear(out_scale=0.25, bits=(10, 10))
        assert remap_multiplier(lin) == pytest.approx(0.5)
        mac = np.arange(-7, 8)
        out = lin.remap(mac, a_max=3)
        assert np.array_equal(out, np.rint(mac * 0.5).astype(np.int64))
        assert out.max() == 4  # exceeds the 3-bit model default: bits won
        # Explicit half-even cases: 1.5 -> 2, 0.5 -> 0, -2.5 -> -2.
        assert list(lin.remap(np.array([3, 1, -5]), a_max=3)) == [2, 0, -2]

    def test_relu_composes_with_bits(self):
        lin = self._linear(out_scale=0.125, bits=(2, 2), activation="relu")
        out = lin.remap(np.arange(-5, 6), a_max=63)
        assert out.min() == 0 and out.max() == 1


class TestPerLayerBitsAgreement:
    @pytest.fixture(scope="class")
    def linear_subject(self):
        from repro.quant.nn import Linear

        rng = np.random.default_rng(11)
        x = rng.normal(size=(96, 6))
        y = rng.integers(0, 3, size=96)
        model = Sequential(
            Linear(6, 5, rng=rng), ReLU(), Linear(5, 3, rng=rng)
        )
        opt = Sgd(lr=0.05)
        for _ in range(3):
            train_epoch(model, x, y, opt, rng=rng)
        return model, x, QuantConfig(6, 6, t=65537)

    @given(
        w0=st.integers(2, 6), a0=st.integers(2, 6),
        w1=st.integers(2, 6), a1=st.integers(2, 6),
    )
    @settings(max_examples=10, deadline=None)
    def test_int_forward_matches_float_emulation(self, linear_subject,
                                                 w0, a0, w1, a1):
        """Integer inference (mod-t) equals unwrapped float64 emulation.

        Under any per-layer bit assignment the tracked calibration must
        choose scales that keep every MAC inside t//2, so the wrapped
        integer pipeline and a float-domain replay of the same quantized
        nodes agree exactly.
        """
        from repro.quant.mp import MpConfig
        from repro.quant.quantize import LayerQuantConfig

        model, x, config = linear_subject
        mp = MpConfig.from_dict({
            "linear0": LayerQuantConfig(w0, a0),
            "linear1": LayerQuantConfig(w1, a1),
        })
        qm = quantize_model(model, x, config, name="m", mp=mp)
        x_q = qm.quantize_input(x[:16])
        got = qm.forward_int(x_q)

        h = x_q.astype(np.float64)
        for node in qm.layers:
            mac = h @ node.weight.T.astype(np.float64) + node.bias
            h = node.remap(mac, config.a_max).astype(np.float64)
        assert np.array_equal(got, h.astype(np.int64))
