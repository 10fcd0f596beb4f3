"""Tests for LUT construction and the simulated Athena engine."""

import numpy as np
import pytest

from repro.core import lut as lutlib
from repro.core.inference import AthenaNoiseModel, SimulatedAthenaEngine
from repro.core.program import PlainIntExecutor, lut_spec
from repro.data import synthetic_digits
from repro.errors import ParameterError, QuantizationError
from repro.fhe.params import ATHENA
from repro.quant.models import mnist_cnn
from repro.quant.nn import Sgd, train_epoch
from repro.quant.quantize import (
    QConv,
    QFlatten,
    QMaxPool,
    QuantConfig,
    QuantizedModel,
    quantize_model,
)

T = 257  # small prime for fast exhaustive LUT checks


class TestRemapLut:
    def test_identity_multiplier_one(self):
        lut = lutlib.remap_lut(1.0, "identity", 63, T)
        x = np.arange(-63, 64)
        assert np.array_equal(lut.apply_plain_signed(x), x)

    def test_relu_clips_negative(self):
        lut = lutlib.remap_lut(1.0, "relu", 63, T)
        assert lut.apply_plain_signed(np.array([-5]))[0] == 0
        assert lut.apply_plain_signed(np.array([5]))[0] == 5

    def test_clipping_at_amax(self):
        lut = lutlib.remap_lut(1.0, "identity", 63, T)
        assert lut.apply_plain_signed(np.array([100]))[0] == 63
        assert lut.apply_plain_signed(np.array([-100]))[0] == -63

    def test_scaling(self):
        lut = lutlib.remap_lut(0.5, "relu", 63, T)
        assert lut.apply_plain_signed(np.array([10]))[0] == 5
        assert lut.apply_plain_signed(np.array([9]))[0] == 4  # round(4.5) banker's

    def test_matches_qconv_remap(self, rng):
        # The LUT and QConv.remap must agree everywhere on the MAC domain.
        layer = QConv(
            weight=np.zeros((1, 1, 1, 1), dtype=np.int64),
            bias=np.zeros(1, dtype=np.int64),
            stride=1, pad=0, in_scale=0.1, w_scale=0.05, out_scale=0.2,
            activation="relu", in_shape=(1, 4, 4), out_shape=(1, 4, 4),
        )
        cfg = QuantConfig(7, 7, t=T)
        lut = lut_spec(layer).build(cfg, T)
        macs = rng.integers(-T // 2, T // 2 + 1, 200)
        assert np.array_equal(
            lut.apply_plain_signed(macs), layer.remap(macs, cfg.a_max)
        )

    def test_unsupported_activation_raises(self):
        with pytest.raises(QuantizationError):
            lutlib.remap_lut(1.0, "swish", 63, T)


class TestActivationLuts:
    def test_relu_lut_centered(self):
        lut = lutlib.relu_lut(T)
        assert lut.apply_plain(np.array([T - 3]))[0] == 0  # -3 -> 0
        assert lut.apply_plain(np.array([3]))[0] == 3

    def test_sigmoid_monotone(self):
        lut = lutlib.sigmoid_lut(T, in_scale=0.1, out_levels=100)
        vals = lut.apply_plain_signed(np.arange(-100, 101))
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] < 10 and vals[-1] > 90

    def test_avgpool_divides(self):
        from repro.core.program import lut_spec
        from repro.quant.quantize import QAvgPool

        lut = lut_spec(QAvgPool(2, 2)).build(QuantConfig(t=T))
        assert lut.apply_plain_signed(np.array([100]))[0] == 25
        assert lut.apply_plain_signed(np.array([-100]))[0] == -25


class TestMaxTree:
    """The one max-tree, ``PlainIntExecutor._maxpool``, against numpy's max."""

    @staticmethod
    def _pool(x, kernel):
        walker = PlainIntExecutor(QuantConfig(t=T))
        return walker._maxpool(x, QMaxPool(kernel, kernel))

    def test_matches_numpy_max(self, rng):
        x = rng.integers(-60, 60, (2, 3, 4, 4))
        want = x.reshape(2, 3, 2, 2, 2, 2).max(axis=(3, 5))
        assert np.array_equal(self._pool(x, 2), want)

    def test_odd_width(self, rng):
        # A 3x3 window: nine values leave an odd tail at three tree levels.
        x = rng.integers(-60, 60, (2, 3, 6, 6))
        want = x.reshape(2, 3, 2, 3, 2, 3).max(axis=(3, 5))
        assert np.array_equal(self._pool(x, 3), want)


class TestSoftmax:
    def test_plain_softmax_ranks_match(self, rng):
        exp_lut, inv_lut, inv_levels = lutlib.softmax_luts(65537, in_scale=0.05)
        logits = rng.integers(-60, 60, (20, 10))
        probs = lutlib.softmax_plain(logits, exp_lut, inv_lut, inv_levels, 65537)
        assert np.allclose(probs.sum(axis=-1), 1, atol=1e-6)
        assert np.array_equal(probs.argmax(axis=-1), logits.argmax(axis=-1))


class TestNoiseModel:
    def test_paper_std_magnitude(self):
        nm = AthenaNoiseModel(ATHENA)
        # sqrt((2n/3 + 1)/12) ~ 10.7 for n = 2048 (the "~4 bits" of §3.3)
        assert 8 < nm.std < 14

    def test_disabled_is_zero(self, rng):
        nm = AthenaNoiseModel(ATHENA, enabled=False)
        assert not np.any(nm.sample(rng, (100,)))

    def test_sampling_std(self, rng):
        nm = AthenaNoiseModel(ATHENA)
        samples = nm.sample(rng, (20000,))
        assert nm.std * 0.9 < samples.std() < nm.std * 1.1


@pytest.fixture(scope="module")
def engine_setup():
    rng = np.random.default_rng(0)
    x, y = synthetic_digits(1200, rng)
    model = mnist_cnn(rng=np.random.default_rng(1))
    opt = Sgd(lr=0.05)
    for _ in range(5):
        train_epoch(model, x, y, opt, rng=rng)
    qm = quantize_model(model, x[:128], QuantConfig(7, 7), "mnist_cnn")
    return qm, x, y


class TestSimulatedEngine:
    def test_noiseless_equals_plain_quant(self, engine_setup):
        qm, x, y = engine_setup
        engine = SimulatedAthenaEngine(
            qm, ATHENA, noise=AthenaNoiseModel(ATHENA, enabled=False)
        )
        assert np.array_equal(engine.infer(x[:32]), qm.forward_float(x[:32]))

    def test_noisy_accuracy_close(self, engine_setup):
        qm, x, y = engine_setup
        engine = SimulatedAthenaEngine(qm, ATHENA, seed=5)
        plain = qm.accuracy(x[:300], y[:300])
        cipher = engine.accuracy(x[:300], y[:300])
        assert abs(plain - cipher) < 0.03  # the Table 5 property

    def test_stats_recorded(self, engine_setup):
        qm, x, _ = engine_setup
        engine = SimulatedAthenaEngine(qm, ATHENA, seed=5)
        _, stats = engine.infer_with_stats(x[:16])
        assert sum(s.lut_evals for s in stats.layers) > 0
        mac_layers = [s for s in stats.layers if s.total > 0]
        assert all(s.mac_peak > 0 for s in mac_layers)
        # Fig. 4 regime: error ratios are bounded (paper: max ~11%)
        assert max(s.error_ratio for s in stats.layers) < 0.30

    def test_error_ratio_grows_with_noise(self, engine_setup):
        qm, x, _ = engine_setup
        quiet = SimulatedAthenaEngine(
            qm, ATHENA, seed=5, noise=AthenaNoiseModel(ATHENA, secret_norm_sq=100)
        )
        loud = SimulatedAthenaEngine(
            qm, ATHENA, seed=5, noise=AthenaNoiseModel(ATHENA, secret_norm_sq=900000)
        )
        _, s_quiet = quiet.infer_with_stats(x[:32])
        _, s_loud = loud.infer_with_stats(x[:32])
        worst = [max(s.error_ratio for s in st.layers) for st in (s_loud, s_quiet)]
        assert worst[0] > worst[1]

    def test_deterministic_given_seed(self, engine_setup):
        qm, x, _ = engine_setup
        a = SimulatedAthenaEngine(qm, ATHENA, seed=9).infer(x[:8])
        b = SimulatedAthenaEngine(qm, ATHENA, seed=9).infer(x[:8])
        assert np.array_equal(a, b)

    def test_refuses_a_model_quantized_for_another_t(self):
        # forward_int wraps at config.t, the engine at params.t: a mismatch
        # would break noise-free == forward_int without a word.
        qm = QuantizedModel([QFlatten()], QuantConfig(4, 4, t=257), 1.0, (1, 2, 2))
        with pytest.raises(ParameterError, match="t = 257"):
            SimulatedAthenaEngine(qm, ATHENA)
