"""Arbitrary non-linear functions under FHE via functional bootstrapping.

Run:  python examples/custom_activation.py

Athena's LUT mechanism supports *any* single-input non-linearity exactly —
not just polynomial-friendly ones. This example evaluates GELU, a quantized
sigmoid, and a custom "leaky hard-swish" on encrypted data, plus encrypted
max-pooling via the max-tree, all on the real BFV backend; then the
classifier softmax (exp LUT, reciprocal LUT, one CMult) through the
simulated engine.
"""

import numpy as np

from repro.core.inference import SimulatedAthenaEngine
from repro.core.lut import activation_lut, sigmoid_lut
from repro.fhe import ATHENA, BfvContext, FbsLut, Plaintext, TEST_FBS, fbs_evaluate
from repro.quant.models import build
from repro.quant.quantize import QMaxPool, QuantConfig, QuantizedModel, quantize_model


def main() -> None:
    params = TEST_FBS
    ctx = BfvContext(params, seed=11)
    sk, pk = ctx.keygen()
    rlk = ctx.relin_key(sk)
    rng = np.random.default_rng(5)
    x = rng.integers(-100, 101, params.n)

    def encrypted_apply(lut: FbsLut) -> np.ndarray:
        ct = ctx.encrypt(Plaintext.from_slots(x, params), pk)
        (out,) = fbs_evaluate(ctx, [ct], lut, rlk)
        dec = ctx.decrypt(out, sk).to_slots()
        return np.where(dec > params.t // 2, dec - params.t, dec)

    # 1. GELU, quantized to integer levels.
    gelu = activation_lut(
        lambda v: 0.5 * v * (1 + np.tanh(np.sqrt(2 / np.pi) * (0.05 * v + 0.044715 * (0.05 * v) ** 3))),
        params.t, in_scale=1.0, out_scale=1.0, name="gelu",
    )
    got = encrypted_apply(gelu)
    assert np.array_equal(got, gelu.apply_plain_signed(x))
    print(f"GELU        ok: x={x[:5]} -> {got[:5]}")

    # 2. Sigmoid to 100 levels.
    sig = sigmoid_lut(params.t, in_scale=0.08, out_levels=100)
    got = encrypted_apply(sig)
    assert np.array_equal(got, sig.apply_plain_signed(x))
    print(f"sigmoid     ok: x={x[:5]} -> {got[:5]}")

    # 3. A made-up activation: leaky hard-swish — any table works.
    def leaky_hard_swish(v):
        return np.where(v < -60, 0.05 * v, np.where(v > 60, v, v * (v + 60) / 120))

    swish = FbsLut.from_function(
        lambda v: np.rint(leaky_hard_swish(v.astype(float))).astype(np.int64),
        params.t, "leaky-hard-swish",
    )
    got = encrypted_apply(swish)
    assert np.array_equal(got, swish.apply_plain_signed(x))
    print(f"custom      ok: x={x[:5]} -> {got[:5]}")

    # 4. Max-pooling as a ReLU max-tree, max(a, b) = b + relu(a - b) over
    #    the window halves (the integer walker shown here; the encrypted
    #    version is one FBS per tree level — see the framework).
    image = rng.integers(-60, 60, (1, 2, 4, 4))
    pool = QuantizedModel([QMaxPool(2, 2)], QuantConfig(t=params.t), 1.0, (2, 4, 4))
    maxed = pool.forward_int(image)
    assert np.array_equal(maxed, image.reshape(1, 2, 2, 2, 2, 2).max(axis=(3, 5)))
    print(f"max-tree    ok: {image[0, 0, :2, :2].ravel()} -> {maxed[0, 0, 0, 0]}")
    print("all custom activations evaluated exactly under encryption")

    # 5. Softmax (paper section 3.2.3) at the classifier head: an exp LUT, a
    #    reciprocal LUT of the sum, one CMult — on the simulated engine, which
    #    adds the e_ms refresh noise to both LUT inputs.
    images = rng.normal(size=(8, 1, 28, 28))
    cnn = quantize_model(build("mnist_cnn", rng=rng, width=0.25), images,
                         QuantConfig(7, 7), "mnist_cnn")
    probs = SimulatedAthenaEngine(cnn, ATHENA, seed=1).infer_probs(images)
    logits = SimulatedAthenaEngine(cnn, ATHENA, seed=1).infer(images)
    assert np.allclose(probs.sum(axis=-1), 1.0)
    agree = (probs.argmax(axis=-1) == logits.argmax(axis=-1)).mean()
    print(f"softmax     ok: top-1 of the probabilities matches the logits on {agree:.0%}")


if __name__ == "__main__":
    main()
