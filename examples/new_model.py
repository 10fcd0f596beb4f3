"""A model the paper never benchmarks runs unchanged (paper section 3.4).

Run:  python examples/new_model.py

Athena claims generality: a new CNN needs only its layer mapping and its
LUTs. Two models outside the paper's benchmarks — a VGG-style CNN with an
average pool, and a depthwise-separable CNN with grouped convolutions — are
trained for one epoch, quantized at w7a7, costed at the paper's parameters
and run through the simulated engine, which adds the refresh noise of every
LUT round.
"""

import numpy as np

from repro.core.inference import SimulatedAthenaEngine
from repro.core.trace import trace_model
from repro.data import synthetic_cifar, synthetic_digits
from repro.fhe.params import ATHENA
from repro.quant.models import build, input_shape
from repro.quant.nn import Sgd, train_epoch
from repro.quant.quantize import QuantConfig, quantize_model


def main() -> None:
    rng = np.random.default_rng(3)
    for name in ("vgg_lite", "mobile_cnn"):
        data = synthetic_digits if input_shape(name) == (1, 28, 28) else synthetic_cifar
        x, y = data(64, rng)
        model = build(name, rng=rng, width=0.25)
        train_epoch(model, x, y, Sgd(lr=0.05), rng=rng)
        qm = quantize_model(model, x, QuantConfig(7, 7), name)
        ops = trace_model(qm, ATHENA).totals()
        noisy = SimulatedAthenaEngine(qm, ATHENA, seed=1).infer(x[:16])
        exact = qm.forward_int(qm.quantize_input(x[:16]))
        agree = (noisy.argmax(axis=1) == exact.argmax(axis=1)).mean()
        print(f"{name:<10} fits t: {qm.check_t()}, {ops.ntt:.3g} NTTs at N = {ATHENA.n}, "
              f"top-1 under noise matches the integer model on {agree:.0%}")


if __name__ == "__main__":
    main()
