"""One full Athena five-step loop on real ciphertexts.

Run:  python examples/encrypted_conv_loop.py

A small convolution is evaluated with coefficient encoding (Step 1), the
noise-control chain refreshes the result into LWE form (Steps 2-3), packing
returns it to slots (Step 4), and functional bootstrapping applies the
merged ReLU + requantization table (Step 5) — then S2C prepares the data
for the next layer. The decrypted result is compared against the plaintext
quantized reference: every deviation is at most one remap level (paper §3.3).
"""

import time

import numpy as np

from repro.core.encoding import (
    conv_via_coefficients,
    encode_features,
    encode_kernels,
    valid_output_positions,
)
from repro.core.framework import AthenaPipeline
from repro.core.lut import remap_lut
from repro.fhe.backend import CountingBackend, use_backend
from repro.fhe.params import TEST_LOOP


def main() -> None:
    params = TEST_LOOP
    print(f"parameters: {params.describe()}")
    t0 = time.time()
    pipe = AthenaPipeline(params, seed=99)
    print(f"key generation: {time.time() - t0:.1f}s")

    rng = np.random.default_rng(3)
    cin, cout, hw, wk = 1, 2, 6, 3
    image = rng.integers(-4, 5, (cin, hw, hw))
    kernel = rng.integers(-4, 5, (cout, cin, wk, wk))

    features = encode_features(image, params.n)
    kernels = encode_kernels(kernel, hw, hw, params.n)
    positions = valid_output_positions(cout, cin, hw, hw, wk, stride=1)
    lut = remap_lut(multiplier=0.25, activation="relu", a_max=63, t=params.t)

    ct = pipe.encrypt_coeffs(features)
    counting = CountingBackend()
    t0 = time.time()
    with use_backend(counting):
        out = pipe.loop(ct, kernels, lut, positions)
    ops = counting.ops_by_phase()
    print(
        f"five-step loop: {time.time() - t0:.1f}s "
        f"(PMult={ops['linear']['pmult']}, extractions={ops['se']['extract']}, "
        f"FBS SMult={ops['fbs']['smult']}, CMult={ops['fbs_giant']['cmult']})"
    )

    decrypted = pipe.decrypt_coeffs(out)[: positions.shape[0]]
    got = np.where(decrypted > params.t // 2, decrypted - params.t, decrypted)
    macs = conv_via_coefficients(image, kernel, params.n).reshape(-1)
    expected = lut.apply_plain_signed(macs)
    deviation = np.abs(got - expected)
    print(f"outputs      : {got[:10]}")
    print(f"plain quant  : {expected[:10]}")
    print(f"max |deviation| = {deviation.max()} (paper: at most 1)")
    print(f"exact matches  = {(deviation == 0).mean() * 100:.1f}%")
    assert deviation.max() <= 1


if __name__ == "__main__":
    main()
