"""Quickstart: BFV basics and a functional bootstrap in ~40 lines.

Run:  python examples/quickstart.py

Encrypts a vector, does homomorphic arithmetic, then evaluates a ReLU
lookup table on every slot at once via functional bootstrapping — the
operation at the heart of Athena.
"""

import numpy as np

from repro.fhe import BfvContext, FbsLut, Plaintext, TEST_FBS, fbs_evaluate

def main() -> None:
    params = TEST_FBS  # reduced-size parameters; same algebra as the paper's
    print(f"parameters: {params.describe()}")

    ctx = BfvContext(params, seed=2024)
    sk, pk = ctx.keygen()
    rlk = ctx.relin_key(sk)

    rng = np.random.default_rng(7)
    # Stay within the plaintext modulus after 3*x + 5 (t = 257, centered).
    values = rng.integers(-40, 41, params.n)
    print(f"plaintext slots: {values[:8]} ...")

    # Encrypt (slot-packed), then compute 3*x + 5 homomorphically.
    ct = ctx.encrypt(Plaintext.from_slots(values, params), pk)
    ct = ctx.smult(ct, 3)
    ct = ctx.add_plain(ct, Plaintext.from_slots(np.full(params.n, 5), params))
    decoded = ctx.decrypt(ct, sk).to_slots()
    centered = np.where(decoded > params.t // 2, decoded - params.t, decoded)
    assert np.array_equal(centered, 3 * values + 5)
    print(f"3*x + 5       : {centered[:8]} ...")

    # Functional bootstrapping: ReLU as an exact lookup table.
    ct = ctx.encrypt(Plaintext.from_slots(values, params), pk)
    relu = FbsLut.from_function(lambda x: np.maximum(x, 0), params.t, "relu")
    (out,) = fbs_evaluate(ctx, [ct], relu, rlk)
    decoded = ctx.decrypt(out, sk).to_slots()
    assert np.array_equal(decoded, np.maximum(values, 0) % params.t)
    print(f"FBS ReLU      : {decoded[:8]} ...")
    print(f"noise budget after FBS: {out.noise_budget_bits:.0f} bits")
    print("quickstart OK")


if __name__ == "__main__":
    main()
