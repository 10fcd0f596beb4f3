"""FBS output residues, pinned.

Every case evaluates one LUT (Algorithm 2) on fresh ciphertexts under a
fixed key seed and pins the sha256 of each output's ``c0`` / ``c1``
residues: a schedule refactor that claims bit-identity is checked here,
not asserted. The ladders of relu at t = 257 and t = 65537 and of one
range-restricted LUT are pinned the same way, and so are the t = 65537
interpolations (one multiplicative-group transform each) of relu and identity.
"""

import hashlib

import numpy as np
import pytest

from repro.fhe.bfv import BfvContext, Plaintext
from repro.fhe.fbs import FbsLut, evaluate_poly_all, fbs_evaluate, interpolate_range
from repro.fhe.params import TEST_FBS
from tests.test_packing_s2c_fbs import _poly_lut


def _luts(t: int) -> dict[str, FbsLut]:
    return {
        "relu": FbsLut.from_function(lambda x: np.maximum(x, 0), t, "relu"),
        "identity": FbsLut.from_function(lambda x: x, t, "identity"),
        "constant": FbsLut(np.full(t, 5), t, "constant"),
        # degree 23, bs 5: groups 1..3 are empty, group 4 is x^3 * giant.
        "interior-empty": _poly_lut({1: 2, 2: 1, 23: 3}, t, "interior-empty"),
        # degree 6, bs 3: group 2 is the constant 2 alone.
        "const-only-group": _poly_lut({0: 3, 1: 5, 4: 6, 6: 2}, t, "const-only-group"),
        "zero": FbsLut(np.zeros(t, dtype=np.int64), t, "zero"),
    }


def _digest(data: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(data, dtype=np.int64).tobytes()).hexdigest()[:16]


#: name -> one (c0, c1) digest pair per output ciphertext.
DIGESTS = {
    "relu": [("6595a69daec6d2eb", "725fed671c641732")],
    "identity": [("07c25fc1f3cb53ce", "e0bb933bcb34908c")],
    "constant": [("5ec8b7c2cc8e35c2", "e5a00aa9991ac8a5")],
    "interior-empty": [("a1cee7037951cad0", "8d269e4e5ed14efa")],
    "const-only-group": [("718594218829eb2b", "c46d9e566113f8d6")],
    "zero": [("e5a00aa9991ac8a5", "e5a00aa9991ac8a5")],
    "relu-stack-2": [("6595a69daec6d2eb", "725fed671c641732"),
                     ("59d507a88dd0c62e", "282703c3e36761e6")],
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_fbs_residues_are_pinned(name):
    lut_name, _, stack = name.partition("-stack-")
    count = int(stack or 1)
    ctx = BfvContext(TEST_FBS, seed=4747)
    sk, pk = ctx.keygen()
    rlk = ctx.relin_key(sk)
    p = ctx.params
    xs = np.random.default_rng(47).integers(0, p.t, (count, p.n))
    cts = [ctx.encrypt(Plaintext.from_slots(x, p), pk) for x in xs]
    lut = _luts(p.t)[lut_name]
    outs = fbs_evaluate(ctx, cts, lut, rlk)
    for x, out in zip(xs, outs):
        assert np.array_equal(ctx.decrypt(out, sk).to_slots(), lut.apply_plain(x))
    assert [(_digest(o.c0.data), _digest(o.c1.data)) for o in outs] == DIGESTS[name]


def _range_relu(r: int, t: int) -> FbsLut:
    pts = np.maximum(np.arange(-r, r + 1), 0)
    return FbsLut(evaluate_poly_all(interpolate_range(pts, r, t), t), t, "relu-window")


#: name -> (len(ladder), sha256 of its repr).
LADDERS = {
    "relu-257": (30, "e07a389ce0b993e5"),
    "relu-65537": (510, "2e8bf292a613c2ef"),
    "relu-window-20-65537": (10, "7aca8093275a7962"),
}


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_ladder_is_pinned(name):
    t = int(name.rsplit("-", 1)[1])
    lut = _range_relu(20, t) if "window" in name else _luts(t)["relu"]
    ladder = lut.plan.ladder
    digest = hashlib.sha256(repr(ladder).encode()).hexdigest()[:16]
    assert (len(ladder), digest) == LADDERS[name]


#: name -> sha256 of ``FbsLut.coeffs`` at t = 65537.
COEFFS_65537 = {
    "relu": "6ab02dc830531a79",
    "identity": "e4c773b2e9312cf3",
}


@pytest.mark.parametrize("name", sorted(COEFFS_65537))
def test_interpolation_is_pinned(name):
    lut = _luts(65537)[name]
    assert _digest(lut.coeffs) == COEFFS_65537[name]
    # The inverse transform (root g, not g^-1) gives the table back.
    assert np.array_equal(evaluate_poly_all(lut.coeffs, lut.t), lut.values)
