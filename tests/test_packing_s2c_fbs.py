"""Tests for LWE packing, slot-to-coefficient, and functional bootstrapping."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.fhe import bfv as bfv_module
from repro.fhe import lwe
from repro.fhe.backend import (
    BATCHED,
    SERIAL,
    BatchedBackend,
    CountingBackend,
    use_backend,
)
from repro.fhe.bfv import BfvContext, Plaintext
from repro.fhe.fbs import (
    FbsLut,
    FbsPlan,
    evaluate_poly_plain,
    fbs_evaluate,
    interpolate_lut,
)
from repro.fhe.packing import (
    MatvecPlan,
    PackingKey,
    hypercube_diagonals,
    hypercube_matvec,
    pack_lwe,
)
from repro.fhe.params import TEST_FBS, TEST_LOOP
from repro.fhe.serialize import dump_ciphertext, load_ciphertext
from repro.fhe.s2c import (
    S2CKey,
    S2CPlan,
    _evaluation_matrix,
    _slot_points,
    slot_to_coeff,
)
from repro.fhe.slots import slot_decode
from repro.utils.sampling import Sampler


def make_lwe_batch(rng, count, dim, t, secret, noise_std=1.0, messages=None):
    """Synthesize an LWE batch encrypting ``messages`` under ``secret``."""
    if messages is None:
        messages = rng.integers(0, t, count)
    a = rng.integers(0, t, (count, dim)).astype(np.int64)
    e = np.rint(rng.normal(0, noise_std, count)).astype(np.int64)
    b = (messages + e - (a @ secret)) % t
    return lwe.LweBatch(a, b.astype(np.int64), t), messages, e


@pytest.fixture(scope="module")
def packing_setup(tiny_ctx, tiny_keys):
    sk, pk = tiny_keys
    samp = Sampler(7)
    s_small = samp.ternary(tiny_ctx.params.lwe_n)
    pkey = PackingKey.generate(tiny_ctx, s_small, sk, pk)
    return tiny_ctx, sk, pk, s_small, pkey


class TestPacking:
    def test_full_batch_exact(self, packing_setup, rng):
        ctx, sk, _, s_small, pkey = packing_setup
        p = ctx.params
        batch, m, e = make_lwe_batch(rng, p.n, p.lwe_n, p.t, s_small)
        packed = pack_lwe(ctx, batch, pkey)
        dec = ctx.decrypt(packed, sk).to_slots()
        # Packing performs homomorphic decryption: slots hold m + e exactly.
        assert np.array_equal(dec, (m + e) % p.t)

    def test_partial_batch_zero_pads(self, packing_setup, rng):
        ctx, sk, _, s_small, pkey = packing_setup
        p = ctx.params
        count = p.n // 4
        batch, m, e = make_lwe_batch(rng, count, p.lwe_n, p.t, s_small)
        dec = ctx.decrypt(pack_lwe(ctx, batch, pkey), sk).to_slots()
        assert np.array_equal(dec[:count], (m + e) % p.t)

    def test_noiseless_lwe_packs_exactly(self, packing_setup, rng):
        ctx, sk, _, s_small, pkey = packing_setup
        p = ctx.params
        batch, m, _ = make_lwe_batch(rng, p.n, p.lwe_n, p.t, s_small, noise_std=0.0)
        dec = ctx.decrypt(pack_lwe(ctx, batch, pkey), sk).to_slots()
        assert np.array_equal(dec, m % p.t)

    def test_all_zero_matrix_is_the_transparent_zero(self, packing_setup):
        """No live diagonal: a noiseless zero, not an SMult-by-0 that pays
        log2(t) noise bits on a live ciphertext for a constant."""
        ctx, sk, *_, pkey = packing_setup
        p = ctx.params
        plan = MatvecPlan.build(
            np.zeros((p.n // 2, p.n), dtype=np.int64), p, pkey.baby_steps)
        assert plan.groups == () and plan.derived == ()
        out = hypercube_matvec(ctx, pkey.encrypted_secret, plan, pkey.rotation_keys)
        assert out.noise_bits == 0.0
        assert not ctx.decrypt(out, sk).to_slots().any()

    @pytest.mark.parametrize("params", [TEST_FBS, TEST_LOOP], ids=lambda p: p.name)
    def test_diagonals_equal_the_row_by_row_loop(self, params):
        """The broadcast gather against a frozen copy of the loop it
        replaced: same values, same C order, any block shapes up to N/2."""

        def loop(top, bot, half):
            top, bot = (np.pad(m, ((0, half - m.shape[0]), (0, half - m.shape[1])))
                        for m in (top, bot))
            i = np.arange(half)
            diags = np.empty((half, 2 * half), dtype=np.int64)
            for d in range(half):
                cols = (i + d) % half
                diags[d, :half] = top[i, cols]
                diags[d, half:] = bot[i, cols]
            return diags

        half = params.n // 2
        rng = np.random.default_rng(params.n)
        shapes = [(half, half), (1, 1), (half, 3), (5, half), (0, half)]
        shapes += [tuple(rng.integers(0, half + 1, 2)) for _ in range(6)]
        for shape in shapes:
            top = rng.integers(-params.t, params.t, (max(shape[0], 1), shape[1]))
            bot = rng.integers(-params.t, params.t, shape)  # may be empty
            got = hypercube_diagonals(top, bot, half)
            assert np.array_equal(got, loop(top, bot, half))
            assert got.dtype == np.int64 and got.flags.c_contiguous

    def test_wrong_modulus_raises(self, packing_setup):
        ctx, *_, pkey = packing_setup
        bad = lwe.LweBatch(
            np.zeros((1, ctx.params.lwe_n), dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            31,
        )
        with pytest.raises(ParameterError):
            pack_lwe(ctx, bad, pkey)

    def test_too_many_ciphertexts_raises(self, packing_setup, rng):
        ctx, _, _, s_small, pkey = packing_setup
        p = ctx.params
        batch, *_ = make_lwe_batch(rng, p.n + 1, p.lwe_n, p.t, s_small)
        with pytest.raises(ParameterError):
            pack_lwe(ctx, batch, pkey)


class TestS2C:
    def test_evaluation_matrix_consistency(self):
        # slots = P @ coeffs must agree with the NTT-based slot_decode.
        n, t = 32, 257
        rng = np.random.default_rng(0)
        coeffs = rng.integers(0, t, n)
        p = _evaluation_matrix(n, t)
        via_matrix = (p @ coeffs) % t
        assert np.array_equal(via_matrix, slot_decode(coeffs, n, t))

    def test_slot_points_distinct(self):
        pts = _slot_points(32, 257)
        assert len(set(int(x) for x in pts)) == 32

    def test_s2c_moves_slots_to_coeffs(self, tiny_ctx, tiny_keys, rng):
        ctx = tiny_ctx
        sk, pk = tiny_keys
        p = ctx.params
        key = S2CKey.generate(ctx, sk)
        v = rng.integers(0, p.t, p.n)
        ct = ctx.encrypt(Plaintext.from_slots(v, p), pk)
        out = slot_to_coeff(ctx, ct, key)
        assert np.array_equal(ctx.decrypt(out, sk).coeffs, v % p.t)

    def test_one_body_with_or_without_a_plan(self, tiny_ctx, tiny_keys, rng):
        """No plan passed: the same plan is built on the spot and the same
        body runs — bit-identical ciphertexts, equal noise estimates."""
        ctx = tiny_ctx
        sk, pk = tiny_keys
        p = ctx.params
        key = S2CKey.generate(ctx, sk)
        ct = ctx.encrypt(Plaintext.from_slots(rng.integers(0, p.t, p.n), p), pk)
        bare = slot_to_coeff(ctx, ct, key)
        planned = slot_to_coeff(ctx, ct, key, plan=S2CPlan.build(p, key.baby_steps))
        assert bare.c0 == planned.c0 and bare.c1 == planned.c1
        assert bare.noise_bits == planned.noise_bits
        with pytest.raises(ParameterError, match="different baby steps"):
            slot_to_coeff(ctx, ct, key, plan=S2CPlan.build(p, key.baby_steps * 2))

    def test_s2c_linear(self, tiny_ctx, tiny_keys, rng):
        ctx = tiny_ctx
        sk, pk = tiny_keys
        p = ctx.params
        key = S2CKey.generate(ctx, sk)
        v1 = rng.integers(0, p.t, p.n)
        v2 = rng.integers(0, p.t, p.n)
        c1 = ctx.encrypt(Plaintext.from_slots(v1, p), pk)
        c2 = ctx.encrypt(Plaintext.from_slots(v2, p), pk)
        out = slot_to_coeff(ctx, ctx.add(c1, c2), key)
        assert np.array_equal(ctx.decrypt(out, sk).coeffs, (v1 + v2) % p.t)


class TestLutInterpolation:
    @pytest.mark.parametrize("t", [5, 17, 257])
    def test_exhaustive(self, t):
        rng = np.random.default_rng(t)
        vals = rng.integers(0, t, t)
        coeffs = interpolate_lut(vals, t)
        assert np.array_equal(evaluate_poly_plain(coeffs, np.arange(t), t), vals)

    def test_paper_relu_example(self):
        # Paper §3.2.3: t=5, ReLU LUT -> FBS(x) = 3x + x^2 + 2x^4.
        coeffs = interpolate_lut(np.array([0, 1, 2, 0, 0]), 5)
        assert list(coeffs) == [0, 3, 1, 0, 2]

    def test_constant_lut(self):
        coeffs = interpolate_lut(np.full(17, 5), 17)
        assert np.array_equal(evaluate_poly_plain(coeffs, np.arange(17), 17), np.full(17, 5))

    def test_identity_lut(self):
        t = 17
        coeffs = interpolate_lut(np.arange(t), t)
        # identity is the degree-1 polynomial x
        expected = np.zeros(t, dtype=np.int64)
        expected[1] = 1
        assert np.array_equal(coeffs, expected)

    def test_wrong_size_raises(self):
        with pytest.raises(ParameterError):
            interpolate_lut(np.zeros(5), 17)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_luts_interpolate(self, seed):
        t = 17
        vals = np.random.default_rng(seed).integers(0, t, t)
        coeffs = interpolate_lut(vals, t)
        assert np.array_equal(evaluate_poly_plain(coeffs, np.arange(t), t), vals)


class TestFbsLut:
    def test_from_function_centered_domain(self):
        lut = FbsLut.from_function(lambda x: np.maximum(x, 0), 257, "relu")
        assert lut.values[5] == 5  # positive stays
        assert lut.values[257 - 5] == 0  # -5 -> relu -> 0

    def test_apply_plain_matches_poly(self, rng):
        t = 257
        lut = FbsLut.from_function(lambda x: np.abs(x), t)
        x = rng.integers(0, t, 100)
        assert np.array_equal(
            lut.apply_plain(x), evaluate_poly_plain(lut.coeffs, x, t)
        )


@pytest.mark.slow
class TestFbsHomomorphic:
    def test_relu_lut_on_slots(self, fbs_ctx, fbs_keys, fbs_rlk, rng):
        ctx = fbs_ctx
        sk, pk = fbs_keys
        p = ctx.params
        lut = FbsLut.from_function(lambda x: np.maximum(x, 0), p.t, "relu")
        x = rng.integers(0, p.t, p.n)
        ct = ctx.encrypt(Plaintext.from_slots(x, p), pk)
        counting = CountingBackend()
        with use_backend(counting):
            out = fbs_evaluate(ctx, ct, lut, fbs_rlk)
        assert np.array_equal(ctx.decrypt(out, sk).to_slots(), lut.apply_plain(x))
        # Alg. 2 cost shape: O(t) SMult, O(sqrt t) CMult.
        ops = counting.ops_by_phase()
        assert 0 < ops["fbs"]["smult"] <= p.t
        assert 0 < ops["fbs_giant"]["cmult"] <= 3 * int(np.sqrt(p.t)) + 20

    def test_remap_lut(self, fbs_ctx, fbs_keys, fbs_rlk, rng):
        # LUT(x) = floor(relu(x) * scale) — remapping merged with activation.
        ctx = fbs_ctx
        sk, pk = fbs_keys
        p = ctx.params
        scale = 1 / 8
        lut = FbsLut.from_function(
            lambda v: np.floor(np.maximum(v, 0) * scale).astype(np.int64), p.t
        )
        x = rng.integers(0, p.t, p.n)
        ct = ctx.encrypt(Plaintext.from_slots(x, p), pk)
        out = fbs_evaluate(ctx, ct, lut, fbs_rlk)
        assert np.array_equal(ctx.decrypt(out, sk).to_slots(), lut.apply_plain(x))

    def test_low_degree_lut_is_cheap(self, fbs_ctx, fbs_keys, fbs_rlk, rng):
        # identity LUT => degree-1 polynomial => no CMult at all
        ctx = fbs_ctx
        sk, pk = fbs_keys
        p = ctx.params
        lut = FbsLut(np.arange(p.t), p.t, "identity")
        x = rng.integers(0, p.t, p.n)
        ct = ctx.encrypt(Plaintext.from_slots(x, p), pk)
        counting = CountingBackend()
        with use_backend(counting):
            out = fbs_evaluate(ctx, ct, lut, fbs_rlk)
        assert "cmult" not in counting.totals()
        assert np.array_equal(ctx.decrypt(out, sk).to_slots(), x % p.t)


# --- FBS plan shapes end to end: the one inner-product giant step ------------------


def _poly_lut(coeffs: dict[int, int], t: int, name: str) -> FbsLut:
    """The table of ``sum c_j x^j`` — its interpolant is that polynomial."""
    x = np.arange(t, dtype=object)
    values = sum(c * x**j for j, c in coeffs.items()) % t
    return FbsLut(values.astype(np.int64), t, name)


def _edge_luts(t: int) -> dict[str, FbsLut]:
    def sigmoid(x):
        return np.rint(8 / (1 + np.exp(-x / 16.0))).astype(np.int64)

    return {
        "affine": _poly_lut({0: 3, 1: 5}, t, "affine"),  # degree < bs: no combination
        "one-combination": _poly_lut({1: 2, 3: 7}, t, "cubic"),
        "const-only-giant": _poly_lut({1: 1, 6: 9}, t, "sextic"),  # group 2 is "9"
        "sigmoid": FbsLut.from_function(sigmoid, t, "sigmoid"),  # LUT(0) != 0
        "zero": FbsLut(np.zeros(t, dtype=np.int64), t, "zero"),
        "relu": FbsLut.from_function(lambda x: np.maximum(x, 0), t, "relu"),
    }


def _fbs_operands(plan: FbsPlan) -> tuple[int, int]:
    """(operand slots, distinct operand ciphertexts) of one evaluation."""

    def giant(g):
        return ("p", plan.bs) if g == 1 else ("g", g)

    slots = []
    for kind, _, lo, hi in plan.ladder:
        slots += [("p", lo), ("p", hi)] if kind == "p" else [giant(lo), giant(hi)]
    for g, _, _ in plan.groups:
        if g:
            slots += [("inner", g), giant(g)]
    return len(slots), len(set(slots))


class TestFbsEdgePlans:
    SHAPES = {  # name -> (degree, ladder CMults, combination pairs)
        "affine": (1, 0, 0),
        "one-combination": (3, 1, 1),
        "const-only-giant": (6, 3, 1),
        "sigmoid": (255, 26, 15),
        "zero": (0, 0, 0),
        "relu": (256, 30, 15),
    }

    @pytest.fixture(scope="class")
    def subject(self, fbs_ctx, fbs_keys, fbs_rlk):
        sk, pk = fbs_keys
        p = fbs_ctx.params
        x = np.random.default_rng(21).integers(0, p.t, p.n)
        return fbs_ctx, sk, fbs_rlk, x, fbs_ctx.encrypt(Plaintext.from_slots(x, p), pk)

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_every_slot_on_every_engine(self, subject, name, monkeypatch):
        ctx, sk, rlk, x, ct = subject
        lut = _edge_luts(ctx.params.t)[name]
        plan = FbsPlan.from_lut(lut).materialize(ctx.params)
        degree, ladder, pairs = self.SHAPES[name]
        assert (plan.degree, len(plan.ladder)) == (degree, ladder)
        assert sum(1 for g, _, _ in plan.groups if g) == pairs
        if name == "const-only-giant":
            assert plan.groups[-1] == (2, 9, ())
        assert (lut.values[0] != 0) == (name in ("affine", "sigmoid"))

        builds = []
        real = bfv_module.ntt_forward_rns

        def spy(a, moduli):
            builds.append(a.shape)
            return real(a, moduli)

        monkeypatch.setattr(bfv_module, "ntt_forward_rns", spy)
        outs = []
        counting = CountingBackend(BATCHED)
        for be in (BATCHED, SERIAL, counting):
            del builds[:]
            with use_backend(be):
                outs.append(fbs_evaluate(ctx, ct, lut, rlk, plan=plan))
            # The only forward transform in bfv.py builds a form: one per
            # distinct operand, however many CMults it feeds.
            slots, distinct = _fbs_operands(plan)
            assert len(builds) == distinct <= slots
        for out in outs[1:]:
            assert np.array_equal(out.c0.data, outs[0].c0.data)
            assert np.array_equal(out.c1.data, outs[0].c1.data)
            assert out.noise_bits == outs[0].noise_bits
        assert np.array_equal(ctx.decrypt(outs[0], sk).to_slots(), lut.apply_plain(x))
        giant = counting.ops_by_phase().get("fbs_giant", {})
        assert giant.get("cmult", 0) == ladder + pairs
        assert giant.get("keyswitch", 0) == ladder + (1 if pairs else 0)
        if name == "zero":
            assert outs[0].noise_bits == 0.0 and not outs[0].c1.data.any()
        if name == "relu":
            assert _fbs_operands(plan) == (90, 39)

    def test_no_combination_never_reaches_giant_step_batch(self, subject, monkeypatch):
        ctx, sk, rlk, x, ct = subject
        lut = _edge_luts(ctx.params.t)["affine"]

        def forbidden(*args, **kwargs):
            raise AssertionError("giant_step_batch without a combination")

        monkeypatch.setattr(BatchedBackend, "giant_step_batch", forbidden)
        with use_backend(BATCHED):
            out = fbs_evaluate(ctx, ct, lut, rlk)
        assert np.array_equal(ctx.decrypt(out, sk).to_slots(), lut.apply_plain(x))

    def test_a_form_dies_with_the_call(self, subject):
        """Nothing the caller holds carries a form afterwards, and a form
        that is attached (an operand of a bare ``cmult``) stays out of
        pickles, the wire format, ``==`` and ``repr``."""
        ctx, sk, rlk, x, ct = subject
        lut = _edge_luts(ctx.params.t)["relu"]
        wire, pickled = dump_ciphertext(ct), pickle.dumps(ct)
        out = fbs_evaluate(ctx, ct, lut, rlk)
        for held in (ct, out):
            assert "_tensor_form" not in vars(held)
        assert dump_ciphertext(ct) == wire and pickle.dumps(ct) == pickled

        twin = load_ciphertext(wire, ctx.params)
        ctx.cmult(ct, ct, rlk)  # attaches: ct is an operand in its own right
        form = vars(ct)["_tensor_form"]
        assert not form.flags.writeable and ctx.tensor_form(ct) is form
        assert form.shape == (2, len(ctx.tensor_moduli), ctx.params.n)
        assert dump_ciphertext(ct) == wire and pickle.dumps(ct) == pickled
        assert "_tensor_form" not in vars(pickle.loads(pickle.dumps(ct)))
        assert "_tensor_form" not in repr(ct) and "_tensor_form" not in vars(twin)
        assert repr(ct) == repr(twin)
        assert np.array_equal(ct.c0.data, twin.c0.data) and ct.noise_bits == twin.noise_bits
        del ct._tensor_form


class TestFbsNoiseIsMeasured:
    """One full-domain ReLU FBS of the input ``default_rng(83)``, under the
    keys of context seeds 0-7: a distribution, not one draw — a change to
    key generation redraws every key, so single seeds move by bits either
    way (seed 83 read 150.25 at TEST_LOOP under the base-2^w gadget and
    reads 152.64 under the hybrid keys) while the medians do not.

    ``parent`` is the 8-seed median at the last commit of the gadget, which
    this loop printed there (per seed, TEST_FBS: 127.41 127.35 124.75 125.76
    123.09 125.45 123.05 125.81; TEST_LOOP: 147.35 148.10 147.45 149.26
    146.27 148.10 146.75 145.31); the hybrid keys read 125.38 and 146.23.
    With one keyswitch per combination pair (the parent of the summed giant
    step) seed 83 measured 125.73 bits at TEST_FBS and 150.25 at TEST_LOOP,
    under estimates of 142.90 and 163.82."""

    @pytest.mark.parametrize("params,parent,estimate", [
        (TEST_FBS, 125.61, 140.81), (TEST_LOOP, 147.40, 161.73)],
        ids=lambda v: getattr(v, "name", None))
    def test_true_noise_within_the_parent_and_the_estimate(self, params, parent, estimate):
        lut = FbsLut.from_function(lambda x: np.maximum(x, 0), params.t, "relu")
        x = np.random.default_rng(83).integers(0, params.t, params.n)
        draws = []
        for seed in range(8):
            ctx = BfvContext(params, seed=seed)
            sk, pk = ctx.keygen()
            rlk = ctx.relin_key(sk)
            out = fbs_evaluate(ctx, ctx.encrypt(Plaintext.from_slots(x, params), pk), lut, rlk)
            assert np.array_equal(ctx.decrypt(out, sk).to_slots(), lut.apply_plain(x))
            assert out.noise_bits == pytest.approx(estimate, abs=0.005)
            draws.append(ctx.true_noise_bits(out, sk))
        assert max(draws) <= estimate
        assert np.median(draws) <= parent + 1

    def test_the_combined_estimate_grows_by_log2_of_the_terms(self, fbs_ctx, fbs_keys, fbs_rlk):
        _, pk = fbs_keys
        p = fbs_ctx.params
        a, b = (fbs_ctx.encrypt(Plaintext.from_slots(np.arange(p.n) + i, p), pk)
                for i in range(2))
        one = BATCHED.giant_step_batch(fbs_ctx, [(a, b)], fbs_rlk).noise_bits
        assert one == fbs_ctx.cmult(a, b, fbs_rlk).noise_bits
        for terms in (2, 4, 16):
            got = BATCHED.giant_step_batch(fbs_ctx, [(a, b)] * terms, fbs_rlk).noise_bits
            assert got == pytest.approx(one + np.log2(terms), abs=1e-9)
