"""Tests for LWE packing, slot-to-coefficient, and functional bootstrapping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.fhe import backend as backend_module
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
    _degree,
    evaluate_poly_all,
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
from repro.fhe.params import TEST_FBS, TEST_LOOP, TEST_TINY
from repro.fhe.s2c import (
    _evaluation_columns,
    _slot_points,
    s2c_plan,
    slot_to_coeff,
)
from repro.fhe.slots import default_baby_steps, slot_decode
from repro.utils.sampling import Sampler
from tests.conftest import s2c_keys


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
        packed = pack_lwe(ctx, batch, pkey, p.n)
        dec = ctx.decrypt(packed, sk).to_slots()
        # Packing performs homomorphic decryption: slots hold m + e exactly.
        assert np.array_equal(dec, (m + e) % p.t)

    def test_partial_batch_zero_pads(self, packing_setup, rng):
        ctx, sk, _, s_small, pkey = packing_setup
        p = ctx.params
        count = p.n // 4
        batch, m, e = make_lwe_batch(rng, count, p.lwe_n, p.t, s_small)
        dec = ctx.decrypt(pack_lwe(ctx, batch, pkey, p.n), sk).to_slots()
        assert np.array_equal(dec[:count], (m + e) % p.t)

    def test_noiseless_lwe_packs_exactly(self, packing_setup, rng):
        ctx, sk, _, s_small, pkey = packing_setup
        p = ctx.params
        batch, m, _ = make_lwe_batch(rng, p.n, p.lwe_n, p.t, s_small, noise_std=0.0)
        dec = ctx.decrypt(pack_lwe(ctx, batch, pkey, p.n), sk).to_slots()
        assert np.array_equal(dec, m % p.t)

    def test_all_zero_matrix_is_the_transparent_zero(self, packing_setup):
        """No live diagonal: a noiseless zero, not an SMult-by-0 that pays
        log2(t) noise bits on a live ciphertext for a constant."""
        ctx, sk, *_, pkey = packing_setup
        p = ctx.params
        plan = MatvecPlan.build(
            np.zeros((p.n // 2, p.n), dtype=np.int64), p, default_baby_steps(p.n // 2))
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
            pack_lwe(ctx, bad, pkey, ctx.params.n)

    def test_too_many_ciphertexts_raises(self, packing_setup, rng):
        ctx, _, _, s_small, pkey = packing_setup
        p = ctx.params
        batch, *_ = make_lwe_batch(rng, p.n + 1, p.lwe_n, p.t, s_small)
        with pytest.raises(ParameterError):
            pack_lwe(ctx, batch, pkey, p.n)

    def test_a_period_the_batch_does_not_fit_raises(self, packing_setup, rng):
        """The round names the period; a batch longer than it, or a period
        that neither divides N/2 nor is N, is refused rather than packed
        into a layout its S2C would misread."""
        ctx, _, _, s_small, pkey = packing_setup
        p = ctx.params
        batch, *_ = make_lwe_batch(rng, 9, p.lwe_n, p.t, s_small)
        for period in (8, 12, p.n // 2 + 1):
            with pytest.raises(ParameterError, match="period"):
                pack_lwe(ctx, batch, pkey, period)


class TestS2C:
    def test_evaluation_matrix_consistency(self):
        # slots = P @ coeffs must agree with the NTT-based slot_decode.
        n, t = 32, 257
        rng = np.random.default_rng(0)
        coeffs = rng.integers(0, t, n)
        p = _evaluation_columns(n, t, n)
        via_matrix = (p @ coeffs) % t
        assert np.array_equal(via_matrix, slot_decode(coeffs, n, t))

    def test_slot_points_distinct(self):
        pts = _slot_points(32, 257)
        assert len(set(int(x) for x in pts)) == 32

    def test_s2c_moves_slots_to_coeffs(self, tiny_ctx, tiny_keys, rng):
        ctx = tiny_ctx
        sk, pk = tiny_keys
        p = ctx.params
        keys = s2c_keys(ctx, sk)
        v = rng.integers(0, p.t, p.n)
        ct = ctx.encrypt(Plaintext.from_slots(v, p), pk)
        out = slot_to_coeff(ctx, ct, keys, p.n)
        assert np.array_equal(ctx.decrypt(out, sk).coeffs, v % p.t)

    def test_one_plan_per_parameter_set(self, tiny_ctx, tiny_keys, rng):
        """The S2C plan is a memoised function of the parameter set and the
        period, at the one baby-step rule; every dense transform under those
        parameters runs it."""
        ctx = tiny_ctx
        sk, pk = tiny_keys
        p = ctx.params
        plan = s2c_plan(p, p.n)
        assert s2c_plan(p, p.n) is plan
        assert plan.baby_steps == default_baby_steps(p.n // 2)
        fresh = s2c_plan.__wrapped__(p, p.n)
        assert plan.derived == fresh.derived
        for (g, ids, stack), (g2, ids2, stack2) in zip(plan.groups, fresh.groups,
                                                       strict=True):
            assert (g, ids) == (g2, ids2) and np.array_equal(stack, stack2)
        v = rng.integers(0, p.t, p.n)
        ct = ctx.encrypt(Plaintext.from_slots(v, p), pk)
        out = slot_to_coeff(ctx, ct, s2c_keys(ctx, sk), p.n)
        assert np.array_equal(ctx.decrypt(out, sk).coeffs, v % p.t)

    def test_s2c_linear(self, tiny_ctx, tiny_keys, rng):
        ctx = tiny_ctx
        sk, pk = tiny_keys
        p = ctx.params
        keys = s2c_keys(ctx, sk)
        v1 = rng.integers(0, p.t, p.n)
        v2 = rng.integers(0, p.t, p.n)
        c1 = ctx.encrypt(Plaintext.from_slots(v1, p), pk)
        c2 = ctx.encrypt(Plaintext.from_slots(v2, p), pk)
        out = slot_to_coeff(ctx, ctx.add(c1, c2), keys, p.n)
        assert np.array_equal(ctx.decrypt(out, sk).coeffs, (v1 + v2) % p.t)


class TestDerivedPlansHaveOneOwner:
    def test_no_entry_point_takes_a_plan_or_a_baby_step_count(self):
        """The LUT carries its schedule and the parameter set and period fix
        the S2C plan, so no FBS / S2C entry point takes either, and the one
        baby-step rule is not an option of any key or plan."""
        import inspect

        from repro.core.framework import AthenaPipeline
        from repro.fhe.backend import Backend
        from repro.fhe.fbs import fbs_evaluate_impl
        from repro.fhe.s2c import slot_to_coeff_impl

        entry_points = [fbs_evaluate, fbs_evaluate_impl, Backend.fbs, AthenaPipeline.refresh,
                        slot_to_coeff, slot_to_coeff_impl, Backend.s2c]
        constructors = [PackingKey.generate, s2c_plan]
        assert [f.__qualname__ for f in entry_points
                if "plan" in inspect.signature(f).parameters] == []
        assert [f.__qualname__ for f in constructors
                if "baby_steps" in inspect.signature(f).parameters] == []


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
            (out,) = fbs_evaluate(ctx, [ct], lut, fbs_rlk)
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
        (out,) = fbs_evaluate(ctx, [ct], lut, fbs_rlk)
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
            (out,) = fbs_evaluate(ctx, [ct], lut, fbs_rlk)
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
    for g in plan.live.tolist():
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
        plan = lut.plan
        degree, ladder, pairs = self.SHAPES[name]
        assert (_degree(plan.matrix), len(plan.ladder)) == (degree, ladder)
        assert np.count_nonzero(plan.live) == pairs
        if name == "const-only-giant":
            assert plan.matrix[2].tolist() == [9, 0, 0]  # the constant alone
        assert (lut.values[0] != 0) == (name in ("affine", "sigmoid"))

        builds = []
        real = bfv_module.ntt_forward_rns

        def spy(a, moduli):
            builds.append(len(a))  # (M, 2, L+K, N): M forms in one call
            return real(a, moduli)

        monkeypatch.setattr(bfv_module, "ntt_forward_rns", spy)
        outs = []
        counting = CountingBackend(BATCHED)
        for be in (BATCHED, SERIAL, counting):
            del builds[:]
            with use_backend(be):
                outs += fbs_evaluate(ctx, [ct], lut, rlk)
            # The only forward transform in bfv.py builds forms: one per
            # distinct operand, however many CMults it feeds, and at most
            # one call per ladder level plus the combination.
            slots, distinct = _fbs_operands(plan)
            assert sum(builds) == distinct <= slots
            assert len(builds) <= len(plan.levels) + 1
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
            (out,) = fbs_evaluate(ctx, [ct], lut, rlk)
        assert np.array_equal(ctx.decrypt(out, sk).to_slots(), lut.apply_plain(x))

    def test_a_form_dies_with_the_call(self, subject):
        """Nothing the caller holds carries a form afterwards, and a form
        that is attached (an operand of a bare ``cmult_batch``) stays out of
        the ciphertext's own ``c0`` / ``c1`` and its ``repr``."""
        ctx, sk, rlk, x, ct = subject
        lut = _edge_luts(ctx.params.t)["relu"]

        def limbs(c):
            return c.c0.data.tobytes() + c.c1.data.tobytes()

        raw, shown = limbs(ct), repr(ct)
        (out,) = fbs_evaluate(ctx, [ct], lut, rlk)
        for held in (ct, out):
            assert "_tensor_form" not in vars(held)
        assert limbs(ct) == raw

        BATCHED.cmult_batch(ctx, [(ct, ct)], rlk)  # attaches: ct is an operand in its own right
        form = vars(ct)["_tensor_form"]
        assert not form.flags.writeable and ctx.tensor_forms([ct])[0] is form
        assert form.shape == (2, len(ctx.tensor_moduli), ctx.params.n)
        assert limbs(ct) == raw and repr(ct) == shown
        del ct._tensor_form


def _degree_lut(degree: int, t: int, seed: int = 0) -> FbsLut:
    """A table whose interpolant has every coefficient up to ``degree``."""
    coeffs = np.zeros(t, dtype=np.int64)
    coeffs[: degree + 1] = np.random.default_rng(seed + degree).integers(1, t, degree + 1)
    return FbsLut(evaluate_poly_all(coeffs, t), t, f"degree{degree}")


def _ladder_depth(plan: FbsPlan) -> int:
    """Depth of the minimal-depth ladder in closed form: ceil(log2 e) for
    power e, ceil(log2 bs) + ceil(log2 g) for giant g."""
    used = set(plan.powers.tolist())
    giants = {g for g in plan.live.tolist() if g}
    if giants:
        used.add(plan.bs)
    depths = [math.ceil(math.log2(e)) for e in used]
    depths += [math.ceil(math.log2(plan.bs)) + math.ceil(math.log2(g)) for g in giants]
    return max(depths, default=0)


class TestFbsLevels:
    """The ladder runs level by level — each depth's independent CMults as
    stacked passes — and the baby steps as one matrix product, with every
    residue and estimate what one CMult / SMult at a time gives."""

    @pytest.mark.parametrize("degree", range(257))
    def test_levels_partition_the_ladder_by_depth(self, degree):
        plan = FbsPlan.from_lut(_degree_lut(degree, 257))
        flat = [step for level in plan.levels for step in level]
        assert sorted(flat) == sorted(plan.ladder) and len(flat) == len(plan.ladder)
        level_of = {("p", 1): 0}
        for k, level in enumerate(plan.levels, start=1):
            order = [plan.ladder.index(step) for step in level]
            assert order == sorted(order)  # ladder order inside a level
            for kind, e, lo, hi in level:
                assert level_of[plan.operand(kind, lo)] < k
                assert level_of[plan.operand(kind, hi)] < k
            for kind, e, _, _ in level:
                level_of[(kind, e)] = k
        assert len(plan.levels) == _ladder_depth(plan)
        if degree == 256:
            assert [len(level) for level in plan.levels] == [1, 2, 4, 8, 1, 1, 2, 4, 7]

    @pytest.fixture(scope="class", params=[TEST_TINY, TEST_FBS, TEST_LOOP],
                    ids=lambda p: p.name)
    def subject(self, request):
        params = request.param
        ctx = BfvContext(params, seed=11)
        sk, pk = ctx.keygen()
        rlk = ctx.relin_key(sk)
        x = np.random.default_rng(12).integers(0, params.t, params.n)
        return ctx, sk, rlk, x, ctx.encrypt(Plaintext.from_slots(x, params), pk)

    @pytest.mark.parametrize("name", [1, 2, 3, 16, 17, 255, 256, "sigmoid", "zero", "constant"])
    def test_stacked_equals_one_at_a_time(self, subject, name, monkeypatch):
        """Batched (stacked levels, one-matrix baby steps) == the same with
        one CMult per chunk == serial == counting: residues and estimates."""
        ctx, sk, rlk, x, ct = subject
        t = ctx.params.t
        if isinstance(name, int):
            lut = _degree_lut(name, t)
        elif name == "constant":
            lut = FbsLut(np.full(t, 5), t, "constant")
        else:
            lut = _edge_luts(t)[name]
        plan = lut.plan
        one_at_a_time = BatchedBackend()
        outs = []
        for be in (BATCHED, one_at_a_time, SERIAL, CountingBackend(BATCHED)):
            with monkeypatch.context() as patch, use_backend(be):
                if be is one_at_a_time:
                    patch.setattr(backend_module, "CMULT_BATCH_ELEMS", 1)
                outs += fbs_evaluate(ctx, [ct], lut, rlk)
        for out in outs[1:]:
            assert np.array_equal(out.c0.data, outs[0].c0.data)
            assert np.array_equal(out.c1.data, outs[0].c1.data)
            assert out.noise_bits == outs[0].noise_bits
        assert "_tensor_form" not in vars(ct)
        if ctx.params is not TEST_TINY:  # two limbs hold no full-domain FBS
            assert np.array_equal(ctx.decrypt(outs[0], sk).to_slots(), lut.apply_plain(x))

    @pytest.mark.parametrize("name", ["affine", "const-only-giant", "zero", 256])
    def test_a_stack_is_its_ciphertexts_one_at_a_time(self, subject, name):
        """Three ciphertexts through one ladder, one lincomb and one giant
        step (batched) == each alone (serial, counting): residues and
        estimates, for a table with no combination, a constant-only giant
        group, the zero table and a full-domain one."""
        ctx, sk, rlk, x, ct = subject
        t = ctx.params.t
        lut = _degree_lut(name, t) if isinstance(name, int) else _edge_luts(t)[name]
        cts = [ct, ctx.add(ct, ct), ctx.sub(ct, ct)]  # x, 2x and 0 in every slot
        counting = CountingBackend(BATCHED)
        with use_backend(BATCHED):
            stacked = fbs_evaluate(ctx, cts, lut, rlk)
        for be in (SERIAL, counting):
            with use_backend(be):
                alone = [out for c in cts for out in fbs_evaluate(ctx, [c], lut, rlk)]
            for got, want in zip(stacked, alone):
                assert np.array_equal(got.c0.data, want.c0.data)
                assert np.array_equal(got.c1.data, want.c1.data)
                assert got.noise_bits == want.noise_bits
        assert counting.totals()["fbs"] == len(cts)

    def test_lincomb_equals_the_per_term_sum(self, rng):
        """Extreme, zero and large coefficients, an empty row and one row,
        against exact integer sums. The large ones force the batched body to
        split the terms into exact float64 chunks."""
        params = TEST_LOOP
        moduli, t = params.moduli, params.t
        stack = np.stack([
            np.stack([np.stack([rng.integers(0, p, params.n) for p in moduli])
                      for _ in range(2)])
            for _ in range(5)])
        stack[0] = np.array(moduli)[:, None] - 1  # every residue at its top
        half = t // 2
        cases = [
            np.array([[half, -half, 0, 1, -1], [0, 0, 0, 0, 0], [-half] * 5]),
            np.array([[3, 0, 0, 0, -7]]),
            np.array([[2**22, -(2**22), 2**22 - 1, -1, 5]]),
            np.zeros((0, 5), dtype=np.int64),
        ]
        for coeffs in cases:
            want = np.array([
                [[[sum(int(c) * int(stack[j, comp, i, k]) for j, c in enumerate(row)) % p
                   for k in range(params.n)] for i, p in enumerate(moduli)]
                 for comp in range(2)]
                for row in coeffs], dtype=np.int64).reshape((len(coeffs),) + stack.shape[1:])
            for be in (BATCHED, SERIAL, CountingBackend(BATCHED)):
                assert np.array_equal(be.lincomb(stack, coeffs, moduli), want), be.name
        empty = BATCHED.lincomb(stack[:0], np.zeros((2, 0), dtype=np.int64), moduli)
        assert empty.shape == (2,) + stack.shape[1:] and not empty.any()

    def test_fewer_transform_calls_same_transforms(self, fbs_ctx, fbs_keys, fbs_rlk,
                                                   monkeypatch):
        """One full-domain FBS at TEST_FBS: the same limb transforms (one
        form per distinct operand, one keyswitch per relinearisation) in
        fewer stacked calls — two forward and two inverse per ladder level
        and per combination. 39 operands enter Q u aux and 31 tensors leave
        it (171 rows of 17 limbs); 31 keyswitches of D (L + K) + 2 (L + K) =
        48 (90 at one digit per limb, 5 697 in all): 4 395. One CMult at a
        time made 70 forward and 62 inverse calls."""
        _, pk = fbs_keys
        p = fbs_ctx.params
        ct = fbs_ctx.encrypt(Plaintext.from_slots(np.arange(p.n), p), pk)
        lut = _edge_luts(p.t)["relu"]
        plan = lut.plan
        calls = {}
        for module in (backend_module, bfv_module):
            for name in ("ntt_forward_rns", "ntt_inverse_rns"):
                real = getattr(module, name)

                def spy(a, *args, _real=real, _name=name):
                    calls[_name] = calls.get(_name, 0) + 1
                    calls["limbs"] = calls.get("limbs", 0) + a.size // a.shape[-1]
                    return _real(a, *args)

                monkeypatch.setattr(module, name, spy)
        with use_backend(BATCHED):
            fbs_evaluate(fbs_ctx, [ct], lut, fbs_rlk)
        assert len(plan.levels) == 9
        width = len(p.keyswitch_moduli)
        limbs = 171 * len(fbs_ctx.tensor_moduli) + 31 * (p.num_digits + 2) * width
        assert calls == {"ntt_forward_rns": 20, "ntt_inverse_rns": 20, "limbs": limbs}
        assert limbs == 4395


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
            (out,) = fbs_evaluate(ctx, [ctx.encrypt(Plaintext.from_slots(x, params), pk)], lut, rlk)
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
        one = BATCHED.giant_step_batch(fbs_ctx, [[(a, b)]], fbs_rlk)[0].noise_bits
        assert one == BATCHED.cmult_batch(fbs_ctx, [(a, b)], fbs_rlk)[0].noise_bits
        for terms in (2, 4, 16):
            got = BATCHED.giant_step_batch(fbs_ctx, [[(a, b)] * terms], fbs_rlk)[0].noise_bits
            assert got == pytest.approx(one + np.log2(terms), abs=1e-9)
