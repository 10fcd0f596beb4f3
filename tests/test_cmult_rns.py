"""The word-sized CMult tensor against its big-int oracle.

:meth:`BfvContext.cmult_tensor` claims to be *exact*: bit-identical,
for every input, to tensoring the centred CRT lifts over Python integers,
summing the products of all its pairs and rounding the sum by t/Q — once.
That big-int computation lives here, as the oracle (:func:`oracle_sum`),
built from ``negacyclic_mul_exact`` and ``from_rns_centered``. Pinned below:

1. :func:`repro.fhe.rns.base_extend` equals the big-int lift on drawn residue
   stacks and on the edges of the interval, plain and centred.
2. the tensor equals the oracle on random, adversarial and crafted operands
   (including the ones that force the exact-integer route for the CRT
   overflow count), with no big-int conversion on the normal path.
3. a sum of G products equals ``round(t * sum(e) / Q)`` for G up to the
   ``ceil(sqrt(t))`` the auxiliary basis is sized for — squares, a
   transparent-zero operand and crafted rounding edges in the list.
4. ``cmult`` and ``giant_step_batch`` are bit-identical across engines and to
   oracle tensor + the same keyswitch; mismatched rings raise.
5. the overflow / precision bounds hold for every preset (tables only), an
   over-long sum raises, and the kernel runs at the paper's ring size (slow).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError, TensorOverflow
from repro.fhe import bfv as bfv_module
from repro.fhe import rns
from repro.fhe.backend import BATCHED, SERIAL, BatchedBackend, use_backend
from repro.fhe.bfv import BfvCiphertext, BfvContext, Plaintext, cmult_bounds
from repro.fhe.keys import keyswitch_bounds
from repro.fhe.ntt import negacyclic_mul_exact
from repro.fhe.params import (
    ATHENA,
    PRESETS,
    TEST_FBS,
    TEST_LOOP,
    TEST_SMALL,
    TEST_TINY,
    FheParams,
)
from repro.fhe.poly import RnsPoly
from repro.utils.modmath import inv_mod, is_prime

RUN_PRESETS = [TEST_TINY, TEST_FBS, TEST_SMALL, TEST_LOOP]
_ids = [p.name for p in RUN_PRESETS]

_drawn = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --- the oracle -----------------------------------------------------------------


def oracle_sum(pairs) -> np.ndarray:
    """(3, L, N): big-int tensors of every pair, summed, then *one* t/Q
    rounding — what the RNS kernel replaced, for a sum of products."""
    p = pairs[0][0].params
    total = np.zeros((3, p.n), dtype=object)
    for a, b in pairs:
        a0, a1, b0, b1 = (
            rns.from_rns_centered(x.data, p.moduli) for x in (a.c0, a.c1, b.c0, b.c1)
        )
        products = [(a0, b0), (a0, b1), (a1, b0), (a1, b1)]
        e00, e01, e10, e11 = (
            np.asarray(negacyclic_mul_exact(x, y), dtype=object) for x, y in products
        )
        total += np.stack([e00, e01 + e10, e11])
    return np.stack(
        [rns.to_rns((e * (2 * p.t) + p.q) // (2 * p.q), p.moduli) for e in total]
    )


def oracle_tensor(a: BfvCiphertext, b: BfvCiphertext) -> np.ndarray:
    return oracle_sum([(a, b)])


def tensor_sum(ctx: BfvContext, pairs) -> np.ndarray:
    r0, r1, r2, _ = ctx.cmult_tensor(pairs)
    return np.stack([r0.data, r1.data, r2.data])


def tensor(ctx: BfvContext, a: BfvCiphertext, b: BfvCiphertext) -> np.ndarray:
    return tensor_sum(ctx, [(a, b)])


def ct_from_ints(params: FheParams, c0, c1) -> BfvCiphertext:
    return BfvCiphertext(
        RnsPoly.from_int_coeffs(list(c0), params.moduli),
        RnsPoly.from_int_coeffs(list(c1), params.moduli),
        params,
        1.0,
    )


def uniform_ct(params: FheParams, rng) -> BfvCiphertext:
    """Uniform residues: what a ciphertext looks like after a few ops."""

    def poly():
        return RnsPoly(
            np.stack([rng.integers(0, p, params.n) for p in params.moduli]),
            params.moduli,
        )

    return BfvCiphertext(poly(), poly(), params, 1.0)


def edge_values(q: int) -> list[int]:
    """Centred coefficients on and next to every edge the lifts care about."""
    h = (q - 1) // 2
    return [0, 1, -1, h, -h, h - 1, -(h - 1), q // 3, -(q // 3)]


@pytest.fixture()
def exact_route_calls(monkeypatch):
    """Count the coefficients :func:`base_extend` sends down the big-int route."""
    calls = []
    real = rns._exact_overflow

    def spy(digits, src):
        calls.append(len(src))
        return real(digits, src)

    monkeypatch.setattr(rns, "_exact_overflow", spy)
    return calls


# --- base extension ---------------------------------------------------------------


def _lift_mod(values, dst) -> np.ndarray:
    return np.stack(
        [np.array([int(v) % p for v in values], dtype=np.int64) for p in dst]
    )


class TestBaseExtend:
    SRC = TEST_LOOP.moduli
    DST = bfv_module._tensor_tables(TEST_LOOP).aux

    @given(st.data())
    @_drawn
    def test_drawn_residue_stacks_match_bigint_lift(self, data):
        src, dst = data.draw(
            st.sampled_from([(self.SRC, self.DST), (self.DST, self.SRC)])
        )
        stack = np.array(
            [
                data.draw(st.lists(st.integers(0, p - 1), min_size=4, max_size=4))
                for p in src
            ],
            dtype=np.int64,
        )
        q = rns.rns_modulus(src)
        plain = rns.from_rns(stack, src)
        assert np.array_equal(rns.base_extend(stack, src, dst), _lift_mod(plain, dst))
        centred = rns.from_rns_centered(stack, src)
        assert all(-(q // 2) <= v <= q // 2 for v in centred)
        assert np.array_equal(
            rns.base_extend(stack, src, dst, centered=True), _lift_mod(centred, dst)
        )

    @pytest.mark.parametrize("direction", ["q_to_p", "p_to_q"])
    def test_interval_edges(self, direction, exact_route_calls):
        src, dst = (self.SRC, self.DST) if direction == "q_to_p" else (self.DST, self.SRC)
        q = rns.rns_modulus(src)
        plain = [0, 1, 2, q - 1, q - 2, q // 2, q // 2 + 1, q // 3]
        got = rns.base_extend(rns.to_rns(plain, src), src, dst)
        assert np.array_equal(got, _lift_mod(plain, dst))
        # 0, 1, 2, Q-1, Q-2 sit on the ambiguous edge; the rest do not.
        assert len(exact_route_calls) == 5
        del exact_route_calls[:]
        centred = edge_values(q)
        got = rns.base_extend(rns.to_rns(centred, src), src, dst, centered=True)
        assert np.array_equal(got, _lift_mod(centred, dst))
        # Centred, only +-(Q-1)/2 and their neighbours are on the edge.
        assert len(exact_route_calls) == 4

    def test_leading_axes_batch(self, rng):
        stack = np.stack(
            [rng.integers(0, p, (2, 3, 5)) for p in self.SRC], axis=-2
        )
        got = rns.base_extend(stack, self.SRC, self.DST, centered=True)
        assert got.shape == (2, 3, len(self.DST), 5)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(
                    got[i, j],
                    rns.base_extend(stack[i, j], self.SRC, self.DST, centered=True),
                )


# --- tensor == oracle ----------------------------------------------------------------


class TestTensorMatchesOracle:
    @pytest.mark.parametrize("params", RUN_PRESETS, ids=_ids)
    def test_uniform_operands_and_square(self, params, rng):
        ctx = BfvContext(params, seed=5)
        for _ in range(4):
            a, b = uniform_ct(params, rng), uniform_ct(params, rng)
            assert np.array_equal(tensor(ctx, a, b), oracle_tensor(a, b))
            assert np.array_equal(tensor(ctx, a, a), oracle_tensor(a, a))

    @pytest.mark.parametrize("params", RUN_PRESETS, ids=_ids)
    def test_adversarial_coefficients(self, params, rng):
        ctx = BfvContext(params, seed=5)
        edges = np.array(edge_values(params.q), dtype=object)
        for _ in range(4):
            polys = [edges[rng.integers(0, len(edges), params.n)] for _ in range(4)]
            a = ct_from_ints(params, polys[0], polys[1])
            b = ct_from_ints(params, polys[2], polys[3])
            assert np.array_equal(tensor(ctx, a, b), oracle_tensor(a, b))
            assert np.array_equal(tensor(ctx, a, a), oracle_tensor(a, a))

    @given(st.data())
    @_drawn
    def test_drawn_coefficients(self, data):
        params = TEST_TINY
        h = params.q // 2
        coeff = st.one_of(st.integers(-h, h), st.sampled_from(edge_values(params.q)))
        polys = [
            data.draw(st.lists(coeff, min_size=params.n, max_size=params.n))
            for _ in range(4)
        ]
        a = ct_from_ints(params, polys[0], polys[1])
        b = ct_from_ints(params, polys[2], polys[3])
        ctx = BfvContext(params, seed=5)
        assert np.array_equal(tensor(ctx, a, b), oracle_tensor(a, b))

    @pytest.mark.parametrize("params", RUN_PRESETS, ids=_ids)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_rounding_edge_takes_exact_route(self, params, sign, exact_route_calls):
        """t*e = (Q +- 1)/2 (mod Q): t*e + floor(Q/2) lifts to 0 or Q - 1,
        where no estimate can tell the overflow count."""
        q, t, n = params.q, params.t, params.n
        c = (q + sign) // 2 * inv_mod(t, q) % q
        a0 = [c] + [0] * (n - 1)
        a1 = [0, c] + [0] * (n - 2)
        one = [1] + [0] * (n - 1)
        a = ct_from_ints(params, a0, a1)
        b = ct_from_ints(params, one, one)
        ctx = BfvContext(params, seed=5)
        assert np.array_equal(tensor(ctx, a, b), oracle_tensor(a, b))
        assert exact_route_calls, "the crafted operands never reached the edge"

    def test_random_ciphertexts_stay_on_the_word_sized_path(
        self, monkeypatch, exact_route_calls, rng
    ):
        """No CRT lift, no big-int reduction, no exact-route coefficient."""
        params = TEST_LOOP
        ctx = BfvContext(params, seed=5)
        pairs = [(uniform_ct(params, rng), uniform_ct(params, rng)) for _ in range(3)]
        want = [oracle_tensor(a, b) for a, b in pairs]

        def forbidden(*args, **kwargs):
            raise AssertionError("big-int conversion on the CMult path")

        monkeypatch.setattr(rns, "to_rns", forbidden)
        monkeypatch.setattr(rns, "from_rns_object", forbidden)
        for (a, b), expect in zip(pairs, want):
            assert np.array_equal(tensor(ctx, a, b), expect)
        assert exact_route_calls == []
        assert not hasattr(bfv_module, "negacyclic_mul_exact")
        assert not hasattr(BfvContext, "_scale_round")

    def test_transparent_zero_operand(self, exact_route_calls, rng):
        params = TEST_LOOP
        ctx = BfvContext(params, seed=5)
        zero, other = ctx.encrypt_zero(), uniform_ct(params, rng)
        for a, b in ((zero, other), (other, zero), (zero, zero)):
            got = tensor(ctx, a, b)
            assert not got.any()
            assert np.array_equal(got, oracle_tensor(a, b))
        # Zeros sit mid-interval after the shift: never the slow route.
        assert exact_route_calls == []

    @pytest.mark.parametrize("params", RUN_PRESETS, ids=_ids)
    def test_every_coefficient_through_the_exact_route(
        self, params, monkeypatch, exact_route_calls, rng
    ):
        monkeypatch.setattr(rns, "V_AMBIGUITY", 1.0)
        ctx = BfvContext(params, seed=5)
        a, b = uniform_ct(params, rng), uniform_ct(params, rng)
        assert np.array_equal(tensor(ctx, a, b), oracle_tensor(a, b))
        # four operand components out, three products out, three back.
        assert len(exact_route_calls) == 10 * params.n

    def test_real_encryptions_decrypt_to_the_product(self, small_ctx, small_keys, rng):
        sk, pk = small_keys
        p = small_ctx.params
        rlk = small_ctx.relin_key(sk)
        m1, m2 = (rng.integers(0, p.t, p.n) for _ in range(2))
        ct = small_ctx.cmult(
            small_ctx.encrypt(Plaintext.from_coeffs(m1, p), pk),
            small_ctx.encrypt(Plaintext.from_coeffs(m2, p), pk),
            rlk,
        )
        expect = np.mod(negacyclic_mul_exact(list(m1), list(m2)), p.t)
        assert np.array_equal(small_ctx.decrypt(ct, sk).coeffs, expect)


# --- a sum of products == one rounding of the summed oracle ---------------------------------

#: One pair, two, a full-domain t = 257 combination, and all the basis holds.
_TERMS = [1, 2, 15, 17]


def _mixed_pairs(ctx: BfvContext, count: int, rng, draw) -> list:
    """``count`` pairs over a small pool of ``draw()`` ciphertexts (so
    operands repeat across pairs), with a square and — a constant-only FBS
    group — a transparent zero plus a plaintext as one ``inner``."""
    params = ctx.params
    pool = [draw() for _ in range(5)]
    pairs = [
        (pool[rng.integers(len(pool))], pool[rng.integers(len(pool))])
        for _ in range(count)
    ]
    pairs[0] = (pool[0], pool[0])
    if count > 1:
        const = Plaintext.from_slots(np.full(params.n, 7), params)
        pairs[1] = (ctx.add_plain(ctx.encrypt_zero(), const), pool[1])
    return pairs


class TestSummedTensor:
    @pytest.mark.parametrize("params", [TEST_FBS, TEST_LOOP], ids=lambda p: p.name)
    @pytest.mark.parametrize("count", _TERMS)
    def test_uniform_and_adversarial_operands(self, params, count, rng):
        ctx = BfvContext(params, seed=5)
        edges = np.array(edge_values(params.q), dtype=object)

        def adversarial():
            c0, c1 = (edges[rng.integers(0, len(edges), params.n)] for _ in range(2))
            return ct_from_ints(params, c0, c1)

        for draw in (lambda: uniform_ct(params, rng), adversarial):
            pairs = _mixed_pairs(ctx, count, rng, draw)
            assert np.array_equal(tensor_sum(ctx, pairs), oracle_sum(pairs))

    @pytest.mark.parametrize("count", _TERMS)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_rounding_edge_of_the_sum(self, count, sign, exact_route_calls, rng):
        """The *sum* lands on t*e = (Q +- 1)/2 (mod Q) though no single
        product does: the crafted coefficient is split over the pairs."""
        params = TEST_LOOP
        q, t, n = params.q, params.t, params.n
        c = (q + sign) // 2 * inv_mod(t, q) % q
        shares = [int(rng.integers(0, 2**62)) * int(rng.integers(0, 2**62)) % q
                  for _ in range(count - 1)]
        shares.append((c - sum(shares)) % q)
        one = [1] + [0] * (n - 1)
        b = ct_from_ints(params, one, one)
        pairs = [
            (ct_from_ints(params, [s] + [0] * (n - 1), [0, s] + [0] * (n - 2)), b)
            for s in shares
        ]
        ctx = BfvContext(params, seed=5)
        assert np.array_equal(tensor_sum(ctx, pairs), oracle_sum(pairs))
        assert exact_route_calls, "the crafted sum never reached the edge"

    @pytest.mark.parametrize("count", _TERMS)
    def test_every_coefficient_through_the_exact_route(
        self, count, monkeypatch, exact_route_calls, rng
    ):
        monkeypatch.setattr(rns, "V_AMBIGUITY", 1.0)
        params = TEST_FBS
        ctx = BfvContext(params, seed=5)
        pairs = _mixed_pairs(ctx, count, rng, lambda: uniform_ct(params, rng))
        assert np.array_equal(tensor_sum(ctx, pairs), oracle_sum(pairs))
        # Two components out per *distinct* operand, then — whatever the
        # number of pairs — three sums out and three back.
        distinct = len({id(ct) for pair in pairs for ct in pair})
        assert len(exact_route_calls) == (2 * distinct + 6) * params.n

    @pytest.mark.parametrize("count", _TERMS)
    def test_both_engines_relinearise_the_oracle_sum(self, count, rng):
        params = TEST_FBS
        ctx = BfvContext(params, seed=5)
        sk, _ = ctx.keygen()
        rlk = ctx.relin_key(sk)
        pairs = _mixed_pairs(ctx, count, rng, lambda: uniform_ct(params, rng))
        want = _relinearised_oracle(pairs, rlk)
        for be in (BATCHED, SERIAL):
            got = be.giant_step_batch(ctx, pairs, rlk)
            assert np.array_equal(_components(got), want), be.name


# --- cmult / giant_step_batch ----------------------------------------------------------


def _components(ct) -> np.ndarray:
    return np.stack([ct.c0.data, ct.c1.data])


def _relinearized(cts) -> np.ndarray:
    return np.stack([_components(ct) for ct in cts])


def _relinearised_oracle(pairs, rlk) -> np.ndarray:
    """(2, L, N): oracle sum, then the reference keyswitch and correction adds."""
    moduli = pairs[0][0].params.moduli
    mods = np.array(moduli, dtype=np.int64)[:, None]
    r = oracle_sum(pairs)
    d0, d1 = SERIAL.keyswitch(r[2], rlk, moduli)
    return np.stack([(r[0] + d0) % mods, (r[1] + d1) % mods])


class TestCmultAndGiantStep:
    @pytest.fixture(scope="class")
    def subject(self):
        ctx = BfvContext(TEST_FBS, seed=77)
        sk, pk = ctx.keygen()
        rlk = ctx.relin_key(sk)
        rng = np.random.default_rng(3)
        cts = [
            ctx.encrypt(
                Plaintext.from_coeffs(rng.integers(0, TEST_FBS.t, TEST_FBS.n), TEST_FBS),
                pk,
            )
            for _ in range(4)
        ]
        return ctx, rlk, cts

    @pytest.mark.parametrize("backend", ["batched", "serial"])
    def test_cmult_and_square(self, subject, backend):
        ctx, rlk, (a, b, *_) = subject
        with use_backend(backend):
            got = _relinearized([ctx.cmult(a, b, rlk), ctx.square(a, rlk)])
        want = [_relinearised_oracle([pair], rlk) for pair in ((a, b), (a, a))]
        assert np.array_equal(got, np.stack(want))

    @pytest.mark.parametrize("count", [1, 3])
    def test_giant_step_batch(self, subject, count):
        """One ciphertext: the relinearised sum of the per-pair big-int
        products, its estimate the worst operand + one CMult + log2 G."""
        ctx, rlk, (a, b, c, d) = subject
        pairs = [(a, b), (c, d), (b, b)][:count]
        want = _relinearised_oracle(pairs, rlk)
        noise = max(ct.noise_bits for pair in pairs for ct in pair)
        noise += np.log2(ctx.params.n * ctx.params.t) + np.log2(count)
        for be in (BATCHED, SERIAL):
            got = be.giant_step_batch(ctx, pairs, rlk)
            assert np.array_equal(_components(got), want), be.name
            assert got.noise_bits == ctx.cmult_tensor(pairs)[3]
            assert got.noise_bits == pytest.approx(noise, abs=1e-9)

    def test_giant_step_batch_in_two_chunks(self, subject, monkeypatch):
        ctx, rlk, (a, b, c, d) = subject
        pairs = [(a, b), (c, d)]
        whole = BATCHED.giant_step_batch(ctx, pairs, rlk)
        chunks = []
        real = ctx.tensor_products

        def spy(group):
            chunks.append(len(group))
            return real(group)

        monkeypatch.setattr(ctx, "tensor_products", spy)
        small = BatchedBackend()
        small.giant_batch_elems = 1  # below any one pair's products: a pair a chunk
        got = small.giant_step_batch(ctx, pairs, rlk)
        assert chunks == [1, 1]
        assert np.array_equal(_components(got), _components(whole))
        assert np.array_equal(_components(got), _relinearised_oracle(pairs, rlk))

    def test_ring_mismatch_raises(self, subject):
        ctx, rlk, (a, *_) = subject
        other_limbs = uniform_ct(TEST_TINY, np.random.default_rng(0))
        # Same shapes, another plaintext modulus: nothing but the check sees it.
        t193 = FheParams("t193", n=32, limb_bits=30, num_limbs=8, t=193, lwe_n=16)
        other_t = BfvCiphertext(a.c0, a.c1, t193, 1.0)
        for b in (other_limbs, other_t):
            for call in (
                lambda: ctx.cmult(a, b, rlk),
                lambda: ctx.cmult_tensor([(a, b)]),
                lambda: ctx.cmult_tensor([(a, a), (b, a)]),
                lambda: BATCHED.giant_step_batch(ctx, [(a, a), (a, b)], rlk),
                lambda: SERIAL.giant_step_batch(ctx, [(a, a), (a, b)], rlk),
            ):
                with pytest.raises(ParameterError, match="ring mismatch"):
                    call()


# --- bounds as properties ---------------------------------------------------------------


class TestBounds:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_peak_below_its_limit(self, name):
        """Tables only — no twiddles — so the paper-size set is cheap too."""
        bounds = cmult_bounds(PRESETS[name])
        assert set(bounds) == {"product", "lazy_sum", "aux_basis", "overflow_estimate"}
        for what, (peak, limit) in bounds.items():
            assert 0 < peak < limit, (name, what)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_keyswitch_peak_below_its_limit(self, name):
        """What the hybrid keyswitch relies on, on every preset (the paper's
        ring included): word-sized products, an L-term lazy sum inside
        int64, and a special prime that is prime, NTT-friendly for 2N, no
        limb of Q and larger than each."""
        params = PRESETS[name]
        bounds = keyswitch_bounds(params)
        assert set(bounds) == {"product", "lazy_sum", "special_prime"}
        for what, (peak, limit) in bounds.items():
            assert 0 < peak < limit, (name, what)
        p = params.special_prime
        assert is_prime(p) and p % (2 * params.n) == 1 and 2**30 < p < 2**31
        assert p not in params.moduli and params.keyswitch_moduli == params.moduli + (p,)
        assert bounds["lazy_sum"][0] == len(params.moduli) * (p - 1)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_aux_basis_is_disjoint_and_not_oversized(self, name):
        params = PRESETS[name]
        aux, both = bfv_module._tensor_tables(params)[:2]
        assert both == params.moduli + aux and len(set(both)) == len(both)
        assert all(2**30 < p < 2**31 for p in aux)
        needed, have = cmult_bounds(params)["aux_basis"]
        assert have // needed < 2**31  # at most one prime more than necessary

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_basis_is_sized_for_the_longest_fbs_combination(self, name):
        """ceil(sqrt(t)) terms: the aux bound and the lazy sum both carry it."""
        params = PRESETS[name]
        terms = bfv_module._tensor_tables(params).terms
        assert (terms - 1) ** 2 < params.t <= terms**2
        bounds = cmult_bounds(params)
        assert bounds["aux_basis"][0] == 2 * params.t * params.n * params.q * terms + 4
        top = max(bfv_module._tensor_tables(params).both) - 1
        assert bounds["lazy_sum"][0] >= 2 * terms * top

    def test_a_sum_longer_than_the_basis_raises(self, rng):
        params = TEST_FBS
        ctx = BfvContext(params, seed=5)
        sk, _ = ctx.keygen()
        rlk = ctx.relin_key(sk)
        a, b = uniform_ct(params, rng), uniform_ct(params, rng)
        for count, error in ((18, TensorOverflow), (0, ParameterError)):
            for call in (
                lambda: ctx.cmult_tensor([(a, b)] * count),
                lambda: BATCHED.giant_step_batch(ctx, [(a, b)] * count, rlk),
                lambda: SERIAL.giant_step_batch(ctx, [(a, b)] * count, rlk),
            ):
                with pytest.raises(error) as err:
                    call()
                if count:
                    assert (err.value.terms, err.value.capacity) == (18, 17)
        assert issubclass(TensorOverflow, ParameterError)
        ctx.cmult_tensor([(a, b)] * 17)  # all the basis holds

    def test_estimate_error_bound_holds_on_the_worst_digits(self):
        """All digits p_i - 1: the largest sum the float estimate ever takes."""
        for params in PRESETS.values():
            for basis in (params.moduli, bfv_module._tensor_tables(params).aux):
                tb = rns._extension_tables(basis, basis[:1])
                xi = tb.src - 1
                estimate = Fraction(float((xi * tb.recip).sum()))
                exact = sum(Fraction(p - 1, p) for p in basis)
                assert abs(estimate - exact) < rns.overflow_estimate_error(len(basis))


@pytest.mark.slow
def test_paper_size_tensor_matches_sparse_oracle():
    """N = 2**15, 24 + 25 limbs: the kernel at the paper's parameters.

    The second operand is a pair of monomials, so the big-int product is a
    negacyclic shift and the oracle costs O(N) big-int operations.
    """
    params = ATHENA
    n, q, t = params.n, params.q, params.t
    rng = np.random.default_rng(15)
    a = uniform_ct(params, rng)
    h = q // 2
    (i, u), (j, w) = (3, h - 12345), (n - 2, -(q // 5))

    def monomial(index, value):
        coeffs = [0] * n
        coeffs[index] = value
        return coeffs

    b = ct_from_ints(params, monomial(i, u), monomial(j, w))

    def shifted(poly, index, value):
        arr = np.asarray(rns.from_rns_centered(poly.data, params.moduli), dtype=object)
        rolled = np.roll(arr, index)
        rolled[:index] = -rolled[:index]
        return rolled * value

    e0 = shifted(a.c0, i, u)
    e1 = shifted(a.c0, j, w) + shifted(a.c1, i, u)
    e2 = shifted(a.c1, j, w)
    want = np.stack(
        [rns.to_rns((e * (2 * t) + q) // (2 * q), params.moduli) for e in (e0, e1, e2)]
    )
    got = tensor(BfvContext(params, seed=5), a, b)
    assert np.array_equal(got, want)
