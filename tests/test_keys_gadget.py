"""Tests for key material: the grouped RNS digits (alpha limbs of Q per digit,
K = alpha special primes), their mod-up and mod-down, and the keyswitch keys
built on them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import backend as backend_module
from repro.fhe import rns
from repro.fhe.backend import (
    BATCHED,
    SERIAL,
    CountingBackend,
    _mod_down,
    _mod_up,
    current_backend,
    digit_groups,
    hoisted_rotations,
    use_backend,
)
from repro.fhe.bfv import BfvCiphertext, BfvContext, Plaintext
from repro.fhe.keys import KeySwitchKey
from repro.fhe.ntt import negacyclic_mul_exact, ntt_forward_rns, ntt_inverse_rns
from repro.fhe.packing import MatvecPlan, hypercube_matvec
from repro.fhe.params import (
    ATHENA_MEDIUM,
    TEST_FBS,
    TEST_LOOP,
    TEST_SMALL,
    TEST_TINY,
    FheParams,
)
from repro.fhe.poly import RnsPoly
from repro.fhe.s2c import slot_to_coeff
from repro.fhe.slots import rotation_galois_element, row_swap_element
from repro.utils.modmath import inv_mod
from repro.utils.sampling import SIGMA, Sampler
from tests.conftest import assert_rounding_apart, keyswitch_noise_bound, s2c_keys

#: Test-only sets where Q sits under the HE-standard ceiling, so the digit
#: rule groups: alpha = 1, D = 2; and alpha = 2, D = 3 with a one-limb last
#: digit.
GROUPED_2 = FheParams("grouped-2", n=4096, limb_bits=30, num_limbs=2, t=65537, lwe_n=16)
GROUPED_3 = FheParams("grouped-3", n=8192, limb_bits=30, num_limbs=5, t=65537, lwe_n=16)

TOY_SETS = (TEST_TINY, TEST_SMALL, TEST_FBS, TEST_LOOP)


@pytest.fixture(scope="module")
def ctx():
    return BfvContext(TEST_TINY, seed=55)


@pytest.fixture(scope="module")
def keys(ctx):
    return ctx.keygen()


def _assert_digits_recompose(params, data):
    """``sum_j [c]_{Q_j} * P * delta_j = P * c (mod Q * P)`` over the
    integers, for the digits the kernels multiply: the mod-up of group j is
    the centred lift of its residues, in every limb of Q u P — its own rows
    canonical, the extended ones residue classes inside the range
    :func:`rns.base_extend` states."""
    moduli, both = params.moduli, params.keyswitch_moduli
    assert both == moduli + params.special_moduli
    p, q = math.prod(params.special_moduli), params.q
    raw = _mod_up(data, moduli, both)
    assert raw.shape == (params.num_digits, len(both), params.n)
    below, above = rns.EXTENSION_RANGE
    assert below < raw.min() and raw.max() < above
    digits = raw % np.array(both, dtype=np.int64)[:, None]
    for j, rows in enumerate(digit_groups(len(moduli), both)):
        assert np.array_equal(raw[j, rows], data[rows])
    total = np.zeros(params.n, dtype=object)
    for j, rows in enumerate(digit_groups(len(moduli), both)):
        q_j = math.prod(moduli[rows])
        assert q_j < p  # P dominates every digit
        lift = np.array(rns.from_rns_centered(data[rows], moduli[rows]), dtype=object)
        assert np.abs(lift).max() <= q_j // 2
        assert np.array_equal(digits[j], rns.to_rns(lift, both))
        rest = q // q_j
        idempotent = rest * inv_mod(rest % q_j, q_j)  # 1 mod group j, 0 mod the rest
        total += lift * (p * idempotent)
    lifted = rns.from_rns_object(data, moduli)
    assert np.array_equal(total % (q * p), lifted * p % (q * p))


class TestRnsDigits:
    """A digit is the centred lift of a group's residues: the CRT idempotent
    sits in the key."""

    def test_recomposition(self, rng):
        for params in TOY_SETS + (GROUPED_2, GROUPED_3):
            poly = RnsPoly.from_int_coeffs(rng.integers(0, 10**9, params.n), params.moduli)
            _assert_digits_recompose(params, poly.data)

    def test_largest_digits_recompose(self):
        """Every residue at q_i - 1, and lifts at the centred interval's
        edges (+-(Q_j - 1)/2, the base extension's exact route)."""
        for params in TOY_SETS + (GROUPED_3,):
            moduli = params.moduli
            data = np.repeat(np.array(moduli)[:, None] - 1, params.n, axis=1)
            _assert_digits_recompose(params, data)
            for rows in digit_groups(len(moduli), params.keyswitch_moduli):
                q_j = math.prod(moduli[rows])
                edges = [(q_j - 1) // 2, (q_j + 1) // 2, 0, q_j - 1]
                data[rows, :4] = rns.to_rns(edges, moduli[rows])
            _assert_digits_recompose(params, data)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_recomposition_random(self, seed):
        rng = np.random.default_rng(seed)
        for params in (TEST_TINY, GROUPED_3):
            data = np.stack([rng.integers(0, q, params.n) for q in params.moduli])
            _assert_digits_recompose(params, data)

    @pytest.mark.parametrize("params", (TEST_LOOP, GROUPED_3), ids=lambda p: p.name)
    def test_mod_down_is_the_rounded_division(self, params, rng):
        """round(x / P) mod Q of the lift x of a stack over Q u P: exact,
        word-sized, edges of the centred P residue included."""
        moduli, both = params.moduli, params.keyswitch_moduli
        p = math.prod(params.special_moduli)
        x = rng.integers(0, 2**31, (2, len(both), params.n)) % np.array(both)[:, None]
        x[:, :, :2] = rns.to_rns([p // 2, p // 2 + 1], both)  # +-(P-1)/2
        for comp, got in zip(x, _mod_down(x, moduli, both)):
            lifted = rns.from_rns_object(comp, both)
            want = (lifted + p // 2) // p % params.q
            assert np.array_equal(got, rns.to_rns(want, moduli))

    def test_key_folds_the_idempotent(self, keys):
        """Digit key j is an encryption of P * g * delta_j under s over
        Q u P: P * g on the limbs of group j, zero on every other limb and on
        P, small noise — one key per group, on a one-digit and a two-digit
        set, held in the evaluation domain."""
        for params, sk in ((TEST_TINY, keys[0]), (GROUPED_2, None)):
            sk = sk or BfvContext(params, seed=56).keygen()[0]
            both = params.keyswitch_moduli
            target = RnsPoly.from_int_coeffs(Sampler(7).ternary(params.n), params.moduli)
            ksk = KeySwitchKey.generate(target, sk, Sampler(8))
            groups = digit_groups(len(params.moduli), both)
            assert ksk.halves.shape[1] == len(groups) == params.num_digits and ksk.moduli == both
            s = RnsPoly.from_int_coeffs(sk.coeffs, both)
            p = math.prod(params.special_moduli)
            assert ksk.halves.shape == (2, len(groups), len(both), params.n)
            assert not ksk.halves.flags.writeable
            halves = (ntt_inverse_rns(h, both) for h in ksk.halves)
            for rows, k0, k1 in zip(groups, *halves):
                payload = RnsPoly(np.zeros((len(both), params.n), dtype=np.int64), both)
                payload.data[rows] = target.data[rows] * (p % np.array(both[rows]))[:, None]
                payload.data[rows] %= np.array(both[rows])[:, None]
                noise = (RnsPoly(k0, both) + RnsPoly(k1, both) * s - payload).to_int_coeffs()
                assert max(abs(v) for v in noise) <= 6 * SIGMA


def _keyswitch_residual(params, seed):
    """Centred ``d0 + d1 * s - c * g`` of one keyswitch of a uniform
    component c, with c * g multiplied over Python integers."""
    ctx = BfvContext(params, seed=seed)
    sk, _ = ctx.keygen()
    sampler = Sampler(seed + 1)
    target = RnsPoly.from_int_coeffs(sampler.ternary(params.n), params.moduli)
    ksk = KeySwitchKey.generate(target, sk, sampler)
    data = np.stack([sampler.uniform(q, params.n) for q in params.moduli])
    component = RnsPoly(data, params.moduli)
    out0, out1 = (RnsPoly(d, params.moduli)
                  for d in current_backend().keyswitch(data, ksk, params.moduli))
    expected = component.mul_exact_then_reduce(target)
    residual = (out0 + out1 * sk.poly - expected).to_int_coeffs(centered=True)
    return max(abs(v) for v in residual)


class TestKeySwitchKeys:
    def test_keyswitch_moves_component(self):
        """The keyswitch of c under KSK_{g->s} must satisfy
        out0 + out1*s = c*g (mod Q) up to the hybrid noise bound — one digit
        on the toy sets, two on a grouped one."""
        for params in TOY_SETS + (GROUPED_2,):
            for seed in (77, 78):
                residual = _keyswitch_residual(params, seed)
                assert residual <= keyswitch_noise_bound(params), params.name

    @pytest.mark.slow
    def test_keyswitch_moves_component_at_medium(self):
        assert _keyswitch_residual(ATHENA_MEDIUM, 77) <= keyswitch_noise_bound(ATHENA_MEDIUM)

    def test_secret_norm(self, keys):
        sk, _ = keys
        assert int(np.sum(sk.coeffs**2)) <= TEST_TINY.n

    def test_relin_key_enables_cmult(self, ctx, keys, rng):
        sk, pk = keys
        p = ctx.params
        rlk = ctx.relin_key(sk)
        m1 = rng.integers(0, 10, p.n)
        m2 = rng.integers(0, 10, p.n)
        (out,) = current_backend().cmult_batch(ctx, [(
            ctx.encrypt(Plaintext.from_coeffs(m1, p), pk),
            ctx.encrypt(Plaintext.from_coeffs(m2, p), pk),
        )], rlk)
        expected = np.mod(negacyclic_mul_exact(list(m1), list(m2)), p.t)
        assert np.array_equal(ctx.decrypt(out, sk).coeffs, expected)

    def test_galois_key_wrong_element_breaks(self, ctx, keys, rng):
        # Using a Galois key for the wrong element must NOT decrypt correctly
        # (sanity check that keyswitching is element-specific).
        sk, pk = keys
        p = ctx.params
        gk5 = ctx.galois_key(sk, 5)
        v = rng.integers(0, p.t, p.n)
        ct = ctx.encrypt(Plaintext.from_coeffs(v, p), pk)
        wrong = ctx.apply_galois(ct, 3, gk5)  # element 3, key for 5
        dec = ctx.decrypt(wrong, sk).coeffs
        correct = ctx.decrypt(ctx.apply_galois(ct, 5, gk5), sk).coeffs
        assert not np.array_equal(dec, correct)


def _setup(params, seed=91):
    ctx = BfvContext(params, seed=seed)
    sk, pk = ctx.keygen()
    elements = [rotation_galois_element(params.n, 1),
                rotation_galois_element(params.n, 2),
                rotation_galois_element(params.n, 3),
                row_swap_element(params.n)]
    rng = np.random.default_rng(seed + 1)
    ct = ctx.encrypt(Plaintext.from_coeffs(rng.integers(0, params.t, params.n), params), pk)
    return ctx, sk, pk, ctx.relin_key(sk), ctx.galois_keys(sk, elements), ct


@pytest.fixture(scope="module", params=TOY_SETS, ids=lambda p: p.name)
def rotation_setup(request):
    ctx, sk, _, rlk, gks, ct = _setup(request.param)
    return ctx, sk, rlk, gks, ct


class TestOneKeyswitchThreeBodies:
    """Reference, batched and counted bodies change together: bit for bit."""

    def test_keyswitch_identical_on_every_engine(self, rotation_setup):
        ctx, _, rlk, _, ct = rotation_setup
        moduli = ctx.params.moduli
        want = SERIAL.keyswitch(ct.c1.data, rlk, moduli)
        for be in (BATCHED, CountingBackend(BATCHED), CountingBackend(SERIAL)):
            for x, y in zip(want, be.keyswitch(ct.c1.data, rlk, moduli)):
                assert x.shape == (len(moduli), ctx.params.n) and np.array_equal(x, y)

    def test_rotate_keyswitch_identical_on_every_engine(self, rotation_setup):
        ctx, sk, _, gks, ct = rotation_setup
        moduli = ctx.params.moduli
        for k, gk in gks.items():
            want = SERIAL.rotate_keyswitch(ct.c0.data, ct.c1.data, k, gk, moduli)
            for be in (BATCHED, CountingBackend(BATCHED), CountingBackend(SERIAL)):
                got = be.rotate_keyswitch(ct.c0.data, ct.c1.data, k, gk, moduli)
                for x, y in zip(want, got):
                    assert np.array_equal(x, y)
            # ... and it is the rotation: automorphism on the plaintext.
            with use_backend(BATCHED):
                out = ctx.apply_galois(ct, k, gk)
            assert np.array_equal(out.c0.data, want[0])
            assert np.array_equal(
                ctx.decrypt(out, sk).coeffs,
                RnsPoly.from_int_coeffs(ctx.decrypt(ct, sk).coeffs, (ctx.params.t,))
                .automorphism(k).data[0])

    def test_hoisted_images_are_the_transformed_rotations(self, rotation_setup):
        """The evaluation-domain mod-down (only the K special limbs leave the
        domain) equals the coefficient-domain one: every image is the
        forward transform of ``rotate_keyswitch``'s output."""
        ctx, _, _, gks, ct = rotation_setup
        _assert_hoisted_images(ctx, gks, ct)

    def test_hoisted_images_in_chunks(self, rotation_setup, monkeypatch):
        """The same images when the digit-stack cap splits the five
        elements into three chunks, shared parent or not."""
        ctx, _, _, gks, ct = rotation_setup
        cap = next(iter(gks.values())).halves.size
        monkeypatch.setattr(backend_module, "CMULT_BATCH_ELEMS", cap)
        _assert_hoisted_images(ctx, gks, ct)


def _assert_hoisted_images(ctx, gks, ct):
    """One parent shared by every element (the babies): image e is the
    forward transform of ``rotate_keyswitch``'s output, on either engine.
    One parent per element (the giants): the transformed sum of those
    outputs under one mod-down — the sum itself for one element, within
    ``E // 2`` of it on every coefficient for E."""
    moduli, n = ctx.params.moduli, ctx.params.n
    elements = list(gks) + list(gks)[:1]  # five: chunks of 2, 2 and 1 at a cap of two
    pair = np.stack([ct.c0.data, ct.c1.data])
    parents = np.stack([SERIAL.scalar_mul(pair, e + 1, moduli) for e in range(len(elements))])
    f0 = ntt_forward_rns(parents[:, 0], moduli)
    shared = hoisted_rotations(f0[0], pair[1], elements, gks, moduli)
    assert shared.shape == (len(elements), 2, len(moduli), n)
    images = []
    for e, k in enumerate(elements):
        for be in (SERIAL, BATCHED):
            rotated = be.rotate_keyswitch(*pair, k, gks[k], moduli)
            assert np.array_equal(shared[e], ntt_forward_rns(np.stack(rotated), moduli))
        images.append(np.stack(SERIAL.rotate_keyswitch(*parents[e], k, gks[k], moduli)))
    for count in (1, len(elements)):
        summed = hoisted_rotations(f0[:count], parents[:count, 1], elements[:count], gks, moduli)
        assert summed.shape == (2, len(moduli), n)
        assert_rounding_apart(ntt_inverse_rns(summed, moduli),
                              SERIAL.hadd_many(images[:count], moduli), moduli, count)
    empty = hoisted_rotations(f0[0], pair[1], [], gks, moduli)
    assert empty.shape == (0, 2, len(moduli), n)
    assert not hoisted_rotations(f0[:0], parents[:0, 1], [], gks, moduli).any()


def _sparse_s2c_plan(params):
    """A mat-vec of S2C's shape — the babies of both passes, the row swap,
    the swap's baby, group 0 and two giant groups (rotations by 2 and 4,
    which share one mod-down) — over small random plaintext diagonals:
    S2C's own plan is N^2 words at the grouped sets' rings."""
    n, bs = params.n, 2
    rng = np.random.default_rng(63)
    baby = rotation_galois_element(n, 1)

    def stack(count):
        small = rng.integers(-(params.t // 2), params.t // 2 + 1, (count, n))
        out = ntt_forward_rns(rns.to_rns(small, params.moduli), params.moduli)
        out.setflags(write=False)
        return out

    derived = ((0, ((1, baby), (bs, row_swap_element(n)))), (bs, ((bs + 1, baby),)))
    groups = ((0, (0, 1, 2, 3), stack(4)), (1, (0, 3), stack(2)), (2, (1, 2), stack(2)))
    return MatvecPlan(bs, derived, groups)


def _same_on_every_engine(run):
    """``run()`` under batched, serial and counting(batched): one result
    (arrays, ciphertexts, or tuples / lists of them), bit for bit."""

    def arrays(x):
        if isinstance(x, BfvCiphertext):
            return [x.c0.data, x.c1.data]
        if isinstance(x, np.ndarray):
            return [x]
        return [a for item in x for a in arrays(item)]

    results = []
    for be in (BATCHED, SERIAL, CountingBackend(BATCHED)):
        with use_backend(be):
            results.append(run())
    for other in results[1:]:
        for x, y in zip(arrays(results[0]), arrays(other), strict=True):
            assert np.array_equal(x, y)
    return results[0]


@pytest.fixture(scope="module", ids=lambda p: p.name, params=[
    TEST_FBS, TEST_LOOP, GROUPED_2,
    pytest.param(GROUPED_3, marks=pytest.mark.slow, id=GROUPED_3.name)])
def grouped_setup(request):
    return _setup(request.param, seed=61)


class TestGroupedDigits:
    """serial == batched == counting for every op a keyswitch runs under, on
    one-digit sets (TEST_FBS, TEST_LOOP) and on grouped ones (D = 2; D = 3
    with an uneven last group) — and the results decrypt."""

    def test_rule_groups_where_it_must(self, grouped_setup):
        params, rlk = grouped_setup[0].params, grouped_setup[3]
        sizes = [r.stop - r.start for r in digit_groups(params.num_limbs, params.keyswitch_moduli)]
        want = {"test-fbs": [8], "test-loop": [9], "grouped-2": [1, 1], "grouped-3": [2, 2, 1]}
        assert sizes == want[params.name]
        assert rlk.halves.shape[1] == params.num_digits == len(sizes)
        assert rlk.halves.shape == (2, len(sizes), params.num_limbs + max(sizes), params.n)

    def test_keyswitch_and_rotations(self, grouped_setup):
        ctx, sk, _, rlk, gks, ct = grouped_setup
        moduli = ctx.params.moduli
        for data in (ct.c1.data, np.stack([ct.c0.data, ct.c1.data])):  # one, and a stack
            _same_on_every_engine(lambda: current_backend().keyswitch(data, rlk, moduli))
        plain = RnsPoly.from_int_coeffs(ctx.decrypt(ct, sk).coeffs, (ctx.params.t,))
        for k, gk in gks.items():
            out = _same_on_every_engine(lambda: ctx.apply_galois(ct, k, gk))
            assert np.array_equal(ctx.decrypt(out, sk).coeffs, plain.automorphism(k).data[0])
        _assert_hoisted_images(ctx, gks, ct)
        # Counted, whatever D and K are: the mod-up's and both mod-downs'
        # base-conversion outputs of three keyswitches.
        counting = CountingBackend(BATCHED)
        counting.keyswitch(np.stack([ct.c0.data, ct.c1.data]), rlk, moduli)
        k, gk = next(iter(gks.items()))
        counting.rotate_keyswitch(ct.c0.data, ct.c1.data, k, gk, moduli)
        width, n = len(rlk.moduli), ctx.params.n
        assert counting.totals()["rnsconv"] == 3 * (ctx.params.num_digits * width + len(moduli)) * n

    def test_cmult_batch(self, grouped_setup):
        ctx, sk, pk, rlk, _, ct = grouped_setup
        params = ctx.params
        m = np.random.default_rng(62).integers(0, 4, params.n)
        other = ctx.encrypt(Plaintext.from_coeffs(m, params), pk)
        pairs = [(ct, other), (other, other)]
        outs = _same_on_every_engine(lambda: current_backend().cmult_batch(ctx, pairs, rlk))
        square = np.mod(negacyclic_mul_exact(list(m), list(m)), params.t)
        assert np.array_equal(ctx.decrypt(outs[1], sk).coeffs, square)

    def test_s2c(self, grouped_setup):
        """One S2C on the one-digit sets; the same mat-vec over a sparse
        plan of its shape on the grouped ones."""
        ctx, sk, _, _, gks, ct = grouped_setup
        if ctx.params.n > 128:
            gks = gks | ctx.galois_keys(sk, [rotation_galois_element(ctx.params.n, 4)])
            _same_on_every_engine(
                lambda: hypercube_matvec(ctx, ct, _sparse_s2c_plan(ctx.params), gks))
            return
        keys = s2c_keys(ctx, sk)
        out = _same_on_every_engine(lambda: slot_to_coeff(ctx, ct, keys))
        assert np.array_equal(ctx.decrypt(out, sk).coeffs, ctx.decrypt(ct, sk).to_slots())
