"""Tests for key material: the RNS gadget (one digit per limb, one special
prime) and the keyswitch keys built on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import rns
from repro.fhe.backend import (
    BATCHED,
    SERIAL,
    CountingBackend,
    _digit_residues,
    hoisted_rotations,
    use_backend,
)
from repro.fhe.bfv import BfvContext, Plaintext
from repro.fhe.keys import KeySwitchKey, apply_keyswitch
from repro.fhe.ntt import ntt_forward_rns
from repro.fhe.params import (
    ATHENA_MEDIUM,
    TEST_FBS,
    TEST_LOOP,
    TEST_SMALL,
    TEST_TINY,
)
from repro.fhe.poly import RnsPoly
from repro.fhe.slots import rotation_galois_element, row_swap_element
from repro.utils.modmath import inv_mod
from repro.utils.sampling import Sampler
from tests.conftest import keyswitch_noise_bound


@pytest.fixture(scope="module")
def ctx():
    return BfvContext(TEST_TINY, seed=55)


@pytest.fixture(scope="module")
def keys(ctx):
    return ctx.keygen()


def _assert_digits_recompose(params, data):
    """``sum_i c_i * P * delta_i = P * c (mod Q * P)`` over the integers, for
    the digits the kernels multiply: residue row i of ``data`` as it stands,
    reduced into every limb of Q u {P}."""
    moduli, both, p = params.moduli, params.keyswitch_moduli, params.special_prime
    assert both == moduli + (p,)
    digits = _digit_residues(data, both)
    assert digits.shape == (len(moduli), len(both), params.n)
    total = np.zeros(params.n, dtype=object)
    for i, q in enumerate(moduli):
        assert 0 <= data[i].min() and data[i].max() < q  # a digit is < q_i
        assert np.array_equal(digits[i], data[i] % np.array(both)[:, None])
        rest = params.q // q
        idempotent = rest * inv_mod(rest % q, q)  # 1 mod q_i, 0 mod q_j
        total += data[i].astype(object) * (p * idempotent)
    lifted = rns.from_rns_object(data, moduli)
    assert np.array_equal(total % (params.q * p), lifted * p % (params.q * p))


class TestRnsDigits:
    """A digit is a residue row: the CRT idempotent sits in the key."""

    def test_recomposition(self, rng):
        for params in (TEST_TINY, TEST_SMALL, TEST_FBS, TEST_LOOP):
            poly = RnsPoly.from_int_coeffs(rng.integers(0, 10**9, params.n), params.moduli)
            _assert_digits_recompose(params, poly.data)

    def test_largest_digits_recompose(self):
        """Every residue at q_i - 1: the widest digits a component has."""
        for params in (TEST_TINY, TEST_SMALL, TEST_FBS, TEST_LOOP):
            data = np.repeat(np.array(params.moduli)[:, None] - 1, params.n, axis=1)
            _assert_digits_recompose(params, data)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_recomposition_random(self, seed):
        params = TEST_TINY
        rng = np.random.default_rng(seed)
        data = np.stack([rng.integers(0, q, params.n) for q in params.moduli])
        _assert_digits_recompose(params, data)

    def test_key_folds_the_idempotent(self, ctx, keys):
        """Digit key i is an encryption of P * g * delta_i under s over
        Q u {P}: P * g on limb i, zero on every other limb, small noise."""
        sk, _ = keys
        p = ctx.params
        both = p.keyswitch_moduli
        target = RnsPoly.from_int_coeffs(Sampler(7).ternary(p.n), p.moduli)
        ksk = KeySwitchKey.generate(target, sk, Sampler(8))
        assert len(ksk.k0) == len(p.moduli) and ksk.moduli == both
        s = RnsPoly.from_int_coeffs(sk.coeffs, both)
        for i, (k0, k1) in enumerate(zip(ksk.k0, ksk.k1)):
            payload = RnsPoly.zeros(p.n, both)
            payload.data[i] = target.data[i] * p.special_prime % both[i]
            noise = (k0 + k1 * s - payload).to_int_coeffs(centered=True)
            assert max(abs(v) for v in noise) <= 6 * p.sigma


def _keyswitch_residual(params, seed):
    """Centred ``d0 + d1 * s - c * g`` of one keyswitch of a uniform
    component c, with c * g multiplied over Python integers."""
    ctx = BfvContext(params, seed=seed)
    sk, _ = ctx.keygen()
    sampler = Sampler(seed + 1, sigma=params.sigma)
    target = RnsPoly.from_int_coeffs(sampler.ternary(params.n), params.moduli)
    ksk = KeySwitchKey.generate(target, sk, sampler)
    data = np.stack([sampler.uniform(q, params.n) for q in params.moduli])
    component = RnsPoly(data, params.moduli)
    out0, out1 = apply_keyswitch(component, ksk)
    expected = component.mul_exact_then_reduce(target)
    residual = (out0 + out1 * sk.poly - expected).to_int_coeffs(centered=True)
    return max(abs(v) for v in residual)


class TestKeySwitchKeys:
    def test_keyswitch_moves_component(self):
        """apply_keyswitch(c, KSK_{g->s}) must satisfy
        out0 + out1*s = c*g (mod Q) up to the hybrid noise bound."""
        for params in (TEST_TINY, TEST_SMALL, TEST_FBS, TEST_LOOP):
            for seed in (77, 78):
                residual = _keyswitch_residual(params, seed)
                assert residual <= keyswitch_noise_bound(params), params.name

    @pytest.mark.slow
    def test_keyswitch_moves_component_at_medium(self):
        assert _keyswitch_residual(ATHENA_MEDIUM, 77) <= keyswitch_noise_bound(ATHENA_MEDIUM)

    def test_secret_norm(self, keys):
        sk, _ = keys
        assert sk.norm_sq == int(np.sum(sk.coeffs**2))
        assert sk.norm_sq <= TEST_TINY.n

    def test_relin_key_enables_cmult(self, ctx, keys, rng):
        sk, pk = keys
        p = ctx.params
        rlk = ctx.relin_key(sk)
        m1 = rng.integers(0, 10, p.n)
        m2 = rng.integers(0, 10, p.n)
        out = ctx.cmult(
            ctx.encrypt(Plaintext.from_coeffs(m1, p), pk),
            ctx.encrypt(Plaintext.from_coeffs(m2, p), pk),
            rlk,
        )
        from repro.fhe.ntt import negacyclic_mul_exact

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


@pytest.fixture(scope="module", params=[TEST_TINY, TEST_SMALL, TEST_FBS, TEST_LOOP],
                ids=lambda p: p.name)
def rotation_setup(request):
    params = request.param
    ctx = BfvContext(params, seed=91)
    sk, pk = ctx.keygen()
    elements = [rotation_galois_element(params.n, 1),
                rotation_galois_element(params.n, 3),
                row_swap_element(params.n)]
    rng = np.random.default_rng(92)
    ct = ctx.encrypt(Plaintext.from_slots(rng.integers(0, params.t, params.n), params), pk)
    return ctx, sk, ctx.relin_key(sk), ctx.galois_keys(sk, elements), ct


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
        """The evaluation-domain mod-down (only the P limb leaves the
        domain) equals the coefficient-domain one: every image is the
        forward transform of ``rotate_keyswitch``'s output."""
        ctx, _, _, gks, ct = rotation_setup
        moduli = ctx.params.moduli
        elements = list(gks)
        f0 = ntt_forward_rns(ct.c0.data, moduli)
        images = hoisted_rotations(f0, ct.c1.data, elements, gks, moduli)
        assert len(images) == len(elements)
        for k, image in zip(elements, images):
            for be in (SERIAL, BATCHED):
                rotated = be.rotate_keyswitch(ct.c0.data, ct.c1.data, k, gks[k], moduli)
                assert np.array_equal(image, ntt_forward_rns(np.stack(rotated), moduli))
        assert hoisted_rotations(f0, ct.c1.data, [], gks, moduli) == []
