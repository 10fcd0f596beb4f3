"""Property tests for the slot algebra (hypercube structure, rotations)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.fhe.ntt import negacyclic_mul_exact, ntt_forward, ntt_inverse
from repro.fhe.params import PRESETS
from repro.fhe.slots import (
    _slot_permutation,
    rotation_galois_element,
    row_swap_element,
    slot_decode,
    slot_encode,
)
from repro.utils.modmath import root_of_unity

N, T = 32, 257

vectors = st.integers(min_value=0, max_value=2**32).map(
    lambda s: np.random.default_rng(s).integers(0, T, N)
)


class TestPermutation:
    def test_is_bijection(self):
        perm = _slot_permutation(N, T)
        assert sorted(perm) == list(range(N))

    def test_cached_identity(self):
        assert _slot_permutation(N, T) is _slot_permutation(N, T)

    def test_unsupported_modulus(self):
        with pytest.raises(ParameterError):
            _slot_permutation(64, 17)


class TestEncodeDecode:
    @given(vectors)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, v):
        assert np.array_equal(slot_decode(slot_encode(v, N, T), N, T), v)

    @given(vectors, vectors)
    @settings(max_examples=20, deadline=None)
    def test_additive(self, a, b):
        ea = slot_encode(a, N, T)
        eb = slot_encode(b, N, T)
        assert np.array_equal(slot_decode((ea + eb) % T, N, T), (a + b) % T)

    @given(vectors, vectors)
    @settings(max_examples=15, deadline=None)
    def test_multiplicative(self, a, b):
        prod = np.mod(
            negacyclic_mul_exact(list(slot_encode(a, N, T)), list(slot_encode(b, N, T))),
            T,
        ).astype(np.int64)
        assert np.array_equal(slot_decode(prod, N, T), a * b % T)

    def test_wrong_length_raises(self):
        with pytest.raises(ParameterError):
            slot_encode(np.zeros(N + 1, dtype=np.int64), N, T)


@pytest.mark.parametrize("params", PRESETS.values(), ids=lambda p: p.name)
def test_slot_path_equals_the_radix2_transform(params):
    """Encode and decode run the stacked kernel on the one-limb basis (t,);
    it equals the per-prime radix-2 transform at every preset's (n, t)."""
    n, t = params.n, params.t
    rng = np.random.default_rng(n)
    values, coeffs = rng.integers(0, t, (2, 2, n))
    monomial = np.zeros(n, dtype=np.int64)
    monomial[1] = 1
    points = ntt_forward(monomial, t)  # output j is its evaluation point
    zeta, exps = root_of_unity(2 * n, t), [pow(3, j, 2 * n) for j in range(n // 2)]
    slot_points = [pow(zeta, e, t) for e in exps] + [pow(zeta, 2 * n - e, t) for e in exps]
    perm = _slot_permutation(n, t)
    assert np.array_equal(points[perm], slot_points)
    scattered = np.empty_like(values)
    scattered[:, perm] = values
    assert np.array_equal(slot_encode(values, n, t), ntt_inverse(scattered, t))
    assert np.array_equal(slot_decode(coeffs[0], n, t), ntt_forward(coeffs[0], t)[perm])


class TestGaloisStructure:
    @given(vectors, st.integers(min_value=0, max_value=N // 2 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rotation_permutes_rows(self, v, amount):
        """sigma_{3^a} on the encoding rotates both hypercube rows left."""
        coeffs = slot_encode(v, N, T)
        k = rotation_galois_element(N, amount)
        # Apply the automorphism X -> X^k directly on the Z_t coefficients.
        j = np.arange(N)
        dest = (j * k) % (2 * N)
        sign = np.where(dest >= N, -1, 1)
        dest = np.where(dest >= N, dest - N, dest)
        out = np.zeros(N, dtype=np.int64)
        out[dest] = coeffs * sign % T
        half = N // 2
        got = slot_decode(out % T, N, T)
        expected = np.concatenate([np.roll(v[:half], -amount), np.roll(v[half:], -amount)])
        assert np.array_equal(got, expected % T)

    def test_rotation_elements_form_group(self):
        # 3^a * 3^b = 3^(a+b) mod 2N
        a, b = 3, 7
        ka = rotation_galois_element(N, a)
        kb = rotation_galois_element(N, b)
        assert ka * kb % (2 * N) == rotation_galois_element(N, a + b)

    def test_row_swap_is_involution(self):
        k = row_swap_element(N)
        assert k * k % (2 * N) == 1

    def test_rotation_full_cycle_is_identity(self):
        assert rotation_galois_element(N, N // 2) == 1
