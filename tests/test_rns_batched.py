"""Batched (residue-stacked) RNS path vs the per-prime serial transforms.

The batched backend must be *bit-identical* to the serial reference for
every RnsPoly operation: the transforms are the four-step kernel against
per-prime radix-2 loops, and the element-wise ops share one body, whose
oracle is integer arithmetic mod Q on the CRT lifts. These tests sweep
random (L, N) stacks through every op, each engine selected explicitly so
the comparison holds whatever ``REPRO_BACKEND`` says.
"""

import numpy as np
import pytest

from repro.fhe.backend import current_backend, get_backend, use_backend
from repro.fhe.ntt import (
    ntt_forward,
    ntt_forward_rns,
    ntt_inverse,
    ntt_inverse_rns,
    ntt_mul,
    ntt_mul_rns,
)
from repro.fhe.params import ATHENA_MEDIUM, TEST_LOOP
from repro.fhe.poly import RnsPoly
from repro.fhe.rns import from_rns, rns_modulus, to_rns
from tests.conftest import monomial_map

PARAM_SETS = [TEST_LOOP, ATHENA_MEDIUM]


def _random_stack(rng, params):
    mods = np.array(params.moduli, dtype=np.int64)[:, None]
    return rng.integers(0, 2**31, (len(params.moduli), params.n)) % mods


@pytest.fixture(params=PARAM_SETS, ids=lambda p: f"n{p.n}L{len(p.moduli)}")
def params(request):
    return request.param


def _default_name() -> str:
    """The RNS engine the ambient default should run: REPRO_BACKEND (the CI
    serial leg sets it), else batched."""
    import os

    return get_backend(os.environ.get("REPRO_BACKEND") or "batched").name


class TestBackendSwitch:
    def test_default_follows_env(self):
        assert current_backend().name == _default_name()

    def test_context_manager_swaps_and_restores(self):
        with use_backend("serial"):
            assert current_backend().name == "serial"
            with use_backend("batched"):
                assert current_backend().name == "batched"
            assert current_backend().name == "serial"
        assert current_backend().name == _default_name()

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_backend("serial"):
                raise RuntimeError("boom")
        assert current_backend().name == _default_name()


class TestStackedNtt:
    """Residue-stacked transforms row-for-row match the per-prime ones."""

    def test_forward_matches_per_prime(self, params):
        rng = np.random.default_rng(1)
        a = _random_stack(rng, params)
        got = ntt_forward_rns(a.copy(), params.moduli)
        for i, p in enumerate(params.moduli):
            assert np.array_equal(got[i], ntt_forward(a[i].copy(), p))

    def test_inverse_matches_per_prime(self, params):
        rng = np.random.default_rng(2)
        a = _random_stack(rng, params)
        got = ntt_inverse_rns(a.copy(), params.moduli)
        for i, p in enumerate(params.moduli):
            assert np.array_equal(got[i], ntt_inverse(a[i].copy(), p))

    def test_roundtrip_is_identity(self, params):
        rng = np.random.default_rng(3)
        a = _random_stack(rng, params)
        back = ntt_inverse_rns(ntt_forward_rns(a.copy(), params.moduli),
                               params.moduli)
        assert np.array_equal(back, a)

    def test_mul_matches_per_prime(self, params):
        rng = np.random.default_rng(4)
        a = _random_stack(rng, params)
        b = _random_stack(rng, params)
        got = ntt_mul_rns(a.copy(), b.copy(), params.moduli)
        for i, p in enumerate(params.moduli):
            assert np.array_equal(got[i], ntt_mul(a[i].copy(), b[i].copy(), p))


def _mul(a, b):
    return a * b


#: Every RnsPoly op, and its oracle on the CRT lifts x, y mod Q. ``mul``, the
#: one whose engines run different algorithms, has none: its oracle is the
#: serial engine.
_OPS = [
    (lambda a, b: a + b, lambda x, y, q: [(u + v) % q for u, v in zip(x, y)]),
    (lambda a, b: a - b, lambda x, y, q: [(u - v) % q for u, v in zip(x, y)]),
    (lambda a, b: -a, lambda x, y, q: [-u % q for u in x]),
    (_mul, None),
    (lambda a, b: a.scalar_mul(12345), lambda x, y, q: [u * 12345 % q for u in x]),
    (lambda a, b: a.scalar_mul(-7), lambda x, y, q: [u * -7 % q for u in x]),
    (lambda a, b: a.automorphism(3), lambda x, y, q: monomial_map(x, 3, 0, q)),
    (lambda a, b: a.automorphism(2 * a.n - 1),
     lambda x, y, q: monomial_map(x, 2 * len(x) - 1, 0, q)),
    (lambda a, b: a.negacyclic_shift(1), lambda x, y, q: monomial_map(x, 1, 1, q)),
    (lambda a, b: a.negacyclic_shift(a.n - 1),
     lambda x, y, q: monomial_map(x, 1, len(x) - 1, q)),
    (lambda a, b: a.negacyclic_shift(a.n + 5),
     lambda x, y, q: monomial_map(x, 1, len(x) + 5, q)),
]


class TestRnsPolyOpEquivalence:
    """Every RnsPoly op on the batched engine, bit for bit: the element-wise
    ops (one body for both engines) against integer arithmetic mod Q on the
    CRT lifts, ``mul`` against the serial engine."""

    def _pair(self, params, seed):
        rng = np.random.default_rng(seed)
        a = RnsPoly(_random_stack(rng, params), params.moduli)
        b = RnsPoly(_random_stack(rng, params), params.moduli)
        return a, b

    @pytest.mark.parametrize(
        "op", [op for op, _ in _OPS],
        ids=["add", "sub", "neg", "mul", "smul", "smul_neg", "auto3",
             "auto_conj", "shift1", "shift_nm1", "shift_wrap"],
    )
    def test_op_bit_identical(self, params, op):
        a, b = self._pair(params, 11)
        with use_backend("batched"):
            batched = op(a, b)
        oracle = dict(_OPS)[op]
        if oracle is None:
            with use_backend("serial"):
                want = op(a, b).data
        else:
            lifts = (from_rns(x.data, params.moduli) for x in (a, b))
            want = to_rns(oracle(*lifts, rns_modulus(params.moduli)), params.moduli)
        assert np.array_equal(batched.data, want)

    def test_scalar_columns_are_cached_per_value_and_basis(self, params):
        """scalar_mul reads one bounded, read-only (L, 1) column per (value,
        basis); a hit computes what a miss did."""
        from repro.fhe.backend import _scalar_column

        a, _ = self._pair(params, 19)
        for value in (3, -7, params.delta, 0):
            with use_backend("batched"):
                miss, hit = a.scalar_mul(value), a.scalar_mul(value)
            with use_backend("serial"):
                serial = a.scalar_mul(value)
            assert np.array_equal(miss.data, serial.data)
            assert np.array_equal(hit.data, serial.data)
        col = _scalar_column(3, params.moduli)
        assert col is _scalar_column(3, params.moduli) and not col.flags.writeable
        assert col.shape == (len(params.moduli), 1)
        assert _scalar_column(3, params.keyswitch_moduli).shape == (
            len(params.keyswitch_moduli), 1)
        assert not np.array_equal(col, _scalar_column(5, params.moduli))
        assert _scalar_column.cache_info().maxsize == 4096

    def test_mul_matches_exact_reference(self, params):
        a, b = self._pair(params, 13)
        fast = a * b
        exact = a.mul_exact_then_reduce(b)
        assert np.array_equal(fast.data, exact.data)

    def test_crt_seams_unaffected_by_backend(self, params):
        a, _ = self._pair(params, 17)
        with use_backend("batched"):
            batched = a.to_int_coeffs()
        with use_backend("serial"):
            serial = a.to_int_coeffs()
        assert batched == serial


class TestToRnsBroadcast:
    def test_ndarray_path_matches_int_path(self, params):
        rng = np.random.default_rng(19)
        values = rng.integers(-(2**40), 2**40, params.n)
        fast = to_rns(values, params.moduli)
        exact = to_rns([int(v) for v in values], params.moduli)
        assert np.array_equal(fast, exact)

    def test_roundtrip(self, params):
        rng = np.random.default_rng(23)
        values = rng.integers(0, 2**31, params.n)
        lifted = from_rns(to_rns(values, params.moduli), params.moduli)
        assert lifted == [int(v) for v in values]


class TestDtypeOverflowGuards:
    def test_moduli_fit_butterfly_int64(self, params):
        # a*b with a, b < p < 2**31 must fit int64 (< 2**62): the invariant
        # the batched butterflies rely on instead of Barrett reduction.
        for p in params.moduli:
            assert p < 2**31
            assert (p - 1) * (p - 1) < 2**62

    def test_batched_mul_no_overflow_at_max_residues(self, params):
        mods = np.array(params.moduli, dtype=np.int64)[:, None]
        top = np.broadcast_to(mods - 1, (len(params.moduli), params.n)).copy()
        a = RnsPoly(top.copy(), params.moduli)
        with use_backend("batched"):
            fast = a * a
        exact = a.mul_exact_then_reduce(a)
        assert np.array_equal(fast.data, exact.data)
