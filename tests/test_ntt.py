"""Unit tests for the NTT layer: transforms, exact multiplier, cyclic DFT."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.fhe import backend as backend_mod
from repro.fhe import bfv as bfv_mod
from repro.fhe import ntt
from repro.fhe.bfv import BfvContext
from repro.fhe.params import PRESETS
from repro.utils.modmath import find_ntt_primes, inv_mod, primitive_root

P64 = find_ntt_primes(1, 30, 128)[0]  # supports N = 64


def naive_negacyclic(a, b, p):
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            k = i + j
            if k < n:
                out[k] = (out[k] + int(a[i]) * int(b[j])) % p
            else:
                out[k - n] = (out[k - n] - int(a[i]) * int(b[j])) % p
    return np.array(out, dtype=np.int64)


class TestForwardInverse:
    def test_roundtrip(self, rng):
        a = rng.integers(0, P64, 64)
        back = ntt.ntt_inverse(ntt.ntt_forward(a.copy(), P64), P64)
        assert np.array_equal(back, a)

    def test_linear(self, rng):
        a = rng.integers(0, P64, 64)
        b = rng.integers(0, P64, 64)
        fa = ntt.ntt_forward(a.copy(), P64)
        fb = ntt.ntt_forward(b.copy(), P64)
        fsum = ntt.ntt_forward((a + b) % P64, P64)
        assert np.array_equal(fsum, (fa + fb) % P64)

    def test_batched_rows(self, rng):
        batch = rng.integers(0, P64, (5, 64))
        fwd = ntt.ntt_forward(batch.copy(), P64)
        for i in range(5):
            assert np.array_equal(fwd[i], ntt.ntt_forward(batch[i].copy(), P64))

    def test_rejects_bad_size(self):
        with pytest.raises(ParameterError):
            ntt.ntt_forward(np.zeros(48, dtype=np.int64), P64)


class TestMultiplication:
    def test_matches_naive(self, rng):
        a = rng.integers(0, P64, 64)
        b = rng.integers(0, P64, 64)
        assert np.array_equal(ntt.ntt_mul(a, b, P64), naive_negacyclic(a, b, P64))

    def test_x_times_xn_minus_1_wraps_negative(self):
        # X * X^(N-1) = X^N = -1 in the negacyclic ring.
        n = 64
        a = np.zeros(n, dtype=np.int64)
        b = np.zeros(n, dtype=np.int64)
        a[1] = 1
        b[n - 1] = 1
        out = ntt.ntt_mul(a, b, P64)
        expected = np.zeros(n, dtype=np.int64)
        expected[0] = P64 - 1
        assert np.array_equal(out, expected)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30)
    def test_scalar_mul_consistency(self, c):
        rng = np.random.default_rng(c)
        a = rng.integers(0, P64, 64)
        b = np.zeros(64, dtype=np.int64)
        b[0] = c % P64
        assert np.array_equal(ntt.ntt_mul(a, b, P64), a * (c % P64) % P64)


class TestExactMultiplier:
    def test_matches_ntt_small_coeffs(self, rng):
        a = rng.integers(-1000, 1000, 64)
        b = rng.integers(-1000, 1000, 64)
        exact = np.mod(ntt.negacyclic_mul_exact(list(a), list(b)), P64)
        assert np.array_equal(exact.astype(np.int64), ntt.ntt_mul(a, b, P64))

    def test_big_coefficients(self):
        # Coefficients far beyond int64.
        a = [2**100 + i for i in range(8)]
        b = [-(2**90) + 7 * i for i in range(8)]
        got = ntt.negacyclic_mul_exact(a, b)
        exp = [0] * 8
        for i in range(8):
            for j in range(8):
                k = i + j
                if k < 8:
                    exp[k] += a[i] * b[j]
                else:
                    exp[k - 8] -= a[i] * b[j]
        assert got == exp

    def test_zero_operand(self):
        a = [0] * 16
        b = list(range(16))
        assert ntt.negacyclic_mul_exact(a, b) == [0] * 16

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            ntt.negacyclic_mul_exact([1, 2], [1, 2, 3])

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_length_not_power_of_two(self, n):
        with pytest.raises(ParameterError, match="power-of-two"):
            ntt.negacyclic_mul_exact([1] * n, [1] * n)

    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=16, max_size=16),
           st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=16, max_size=16))
    @settings(max_examples=30)
    def test_property_vs_schoolbook(self, a, b):
        got = ntt.negacyclic_mul_exact(a, b)
        exp = [0] * 16
        for i in range(16):
            for j in range(16):
                k = i + j
                if k < 16:
                    exp[k] += a[i] * b[j]
                else:
                    exp[k - 16] -= a[i] * b[j]
        assert got == exp


class TestCyclicNtt:
    @pytest.mark.parametrize("t", [5, 17, 257])
    def test_matches_direct_dft(self, t):
        g = primitive_root(t)
        n = t - 1
        rng = np.random.default_rng(t)
        x = rng.integers(0, t, n)
        for root in (inv_mod(g, t), g):  # interpolation, then evaluation
            direct = np.array(
                [sum(int(x[m]) * pow(root, k * m, t) for m in range(n)) % t for k in range(n)]
            )
            assert np.array_equal(ntt.cyclic_ntt(x, t, root), direct)

    @pytest.mark.parametrize("count", [0, 1, 2, 13, 64])
    def test_root_powers_are_the_powers(self, count):
        assert ntt.root_powers(3, count, P64).tolist() == [pow(3, k, P64) for k in range(count)]

    def test_rejects_non_pow2(self):
        with pytest.raises(ParameterError):
            ntt.cyclic_ntt(np.zeros(6, dtype=np.int64), 17, 2)

    def test_rejects_wrong_order_root(self):
        with pytest.raises(ParameterError):
            ntt.cyclic_ntt(np.zeros(16, dtype=np.int64), 17, 16)  # 16 has order 2


# --- the stacked kernel against the per-prime oracle ------------------------------------


def preset_bases(name):
    """The two bases every request transforms over: Q u P and Q u aux."""
    params = PRESETS[name]
    return params.n, (params.keyswitch_moduli, BfvContext(params).tensor_moduli)


def assert_matches_oracle(a, moduli):
    """Both stacked transforms of ``a`` equal the per-prime ones limb by limb
    (on the np.mod-reduced input), leave ``a`` alone and hand back a fresh
    writable C-contiguous int64 array."""
    before = a.copy()
    for stacked, oracle in ((ntt.ntt_forward_rns, ntt.ntt_forward),
                            (ntt.ntt_inverse_rns, ntt.ntt_inverse)):
        got = stacked(a, moduli)
        assert np.array_equal(a, before)
        assert got.dtype == np.int64 and got.shape == a.shape
        assert got.flags.c_contiguous and got.flags.writeable and got.base is None
        assert not np.shares_memory(got, a)
        for i, p in enumerate(moduli):
            assert np.array_equal(got[..., i, :], oracle(np.mod(a[..., i, :], p), p)), (i, p)


PRESET_CASES = [
    pytest.param(name, marks=[pytest.mark.slow] if name == "athena" else [])
    for name in sorted(PRESETS)
]


class TestStackedKernel:
    @pytest.mark.parametrize("name", PRESET_CASES)
    def test_every_preset_basis_equals_the_per_prime_transforms(self, name):
        n, bases = preset_bases(name)
        rng = np.random.default_rng(n)
        for moduli in bases:
            col = np.array(moduli, dtype=np.int64)[:, None]
            assert_matches_oracle(rng.integers(0, col, (2, len(moduli), n)), moduli)
            # p - 1 everywhere drives every lazy accumulator to its peak.
            assert_matches_oracle(np.broadcast_to(col - 1, (len(moduli), n)).copy(), moduli)

    @pytest.mark.parametrize("name", PRESET_CASES)
    def test_a_gained_inverse_is_the_plain_one_scaled_and_shifted(self, name):
        """``[gain * x + shift] mod p`` bit for bit on every basis a request
        inverts over — Q, Q u P, P and Q u aux — with the gains the
        scale-round and the mod-down fold in, a random one on Q, and at the
        peaks (inputs p - 1, shifts p - 1); a gained inverse adds one step's
        tables to its basis, never a table set."""
        params = PRESETS[name]
        q_p, special, tensor = params.keyswitch_moduli, params.special_moduli, BfvContext(params)
        tb, (_, down_gain, down_shift, _) = (bfv_mod._tensor_tables(params),
                                              backend_mod._mod_down_tables(params.moduli, q_p))
        l = params.num_limbs
        rng = np.random.default_rng(params.n)
        cases = [
            (params.moduli, tuple(int(g) for g in rng.integers(0, 2**31, l)), None),
            (q_p, down_gain, down_shift),
            (special, down_gain[l:], down_shift[l:]),
            (tensor.tensor_moduli, tb.gain, tb.shift),
            (special, None, tuple(p - 1 for p in special)),
        ]
        for moduli, gain, shift in cases:
            col = np.array(moduli, dtype=np.int64)[:, None]
            g = np.array(gain or (1,) * len(moduli))[:, None] % col
            sh = np.array(shift or (0,) * len(moduli))[:, None]
            for a in (rng.integers(0, col, (2, len(moduli), params.n)),
                      np.broadcast_to(col - 1, (len(moduli), params.n))):
                plain = ntt.ntt_inverse_rns(a, moduli)
                got = ntt.ntt_inverse_rns(a, moduli, gain, shift)
                assert np.array_equal(got, (plain * g + sh) % col), (name, len(moduli))
            (exit_step,) = ntt._gemm_tables(params.n, moduli, gain)  # one (f_0, f_0) matrix a limb
            f = ntt._factors(params.n)[0]
            assert exit_step[2].nbytes + exit_step[3].nbytes == 16 * len(moduli) * f * f

    @pytest.mark.parametrize("name", ["test-tiny", "test-loop"])
    def test_adversarial_inputs(self, name):
        n, (moduli, _) = preset_bases(name)
        top = np.array(moduli, dtype=np.int64)[:, None] - 1
        zeros = np.zeros((len(moduli), n), dtype=np.int64)
        alternating, first, last = zeros.copy(), zeros.copy(), zeros.copy()
        alternating[:, 1::2] = top
        first[:, :1] = top
        last[:, -1:] = top
        for a in (zeros, zeros + top, alternating, first, last):
            assert_matches_oracle(a, moduli)

    def test_unreduced_inputs_are_reduced_on_entry(self, rng):
        n, (moduli, _) = preset_bases("test-small")
        shape = (3, len(moduli), n)
        for a in (
            rng.integers(-(2**62), 2**62, shape),
            -rng.integers(0, 2**31, shape),
            rng.integers(2**31, 2**40, shape),
            np.full(shape, 2**62),
            np.full(shape, -(2**62)),
        ):
            assert_matches_oracle(a, moduli)

    @pytest.mark.parametrize("lead", [(), (4,), (2, 3), (2, 1, 3)])
    def test_leading_axes_batch(self, lead, rng):
        n, (moduli, _) = preset_bases("test-tiny")
        assert_matches_oracle(rng.integers(0, 2**30, lead + (len(moduli), n)), moduli)

    def test_non_contiguous_and_read_only_inputs(self, rng):
        n, (moduli, _) = preset_bases("test-tiny")
        L = len(moduli)
        big = rng.integers(0, 2**30, (4, L, 2 * n))
        strided = big[::2, :, ::2]
        transposed = np.ascontiguousarray(np.swapaxes(big[..., :n], 0, 1)).swapaxes(0, 1)
        frozen = big[..., :n].copy()
        frozen.setflags(write=False)
        row = rng.integers(0, 2**30, (L, n))
        digits = np.broadcast_to(row[:, None, :], (L, L, n))  # a keyswitch's digit view
        for a in (strided, transposed, frozen, digits):
            assert not (a.flags.c_contiguous and a.flags.writeable)
            assert_matches_oracle(a, moduli)

    def test_a_partial_last_chunk(self, monkeypatch, rng):
        """Seven rows through chunks of three: the last chunk holds one row,
        and every chunk writes straight into the output."""
        n, (moduli, _) = preset_bases("test-small")
        monkeypatch.setattr(ntt, "NTT_CHUNK_ELEMS", 3 * len(moduli) * n)
        assert_matches_oracle(rng.integers(-(2**62), 2**62, (7, len(moduli), n)), moduli)
        assert_matches_oracle(rng.integers(0, 2**30, (7, 1, len(moduli), n)), moduli)

    @given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_random_bases_and_sizes(self, log_n, limbs, seed):
        n = 1 << log_n
        moduli = tuple(find_ntt_primes(limbs, 31 - seed % 3, 2 * n))
        rng = np.random.default_rng(seed)
        a = rng.integers(-(2**62), 2**62, (seed % 3 + 1, limbs, n))
        assert_matches_oracle(a, moduli)
        back = ntt.ntt_inverse_rns(ntt.ntt_forward_rns(a, moduli), moduli)
        assert np.array_equal(back, np.mod(a, np.array(moduli)[:, None]))

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_peak_below_its_limit(self, name):
        """Reads n and the moduli only, so the paper-size set is cheap too."""
        n, bases = preset_bases(name)
        for moduli in bases:
            bounds = ntt.ntt_bounds(n, moduli)
            assert set(bounds) == {"word", "entry_quotient", "twist_quotient", "gemm_sum",
                                   "shifted_exit"}
            for what, (peak, limit) in bounds.items():
                assert 0 < peak < limit, (name, what)
            assert bounds["shifted_exit"][0] == bounds["gemm_sum"][0] + max(moduli)
            # the longest product over a 30/31-bit basis: 32 * 1.5 * 2**45
            assert bounds["gemm_sum"][0] > max(ntt._factors(n)) * 2**45

    def test_a_basis_outside_the_bounds_is_refused(self):
        """A 50-bit modulus leaves the word size and the product sums both."""
        wide = (2**49 + 1,)
        bounds = ntt.ntt_bounds(16, wide)
        assert all(bounds[what][0] >= bounds[what][1] for what in ("word", "gemm_sum"))
        for transform in (ntt.ntt_forward_rns, ntt.ntt_inverse_rns):
            with pytest.raises(ParameterError, match="word"):
                transform(np.zeros((1, 16), dtype=np.int64), wide)

    def test_factors_follow_from_the_product_bound(self):
        """Every N up to 2**23: the fewest factors of at most 32 (the largest
        product gemm_sum admits at a 31-bit prime), at most one bit apart."""
        assert ntt._gemm_peak(32, 2**31 - 1) < 2**51 <= ntt._gemm_peak(64, 2**31 - 1)
        for log_n in range(1, 24):
            fs = ntt._factors(1 << log_n)
            assert math.prod(fs) == 1 << log_n and max(fs) <= 32
            assert len(fs) == -(-log_n // 5) and max(fs) <= 2 * min(fs)
            assert ntt.ntt_bounds(1 << log_n, (2**31 - 1,))["gemm_sum"][0] < 2**51

    @pytest.mark.parametrize("name", PRESET_CASES)
    def test_twiddle_tables_stay_linear_in_the_basis(self, name):
        """32 bytes per table entry (two directions x a float64 pair, or an
        int64 twist beside its float64 quotient): a limb holds its (f, f)
        matrices, the folded (B, A, A) block and one twisted word per
        coefficient above the block — at most 32 N (A + 2) bytes, and from
        N = 4096 up at most 5x the per-prime psi_rev / ipsi_rev. Computed
        from shapes; built and counted below ATHENA."""
        n, bases = preset_bases(name)
        fs = ntt._factors(n)
        a, b = fs[-1], (fs[-2] if len(fs) > 1 else 1)
        twisted = sum(n // math.prod(fs[:s]) for s in range(len(fs) - 2))
        per_limb = 32 * (sum(f * f for f in fs[:-1]) + b * a * a + twisted)
        assert per_limb <= 32 * n * (a + 2)
        if n >= 4096:
            assert per_limb <= 5 * 16 * n
        if name == "athena":
            return
        for moduli in bases:
            steps = [ntt._gemm_tables(n, moduli, part) for part in ("forward", "inverse", None)]
            tables = [x for step in sum(steps, ()) for x in (*step[2:4], *(step[4] or ())[1:])]
            assert sum(x.nbytes for x in tables) == len(moduli) * per_limb
            cols = ntt._kernel(n, moduli, True, None, None)[1]
            assert not any(x.flags.writeable for x in (*tables, *cols))
