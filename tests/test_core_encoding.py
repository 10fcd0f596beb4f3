"""Tests for the coefficient encoding (Eq. 1, Table 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import (
    TABLE2_SHAPES,
    ConvShape,
    athena_plan,
    cheetah_plan,
    conv_via_coefficients,
    encode_features,
    encode_kernels,
    extract_conv_outputs,
    lane_span,
    output_cells,
    t_index,
    valid_output_positions,
)
from repro.errors import EncodingError


def direct_conv(m, k, stride, pad):
    cout, cin, wk, _ = k.shape
    if pad:
        m = np.pad(m, ((0, 0), (pad, pad), (pad, pad)))
    _, h, w = m.shape
    oh = (h - wk) // stride + 1
    ow = (w - wk) // stride + 1
    out = np.zeros((cout, oh, ow), dtype=np.int64)
    for cp in range(cout):
        for a in range(oh):
            for b in range(ow):
                patch = m[:, a * stride : a * stride + wk, b * stride : b * stride + wk]
                out[cp, a, b] = (patch * k[cp]).sum()
    return out


class TestEq1Conv:
    @pytest.mark.parametrize(
        "cin,cout,hw,wk,stride,pad",
        [
            (1, 1, 4, 2, 1, 0),
            (2, 3, 6, 3, 1, 1),
            (3, 4, 5, 3, 1, 0),
            (2, 2, 8, 1, 2, 0),
            (1, 2, 6, 2, 2, 0),
        ],
    )
    def test_matches_direct_convolution(self, rng, cin, cout, hw, wk, stride, pad):
        m = rng.integers(-5, 6, (cin, hw, hw))
        k = rng.integers(-5, 6, (cout, cin, wk, wk))
        got = conv_via_coefficients(m, k, n=4096, stride=stride, pad=pad)
        assert np.array_equal(got, direct_conv(m, k, stride, pad))

    def test_fc_as_1x1(self, rng):
        # FC = conv with W = Wk = 1 on a (Cin, 1, 1) "image".
        cin, cout = 8, 4
        x = rng.integers(-10, 10, (cin, 1, 1))
        w = rng.integers(-10, 10, (cout, cin, 1, 1))
        got = conv_via_coefficients(x, w, n=256)
        expected = (w.reshape(cout, cin) @ x.reshape(cin)).reshape(cout, 1, 1)
        assert np.array_equal(got, expected)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_small_shapes(self, seed):
        rng = np.random.default_rng(seed)
        cin = int(rng.integers(1, 3))
        cout = int(rng.integers(1, 4))
        hw = int(rng.integers(3, 7))
        wk = int(rng.integers(1, min(4, hw + 1)))
        m = rng.integers(-4, 5, (cin, hw, hw))
        k = rng.integers(-4, 5, (cout, cin, wk, wk))
        got = conv_via_coefficients(m, k, n=4096)
        assert np.array_equal(got, direct_conv(m, k, 1, 0))

    def test_modulus_wrap(self, rng):
        m = rng.integers(-5, 6, (2, 4, 4))
        k = rng.integers(-5, 6, (2, 2, 3, 3))
        t = 17
        got = conv_via_coefficients(m, k, n=1024, modulus=t)
        exact = direct_conv(m, k, 1, 0)
        assert np.array_equal(got % t, exact % t)
        assert np.abs(got).max() <= t // 2

    def test_degree_overflow_raises(self):
        with pytest.raises(EncodingError):
            encode_features(np.zeros((4, 10, 10), dtype=np.int64), 256)
        with pytest.raises(EncodingError):
            encode_kernels(np.zeros((8, 8, 3, 3), dtype=np.int64), 16, 16, 1024)

    def test_valid_positions_point_at_outputs(self, rng):
        from repro.fhe.ntt import negacyclic_mul_exact

        cin, cout, hw, wk = 2, 2, 5, 2
        m = rng.integers(-3, 4, (cin, hw, hw))
        k = rng.integers(-3, 4, (cout, cin, wk, wk))
        mh = encode_features(m, 1024)
        kh = encode_kernels(k, hw, hw, 1024)
        prod = np.array(negacyclic_mul_exact(list(mh), list(kh)))
        pos = valid_output_positions(cout, cin, hw, hw, wk, 1)
        expected = direct_conv(m, k, 1, 0).reshape(-1)
        assert np.array_equal(prod[pos], expected)


# Frozen copies of the three loops the one geometry replaced (the own-grid
# and placed-grid position functions and the kernel scatter), as they stood
# before ``output_cells`` — the oracle the broadcast forms are pinned to.


def _frozen_valid_output_positions(cout, cin, h, w, wk, stride):
    hw = h * w
    top = hw * (cout * cin - 1) + w * (wk - 1) + wk - 1
    oh = (h - wk) // stride + 1
    ow = (w - wk) // stride + 1
    idx = np.empty(cout * oh * ow, dtype=np.int64)
    pos = 0
    for cp in range(cout):
        base = top - cp * cin * hw
        for a in range(oh):
            for b in range(ow):
                idx[pos] = base + a * stride * w + b * stride
                pos += 1
    return idx


def _frozen_grid_output_positions(cout, cin, gh, gw, wk, stride, oh, ow, oy, ox):
    ghw = gh * gw
    top = ghw * (cout * cin - 1) + gw * (wk - 1) + wk - 1
    idx = np.empty(cout * oh * ow, dtype=np.int64)
    pos = 0
    for cp in range(cout):
        base = top - cp * cin * ghw
        for a in range(oh):
            for b in range(ow):
                idx[pos] = base + (oy + a * stride) * gw + (ox + b * stride)
                pos += 1
    return idx


def _frozen_encode_kernels(k, h, w, n):
    cout, cin, wk, _ = k.shape
    hw = h * w
    top = hw * (cout * cin - 1) + w * (wk - 1) + wk - 1
    out = np.zeros(n, dtype=np.int64)
    for cp in range(cout):
        for c in range(cin):
            for i in range(wk):
                for j in range(wk):
                    out[top - cp * cin * hw - c * hw - i * w - j] = k[cp, c, i, j]
    return out


def _grid_positions(cout, cin, gh, gw, wk, stride, oh, ow, oy, ox):
    """The compiler's call: an ``oh x ow`` stride window at ``(oy, ox)``."""
    return output_cells(cout, cin, gh, gw, wk,
                        oy + np.arange(oh) * stride, ox + np.arange(ow) * stride)


class TestOnePositionFunction:
    SHAPES = [  # TestEq1Conv's parametrised shapes
        (1, 1, 4, 2, 1, 0),
        (2, 3, 6, 3, 1, 1),
        (3, 4, 5, 3, 1, 0),
        (2, 2, 8, 1, 2, 0),
        (1, 2, 6, 2, 2, 0),
    ]

    @pytest.mark.parametrize("cin,cout,hw,wk,stride,pad", SHAPES)
    def test_equals_both_frozen_forms(self, rng, cin, cout, hw, wk, stride, pad):
        hp = hw + 2 * pad
        want = _frozen_valid_output_positions(cout, cin, hp, hp, wk, stride)
        got = valid_output_positions(cout, cin, hp, hp, wk, stride)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        oh = (hp - wk) // stride + 1
        # The same convolution reading its image from inside a larger grid.
        for margin in (0, 1, 2):
            gh = hp + 2 * margin
            args = (cout, cin, gh, gh, wk, stride, oh, oh, margin, margin)
            assert np.array_equal(
                _grid_positions(*args), _frozen_grid_output_positions(*args))
        k = rng.integers(-5, 6, (cout, cin, wk, wk))
        n = lane_span(cout, cin, hp, hp, wk)
        assert np.array_equal(
            encode_kernels(k, hp, hp, n), _frozen_encode_kernels(k, hp, hp, n))
        assert t_index(cout, cin, hp, hp, wk) == want[0] == n - cin * hp * hp

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_sweep_of_small_shapes_strides_and_origins(self, data):
        draw = lambda lo, hi: data.draw(st.integers(lo, hi))  # noqa: E731
        cout, cin, wk, stride = draw(1, 3), draw(1, 3), draw(1, 3), draw(1, 3)
        gh, gw = draw(wk, 7), draw(wk, 7)
        oy, ox = draw(0, gh - wk), draw(0, gw - wk)
        oh = draw(1, (gh - wk - oy) // stride + 1)
        ow = draw(1, (gw - wk - ox) // stride + 1)
        args = (cout, cin, gh, gw, wk, stride, oh, ow, oy, ox)
        assert np.array_equal(
            _grid_positions(*args), _frozen_grid_output_positions(*args))
        assert np.array_equal(
            valid_output_positions(cout, cin, gh, gw, wk, stride),
            _frozen_valid_output_positions(cout, cin, gh, gw, wk, stride))
        k = np.arange(cout * cin * wk * wk).reshape(cout, cin, wk, wk) + 1
        n = lane_span(cout, cin, gh, gw, wk)
        assert np.array_equal(
            encode_kernels(k, gh, gw, n), _frozen_encode_kernels(k, gh, gw, n))

    def test_extract_reads_the_valid_positions(self, rng):
        product = rng.integers(-9, 10, 512)
        got = extract_conv_outputs(product, 2, 3, 6, 5, 3, stride=2)
        pos = valid_output_positions(2, 3, 6, 5, 3, 2)
        assert got.shape == (2, 2, 2)
        assert np.array_equal(got.reshape(-1), product[pos])


class TestPackingPlans:
    def test_athena_beats_cheetah_everywhere(self):
        for shape in TABLE2_SHAPES:
            a = athena_plan(shape, 1 << 15)
            c = cheetah_plan(shape, 1 << 15)
            assert a.valid_ratio > c.valid_ratio

    def test_athena_single_result_ct_for_paper_shapes(self):
        # The §3.2.1 claim: results land in one ciphertext at N = 2^15.
        for shape in TABLE2_SHAPES:
            assert athena_plan(shape, 1 << 15).result_cts == 1

    def test_paper_athena_ratios(self):
        # 5 of 6 rows match the paper exactly (see EXPERIMENTS.md for row 5).
        expected = [0.50, 0.50, 0.25, 0.25, 0.125, 0.125]
        for shape, exp in zip(TABLE2_SHAPES, expected):
            assert athena_plan(shape, 1 << 15).valid_ratio == pytest.approx(exp)

    def test_cheetah_result_cts_scale_with_cout(self):
        shape = TABLE2_SHAPES[1]
        assert cheetah_plan(shape, 4096).result_cts == shape.cout

    def test_ratios_monotone_in_depth(self):
        # Deeper layers (smaller maps, more channels) have lower ratios.
        ratios = [athena_plan(s, 1 << 15).valid_ratio for s in TABLE2_SHAPES]
        assert ratios[0] >= ratios[2] >= ratios[4]

    def test_conv_shape_helpers(self):
        s = ConvShape(32, 3, 16, 3, 1, 1)
        assert s.h_padded == 34
        assert s.out_hw == 32
        assert s.valid_outputs == 16 * 32 * 32
