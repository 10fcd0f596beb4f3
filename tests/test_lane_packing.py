"""Multi-image lane packing: the geometry behind cross-user batching.

Fast tests pin the pure-numpy lane arithmetic — capacity, offsets,
pack/unpack round trips, position fan-out, trivial-row scatter — and the
compile-time lane annotations (``lane_span`` per linear step,
``batch_capacity`` per plan, wire-format round trip). The ``slow``-marked
tests drive real multi-lane ciphertexts through the full pipeline on the
TEST_FBS pack model and pin the edge cases batching must not bend:
partial final batches, lane-position symmetry (the same image computes the
same bits in lane 0 and lane k-1), and cross-lane isolation (one lane's
input never perturbs another lane's output).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoding import lane_span
from repro.core.framework import AthenaPipeline, CiphertextExecutor
from repro.core.plan import compile_program
from repro.core.program import lower
from repro.errors import ParameterError
from repro.fhe.lwe import LweBatch
from repro.fhe.params import TEST_FBS, TEST_LOOP
from repro.fhe.serialize import dump_plan, load_plan
from repro.fhe.slots import (
    lane_capacity,
    lane_offsets,
    lane_positions,
    pack_lane_coeffs,
    unpack_lane_coeffs,
)
from repro.quant.quantize import QConv, QFlatten, QLinear, QuantConfig, QuantizedModel
from repro.quant.subjects import pack_cnn, serve_micro_cnn
from tests.conftest import refresh_noise_bound, sigmoid_pack_cnn


# -- pure lane arithmetic -----------------------------------------------------


class TestLaneArithmetic:
    def test_capacity_floor_and_bounds(self):
        assert lane_capacity(13, 32) == 2
        assert lane_capacity(32, 32) == 1
        assert lane_capacity(16, 32) == 2
        assert lane_capacity(33, 32) == 0  # span exceeds the ring
        assert lane_capacity(40, 32) == 0
        with pytest.raises(ParameterError):
            lane_capacity(0, 32)

    def test_offsets_are_stride_multiples(self):
        assert lane_offsets(3, 11).tolist() == [0, 11, 22]
        with pytest.raises(ParameterError):
            lane_offsets(0, 11)

    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(3)
        blocks = [rng.integers(-5, 6, 9).astype(np.int64) for _ in range(3)]
        packed = pack_lane_coeffs(blocks, stride=10, n=32)
        # Lane d occupies [d*stride, d*stride + width); the gap coefficient
        # of every stride stays zero.
        assert packed.shape == (32,)
        assert packed[9] == 0 and packed[19] == 0 and packed[29] == 0
        unpacked = unpack_lane_coeffs(packed, stride=10, lanes=3, width=9)
        assert np.array_equal(unpacked, np.stack(blocks))

    def test_pack_rejects_overflow_and_misfit(self):
        block = np.ones(9, dtype=np.int64)
        with pytest.raises(ParameterError):
            pack_lane_coeffs([], stride=10, n=32)
        with pytest.raises(ParameterError):
            pack_lane_coeffs([np.ones(11, dtype=np.int64)], stride=10, n=32)
        with pytest.raises(ParameterError):  # lane 3 starts at 30, width 9
            pack_lane_coeffs([block] * 4, stride=10, n=32)
        with pytest.raises(ParameterError):
            unpack_lane_coeffs(np.zeros(32), stride=10, lanes=4, width=9)

    def test_lane_positions_fan_out_and_bound(self):
        base = np.array([1, 4], dtype=np.int64)
        out = lane_positions(base, stride=10, lanes=3, n=32)
        assert out.tolist() == [1, 4, 11, 14, 21, 24]
        with pytest.raises(ParameterError):
            lane_positions(base, stride=10, lanes=4, n=32)

    def test_lwe_place_scatters_rows_into_trivial_zeros(self):
        a = np.arange(6, dtype=np.int64).reshape(2, 3)
        b = np.array([7, 9], dtype=np.int64)
        batch = LweBatch(a, b, modulus=257)
        placed = batch.place(np.array([1, 3]), size=5)
        assert placed.count == 5
        assert np.array_equal(placed.a[1], a[0])
        assert np.array_equal(placed.a[3], a[1])
        assert placed.b.tolist() == [0, 7, 0, 9, 0]
        # Gap rows are trivial zero encryptions: zero phase under any key.
        assert not placed.a[0].any() and not placed.a[2].any()
        with pytest.raises(ParameterError):
            batch.place(np.array([0, 0]), size=5)  # collision
        with pytest.raises(ParameterError):
            batch.place(np.array([0, 5]), size=5)  # out of range

    def test_lane_span_formula(self):
        # conv(1->1, k2) on padded 3x3: t_index = 9*0 + 3*1 + 1 = 4,
        # span = 4 + 9 = 13 — the pack model's conv step.
        assert lane_span(1, 1, 3, 3, 2) == 13
        # fc is the h=w=wk=1 case: span = cout*cin - 1 + cin.
        assert lane_span(2, 4, 1, 1, 1) == 11


# -- compile-time annotations -------------------------------------------------


class TestPlanLaneAnnotations:
    def test_pack_model_capacity_two(self):
        program = lower(pack_cnn(np.random.default_rng(5)), TEST_FBS)
        plan = compile_program(program, TEST_FBS)
        assert plan.batch_capacity == 2
        linear = [s for s in plan.steps if getattr(s, "lane_span", 0)]
        assert [s.lane_span for s in linear] == [13, 11]
        # Interior lane stride chains to the next layer's span; the tail
        # compacts to its own output count.
        assert [s.lane_out_stride for s in linear] == [11, 2]

    def test_micro_model_too_wide_to_batch(self):
        program = lower(serve_micro_cnn(np.random.default_rng(5)), TEST_FBS)
        plan = compile_program(program, TEST_FBS)
        assert plan.batch_capacity == 1

    def test_wire_format_round_trips_lane_metadata(self):
        program = lower(pack_cnn(np.random.default_rng(5)), TEST_FBS)
        plan = compile_program(program, TEST_FBS)
        loaded = load_plan(dump_plan(plan), TEST_FBS)
        loaded.bind(program, TEST_FBS)
        assert loaded.batch_capacity == 2
        assert [getattr(s, "lane_span", None) for s in loaded.steps] == [
            getattr(s, "lane_span", None) for s in plan.steps
        ]
        assert [getattr(s, "lane_out_stride", None) for s in loaded.steps] == [
            getattr(s, "lane_out_stride", None) for s in plan.steps
        ]


def placed_chain_cnn() -> QuantizedModel:
    """conv(k2, pad 0) -> conv(k3, pad 1) -> fc(4->2) on 3x3, for TEST_LOOP.

    The first round *places* its 2x2 output inside the second convolution's
    4x4 padded grid, so its zero margin is that convolution's padding.
    Margin-safe like the ledger's ``packed_cnn``: weights and biases are
    multiples of ``out_scale`` = 16, every LUT input sits 8 from a rounding
    boundary, and with inputs in [-1, 1] MACs stay within +-112."""
    def conv(weight, k, pad, hw):
        w = np.zeros((1, 1, k, k), dtype=np.int64)
        for (i, j), v in weight.items():
            w[0, 0, i, j] = v
        oh = hw + 2 * pad - k + 1
        return QConv(
            weight=w, bias=np.array([16], dtype=np.int64), stride=1, pad=pad,
            in_scale=1.0, w_scale=1.0, out_scale=16.0, activation="relu",
            in_shape=(1, hw, hw), out_shape=(1, oh, oh))

    fc = QLinear(
        weight=np.array([[16, -16, 0, 0], [0, 0, 16, -16]], dtype=np.int64),
        bias=np.array([16, -16], dtype=np.int64), in_scale=1.0, w_scale=1.0,
        out_scale=16.0, activation="identity", in_features=4, out_features=2)
    return QuantizedModel(
        [conv({(0, 0): 16, (1, 1): 16}, 2, 0, 3),
         conv({(1, 1): 16, (0, 2): 16}, 3, 1, 2), QFlatten(), fc],
        QuantConfig(4, 4, t=TEST_LOOP.t), 1.0, (1, 3, 3), name="placed_chain")


class TestLaneCapacityRules:
    """What still pins ``batch_capacity`` to 1, and what no longer does."""

    def test_a_lut0_table_batches(self):
        plan = compile_program(lower(sigmoid_pack_cnn(), TEST_FBS), TEST_FBS)
        assert int(plan.steps[0].round.lut.values[0]) == 4
        assert plan.batch_capacity == 2
        lanes = plan.steps[0].lane_layout(2, TEST_FBS).round
        assert lanes.rows.tolist() == [0, 1, 2, 3, 11, 12, 13, 14]
        assert lanes.correction is not None

    def test_a_placed_layout_batches_on_its_own_rows(self):
        plan = compile_program(lower(placed_chain_cnn(), TEST_LOOP), TEST_LOOP)
        first, second = plan.steps[0], plan.steps[1]
        assert first.round.rows.tolist() == [5, 6, 9, 10]  # inside the 4x4 grid
        assert [first.lane_span, second.lane_span] == [13, 26]
        assert plan.batch_capacity == 4
        rows = first.lane_layout(4, TEST_LOOP).round.rows.reshape(4, -1)
        assert np.array_equal(
            rows, first.round.rows + 26 * np.arange(4)[:, None])

    def test_a_fused_pool_and_a_residual_do_not(self):
        from tests.test_serialize import _wire_subjects

        plans = {}
        for case in _wire_subjects():
            build, params = case.values
            plans[case.id] = compile_program(build(), params)
        assert plans["fused_maxpool"].batch_capacity == 1  # max-tree shifts
        assert plans["avgpool_remap"].batch_capacity == 1  # pool / remap steps
        assert plans["resnet20_block"].batch_capacity == 1  # residual join
        assert plans["pack"].batch_capacity == 2
        with pytest.raises(ParameterError, match="max tree"):
            plans["fused_maxpool"].steps[0].lane_layout(2, TEST_LOOP)


class TestZeroOutsideTheRows:
    """Step 0 on real ciphertexts: after the refresh every coefficient
    outside the round's rows decrypts to an exact 0 — for a table with
    LUT(0) = 4 as for ReLU, for one lane as for two."""

    @pytest.mark.parametrize("build", [
        lambda: pack_cnn(np.random.default_rng(5)), sigmoid_pack_cnn,
    ], ids=["relu", "sigmoid"])
    def test_step_zero_leaves_exact_zeros(self, build):
        program = lower(build(), TEST_FBS)
        plan = compile_program(program, TEST_FBS)
        pipe = AthenaPipeline(TEST_FBS, seed=3)
        xs = _inputs(101, 2)
        for lanes in (1, 2):
            with pipe._dispatch():
                ex = CiphertextExecutor(pipe, program, plan=plan, lanes=lanes)
                ct = ex.linear(
                    program.steps[0], xs[0] if lanes == 1 else np.stack(xs))
                coeffs = pipe.decrypt_coeffs(ct)
            # Lane d's four outputs land at the fc's lane stride, 11 * d.
            rows = (np.arange(4) + 11 * np.arange(lanes)[:, None]).reshape(-1)
            outside = np.delete(coeffs, rows)
            assert outside.size == TEST_FBS.n - 4 * lanes
            assert not outside.any()


# -- full-pipeline lane semantics ---------------------------------------------


def _pack_setup():
    qm = pack_cnn(np.random.default_rng(5))
    program = lower(qm, TEST_FBS)
    plan = compile_program(program, TEST_FBS)
    return qm, program, plan


def _inputs(seed: int, count: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        rng.integers(-2, 3, (1, 3, 3)).astype(np.int64) for _ in range(count)
    ]


@pytest.mark.slow
class TestBatchedPipeline:
    def test_full_batch_matches_plain_and_single(self):
        qm, program, plan = _pack_setup()
        xs = _inputs(101, 2)
        outs = AthenaPipeline(TEST_FBS, seed=3).run_batch(
            program, xs, plan=plan
        )
        for x, out in zip(xs, outs):
            want = qm.forward_int(x[None])[0]
            assert np.array_equal(out, want)
            single = AthenaPipeline(TEST_FBS, seed=3).run_program(
                program, x, plan=plan
            )
            assert np.array_equal(out, single)

    def test_partial_final_batch_single_lane(self):
        # A 1-image "batch" through the batched entry point is the exact
        # single-image op sequence — the shape a partial final batch takes.
        qm, program, plan = _pack_setup()
        (x,) = _inputs(103, 1)
        (out,) = AthenaPipeline(TEST_FBS, seed=4).run_batch(
            program, [x], plan=plan
        )
        direct = AthenaPipeline(TEST_FBS, seed=4).run_program(
            program, x, plan=plan
        )
        assert np.array_equal(out, direct)
        assert np.array_equal(out, qm.forward_int(x[None])[0])

    def test_lane_symmetry_first_vs_last(self):
        # The same image must compute the same bits from lane 0 and from
        # lane k-1: swap the batch order and the outputs swap with it.
        qm, program, plan = _pack_setup()
        x, y = _inputs(107, 2)
        fwd = AthenaPipeline(TEST_FBS, seed=5).run_batch(
            program, [x, y], plan=plan
        )
        rev = AthenaPipeline(TEST_FBS, seed=5).run_batch(
            program, [y, x], plan=plan
        )
        assert np.array_equal(fwd[0], rev[1])
        assert np.array_equal(fwd[1], rev[0])
        assert np.array_equal(fwd[0], qm.forward_int(x[None])[0])
        assert np.array_equal(fwd[1], qm.forward_int(y[None])[0])

    def test_cross_lane_isolation(self):
        # Perturbing lane 0's input must not move lane 1's output by a bit.
        qm, program, plan = _pack_setup()
        x, y = _inputs(109, 2)
        x2 = x.copy()
        x2[0, 0, 0] += 2
        base = AthenaPipeline(TEST_FBS, seed=6).run_batch(
            program, [x, y], plan=plan
        )
        bumped = AthenaPipeline(TEST_FBS, seed=6).run_batch(
            program, [x2, y], plan=plan
        )
        assert np.array_equal(base[1], bumped[1])
        assert np.array_equal(bumped[0], qm.forward_int(x2[None])[0])

    def test_overcapacity_batch_rejected(self):
        _, program, plan = _pack_setup()
        xs = _inputs(113, 3)
        with pytest.raises(ParameterError):
            AthenaPipeline(TEST_FBS, seed=7).run_batch(program, xs, plan=plan)


@pytest.mark.slow
class TestLanesTimesSigmoid:
    """A hidden ``LUT(0) != 0`` layer, single and batched. The model is not
    margin-safe (its sigmoid table steps at arbitrary MACs), so each run is
    held to the refresh-noise bound of ``forward_int``, not to the others."""

    def test_single_and_two_lane_runs_sit_inside_the_noise_bound(self):
        qm = sigmoid_pack_cnn()
        program = lower(qm, TEST_FBS)
        plan = compile_program(program, TEST_FBS)
        bound = refresh_noise_bound(qm, TEST_FBS)
        xs = _inputs(101, 2)
        wants = [qm.forward_int(x[None])[0] for x in xs]
        batch = AthenaPipeline(TEST_FBS, seed=3).run_batch(program, xs, plan=plan)
        for x, got, want in zip(xs, batch, wants):
            assert np.abs(got - want).max() <= bound
            single = AthenaPipeline(TEST_FBS, seed=3).run_program(
                program, x, plan=plan)
            assert np.abs(single - want).max() <= bound


@pytest.mark.slow
class TestLanesTimesPlaced:
    """Four lanes through a placed (pad > 0 interior) chain: bit-identical
    to the single-image runs and to ``forward_int``."""

    def test_four_lane_batch_matches_plain_and_single(self):
        qm = placed_chain_cnn()
        program = lower(qm, TEST_LOOP)
        plan = compile_program(program, TEST_LOOP)
        rng = np.random.default_rng(131)
        xs = [rng.integers(-1, 2, (1, 3, 3)).astype(np.int64) for _ in range(4)]
        outs = AthenaPipeline(TEST_LOOP, seed=3).run_batch(program, xs, plan=plan)
        for x, out in zip(xs, outs):
            assert np.array_equal(out, qm.forward_int(x[None])[0])
        for lane in (0, 3):  # first and last: the two ends of the ring
            single = AthenaPipeline(TEST_LOOP, seed=3).run_program(
                program, xs[lane], plan=plan)
            assert np.array_equal(outs[lane], single)
