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
from repro.core.framework import AthenaPipeline
from repro.core.plan import compile_program
from repro.core.program import lower
from repro.errors import ParameterError
from repro.fhe.lwe import LweBatch
from repro.fhe.params import TEST_FBS
from repro.fhe.serialize import dump_plan, load_plan
from repro.fhe.slots import (
    lane_capacity,
    lane_offsets,
    lane_positions,
    pack_lane_coeffs,
    unpack_lane_coeffs,
)
from repro.quant.subjects import pack_cnn, serve_micro_cnn


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
