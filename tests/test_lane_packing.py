"""Multi-image lane packing: the geometry behind cross-user batching.

Fast tests pin the pure-numpy lane arithmetic — capacity, offsets,
pack/unpack round trips, position fan-out, trivial-row scatter — and the
lane geometry a plan derives when it is built (``lane_span`` and the
layouts per linear step, ``batch_capacity`` per plan, wire-format round
trip), which no run changes. The ``slow``-marked
tests drive real multi-lane ciphertexts through the full pipeline on the
TEST_FBS pack model and pin the edge cases batching must not bend:
partial final batches, lane-position symmetry (the same image computes the
same bits in lane 0 and lane k-1), and cross-lane isolation (one lane's
input never perturbs another lane's output). The stacked-ciphertext tests
pin that images past one ciphertext's capacity fill further lane-full
ciphertexts whose residues equal their runs alone, on every engine.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.core.encoding import lane_span
from repro.core.framework import AthenaPipeline, CiphertextExecutor
from repro.core.plan import compile_program
from repro.core.program import lower, run_program
from repro.errors import ParameterError
from repro.fhe.backend import BATCHED, SERIAL, CountingBackend, use_backend
from repro.fhe.lwe import LweBatch
from repro.fhe.params import TEST_FBS, TEST_LOOP
from repro.fhe.serialize import dump_plan, load_plan
from repro.fhe.slots import (
    lane_offsets,
    lane_positions,
    pack_lane_coeffs,
    unpack_lane_coeffs,
)
from repro.quant.quantize import QConv, QFlatten, QLinear, QuantConfig, QuantizedModel
from repro.quant.subjects import pack_cnn, serve_micro_cnn
from tests.conftest import refresh_noise_bound, sigmoid_pack_cnn
from tests.test_serialize import _wire_subjects


# -- pure lane arithmetic -----------------------------------------------------


class TestLaneArithmetic:
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


# -- lane geometry, derived when the plan is built ----------------------------


def _lane_strides(plan) -> list[list[tuple[int, int, int]]]:
    """``(lanes, in_stride, out_stride)`` of every layout, step by step."""
    return [[(layout.lanes, layout.in_stride, layout.out_stride)
             for layout in getattr(step, "layouts", ())] for step in plan.steps]


class TestPlanLaneAnnotations:
    def test_pack_model_capacity_two(self):
        program = lower(pack_cnn(np.random.default_rng(5)), TEST_FBS)
        plan = compile_program(program, TEST_FBS)
        assert plan.batch_capacity == 2
        linear = [s for s in plan.steps if getattr(s, "lane_span", 0)]
        assert [s.lane_span for s in linear] == [13, 11]
        # Interior lane stride chains to the next layer's span; the tail
        # compacts to its own output count.
        assert [s.layouts[1].out_stride for s in linear] == [11, 2]
        assert plan.tail is linear[-1]

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
        assert _lane_strides(loaded) == _lane_strides(plan)


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
        lanes = plan.steps[0].layouts[1].round
        assert lanes.rows.tolist() == [0, 1, 2, 3, 11, 12, 13, 14]
        assert lanes.correction is not None

    def test_a_placed_layout_batches_on_its_own_rows(self):
        plan = compile_program(lower(placed_chain_cnn(), TEST_LOOP), TEST_LOOP)
        first, second = plan.steps[0], plan.steps[1]
        assert first.round.rows.tolist() == [5, 6, 9, 10]  # inside the 4x4 grid
        assert [first.lane_span, second.lane_span] == [13, 26]
        assert plan.batch_capacity == 4
        rows = first.layouts[3].round.rows.reshape(4, -1)
        assert np.array_equal(
            rows, first.round.rows + 26 * np.arange(4)[:, None])

    def test_a_fused_pool_and_a_residual_do_not(self):
        plans = {}
        for case in _wire_subjects():
            build, params = case.values
            plans[case.id] = compile_program(build(), params)
        assert plans["fused_maxpool"].batch_capacity == 1  # max-tree shifts
        assert plans["avgpool_remap"].batch_capacity == 1  # pool / remap steps
        assert plans["resnet20_block"].batch_capacity == 1  # residual join
        assert plans["pack"].batch_capacity == 2
        # A fused max tree holds the one-lane layout only.
        assert len(plans["fused_maxpool"].steps[0].layouts) == 1
        for plan in plans.values():  # one layout per lane count, branches too
            assert all(len(step.layouts) == plan.batch_capacity
                       for step in _linear_steps(plan.steps))


def _linear_steps(steps):
    """Every conv/FC step, through both residual branches."""
    for step in steps:
        if step.kind == "residual":
            yield from _linear_steps(step.body)
            yield from _linear_steps(step.shortcut or [])
        elif step.kind == "linear":
            yield step


#: SHA-256 over the ``c0`` then ``c1`` limb bytes of the tail ciphertext of
#: the fused max-pool subject's one-lane run below: the ciphertext first
#: pinned while the executor still carried a separate single-image path
#: (its own round, bias and encode).
FUSED_MAXPOOL_TAIL_SHA256 = (
    "13658fa70311809390378cbfcc114dfb26276c1db391f5046b899e7f984a8052")


class TestOneLane:
    """One image is a batch of one: ``layouts[0]`` is the step's own
    geometry, so the lane path reproduces the single-image op sequence."""

    def test_one_lane_is_the_steps_own_geometry(self):
        plans = {}
        for case in _wire_subjects():
            build, params = case.values
            plans[case.id] = plan = compile_program(build(), params)
            for step in _linear_steps(plan.steps):
                layout = step.layouts[0]
                assert layout.round is step.round and layout.bias is step.bias
                assert (layout.lanes, layout.in_stride, layout.out_stride) == (
                    1, step.lane_span, step.round.count)
        # A fused max tree included: the one lane is all it holds.
        plan = plans["fused_maxpool"]
        assert plan.steps[0].pool_rounds is not None
        x = np.random.default_rng(17).integers(-2, 3, (1, 4, 4)).astype(np.int64)
        pipe = AthenaPipeline(TEST_LOOP, seed=3)
        (ct,) = run_program(plan, CiphertextExecutor(pipe, plan), x[None])
        digest = hashlib.sha256(ct.c0.data.tobytes() + ct.c1.data.tobytes())
        assert digest.hexdigest() == FUSED_MAXPOOL_TAIL_SHA256
        assert pipe.decrypt_slots(ct)[:3].tolist() == [0, 0, 4]


class TestZeroOutsideTheRows:
    """Step 0 on real ciphertexts: after the refresh every coefficient
    outside the round's rows decrypts to an exact 0 — for a table with
    LUT(0) = 4 as for ReLU, for one lane as for two."""

    @pytest.mark.parametrize("build", [
        lambda: pack_cnn(np.random.default_rng(5)), sigmoid_pack_cnn,
    ], ids=["relu", "sigmoid"])
    def test_step_zero_leaves_exact_zeros(self, build):
        plan = compile_program(lower(build(), TEST_FBS), TEST_FBS)
        pipe = AthenaPipeline(TEST_FBS, seed=3)
        xs = _inputs(101, 2)
        for lanes in (1, 2):
            ex = CiphertextExecutor(pipe, plan, images=lanes)
            (ct,) = ex.linear(plan.steps[0], np.stack(xs[:lanes]))
            coeffs = pipe.decrypt_coeffs(ct)
            # Lane d's four outputs land at the fc's lane stride, 11 * d.
            rows = (np.arange(4) + 11 * np.arange(lanes)[:, None]).reshape(-1)
            outside = np.delete(coeffs, rows)
            assert outside.size == TEST_FBS.n - 4 * lanes
            assert not outside.any()


# -- full-pipeline lane semantics ---------------------------------------------


def _pack_setup():
    qm = pack_cnn(np.random.default_rng(5))
    return qm, compile_program(lower(qm, TEST_FBS), TEST_FBS)


def _inputs(seed: int, count: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        rng.integers(-2, 3, (1, 3, 3)).astype(np.int64) for _ in range(count)
    ]


@pytest.mark.slow
class TestBatchedPipeline:
    def test_full_batch_matches_plain_and_single(self):
        qm, plan = _pack_setup()
        xs = _inputs(101, 2)
        outs = AthenaPipeline(TEST_FBS, seed=3).run_batch(plan, xs)
        for x, out in zip(xs, outs):
            want = qm.forward_int(x[None])[0]
            assert np.array_equal(out, want)
            single = AthenaPipeline(TEST_FBS, seed=3).run(plan, x)
            assert np.array_equal(out, single)

    def test_partial_final_batch_single_lane(self):
        # A 1-image batch — the shape a partial final batch takes — is what
        # run() executes, and computes forward_int's bits.
        qm, plan = _pack_setup()
        (x,) = _inputs(103, 1)
        (out,) = AthenaPipeline(TEST_FBS, seed=4).run_batch(plan, [x])
        direct = AthenaPipeline(TEST_FBS, seed=4).run(plan, x)
        assert np.array_equal(out, direct)
        assert np.array_equal(out, qm.forward_int(x[None])[0])

    def test_lane_symmetry_first_vs_last(self):
        # The same image must compute the same bits from lane 0 and from
        # lane k-1: swap the batch order and the outputs swap with it.
        qm, plan = _pack_setup()
        x, y = _inputs(107, 2)
        fwd = AthenaPipeline(TEST_FBS, seed=5).run_batch(plan, [x, y])
        rev = AthenaPipeline(TEST_FBS, seed=5).run_batch(plan, [y, x])
        assert np.array_equal(fwd[0], rev[1])
        assert np.array_equal(fwd[1], rev[0])
        assert np.array_equal(fwd[0], qm.forward_int(x[None])[0])
        assert np.array_equal(fwd[1], qm.forward_int(y[None])[0])

    def test_cross_lane_isolation(self):
        # Perturbing lane 0's input must not move lane 1's output by a bit.
        qm, plan = _pack_setup()
        x, y = _inputs(109, 2)
        x2 = x.copy()
        x2[0, 0, 0] += 2
        base = AthenaPipeline(TEST_FBS, seed=6).run_batch(plan, [x, y])
        bumped = AthenaPipeline(TEST_FBS, seed=6).run_batch(plan, [x2, y])
        assert np.array_equal(base[1], bumped[1])
        assert np.array_equal(bumped[0], qm.forward_int(x2[None])[0])

    def test_overcapacity_batch_stacks_ciphertexts(self):
        # Three images at capacity 2: a lane-full ciphertext and a one-lane
        # one, each computing the bits it computes run alone, in order.
        qm, plan = _pack_setup()
        xs = _inputs(113, 3)
        outs = AthenaPipeline(TEST_FBS, seed=7).run_batch(plan, xs)
        alone = AthenaPipeline(TEST_FBS, seed=7)
        singles = alone.run_batch(plan, xs[:2]) + alone.run_batch(plan, xs[2:])
        for x, out, single in zip(xs, outs, singles):
            assert np.array_equal(out, qm.forward_int(x[None])[0])
            assert np.array_equal(out, single)


def _stacked_and_alone(plan, params, xs, backend=BATCHED):
    """Tail ciphertexts of one stacked run of ``xs``, of each ciphertext's
    images run alone (in stack order, on a pipeline of the same seed), and
    the stack's lane counts."""
    pipes = [AthenaPipeline(params, seed=3) for _ in range(2)]
    ex = CiphertextExecutor(pipes[0], plan, images=len(xs))
    with use_backend(backend):
        stacked = run_program(plan, ex, np.stack(xs))
        alone, ends = [], np.cumsum(ex.lanes)
        for lanes, end in zip(ex.lanes, ends):
            alone += run_program(plan, CiphertextExecutor(pipes[1], plan, images=lanes),
                                 np.stack(xs[end - lanes : end]))
    return stacked, alone, ex.lanes


def _residues(cts) -> list[bytes]:
    return [ct.c0.data.tobytes() + ct.c1.data.tobytes() for ct in cts]


class TestStackedCiphertexts:
    """One dispatch, lane-full ciphertexts in lockstep: every ciphertext's
    residues equal a run of its images alone, on every engine."""

    @pytest.mark.parametrize("images", [1, 2, 3, 4, 5])
    def test_pack_plan_stacks_bit_identically(self, images):
        qm, plan = _pack_setup()
        xs = _inputs(211, images)
        stacked, alone, lanes = _stacked_and_alone(plan, TEST_FBS, xs)
        assert lanes == [2] * (images // 2) + [1] * (images % 2)
        assert _residues(stacked) == _residues(alone)
        outs = AthenaPipeline(TEST_FBS, seed=3).run_batch(plan, xs)
        for x, out in zip(xs, outs):
            assert np.array_equal(out, qm.forward_int(x[None])[0])

    @pytest.mark.parametrize("subject", ["fused_maxpool", "resnet20_block"])
    def test_a_capacity_one_plan_stacks_its_pool_and_residual_steps(self, subject):
        (build, params), = [case.values for case in _wire_subjects() if case.id == subject]
        plan = compile_program(build(), params)
        assert plan.batch_capacity == 1
        rng = np.random.default_rng(223)
        xs = [rng.integers(-2, 3, plan.entry.in_shape).astype(np.int64) for _ in range(2)]
        stacked, alone, lanes = _stacked_and_alone(plan, params, xs)
        assert lanes == [1, 1]
        assert _residues(stacked) == _residues(alone)

    def test_serial_batched_and_counting_agree_on_a_stack(self):
        _, plan = _pack_setup()
        xs = _inputs(227, 3)
        runs = [_stacked_and_alone(plan, TEST_FBS, xs, be)[0]
                for be in (BATCHED, SERIAL, CountingBackend(BATCHED))]
        assert _residues(runs[0]) == _residues(runs[1]) == _residues(runs[2])

    def test_counting_records_are_the_sum_of_the_ciphertexts_runs(self):
        _, plan = _pack_setup()
        xs = _inputs(229, 3)
        stacked, alone = CountingBackend(BATCHED), CountingBackend(BATCHED)
        pipes = [AthenaPipeline(TEST_FBS, seed=3) for _ in range(2)]
        with use_backend(stacked):
            run_program(plan, CiphertextExecutor(pipes[0], plan, images=3), np.stack(xs))
        with use_backend(alone):
            for part in (xs[:2], xs[2:]):
                run_program(plan, CiphertextExecutor(pipes[1], plan, images=len(part)),
                            np.stack(part))
        assert stacked.ops_by_phase() == alone.ops_by_phase()
        rounds = sum(1 for step in plan.steps if step.kind == "linear")
        assert stacked.totals()["fbs"] == 2 * rounds  # two ciphertexts


class TestAPlanIsCompleteWhenBuilt:
    """A plan, compiled or loaded, holds every layout and schedule its runs
    use: a first run counts what any later run counts, and no run changes
    the plan."""

    @pytest.mark.parametrize("loaded", [False, True], ids=["compiled", "loaded"])
    def test_the_first_run_counts_what_the_second_does(self, loaded):
        _, plan = _pack_setup()
        if loaded:
            plan = load_plan(dump_plan(plan), TEST_FBS)
        xs = _inputs(233, 2)
        counting = CountingBackend(BATCHED)
        runs = []
        with use_backend(counting):
            pipe = AthenaPipeline(TEST_FBS, seed=3)
            for _ in range(2):
                counting.reset()
                pipe.run_batch(plan, xs)
                runs.append(counting.ops_by_phase())
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("build, params", _wire_subjects())
    def test_a_run_leaves_its_plan_unchanged(self, build, params):
        compiled = compile_program(build(), params)
        # Keygen fills the parameter set's cached properties, which the plan
        # references: build the pipeline before the first snapshot.
        pipe = AthenaPipeline(params, seed=3)
        rng = np.random.default_rng(239)
        for plan in (compiled, load_plan(dump_plan(compiled), params)):
            xs = [rng.integers(-2, 3, plan.entry.in_shape).astype(np.int64)
                  for _ in range(plan.batch_capacity + 1)]
            before = pickle.dumps(plan)
            pipe.run(plan, xs[0])
            pipe.run_batch(plan, xs)
            assert pickle.dumps(plan) == before


@pytest.mark.slow
class TestLanesTimesSigmoid:
    """A hidden ``LUT(0) != 0`` layer, single and batched. The model is not
    margin-safe (its sigmoid table steps at arbitrary MACs), so each run is
    held to the refresh-noise bound of ``forward_int``, not to the others."""

    def test_single_and_two_lane_runs_sit_inside_the_noise_bound(self):
        qm = sigmoid_pack_cnn()
        plan = compile_program(lower(qm, TEST_FBS), TEST_FBS)
        bound = refresh_noise_bound(qm, TEST_FBS)
        xs = _inputs(101, 2)
        wants = [qm.forward_int(x[None])[0] for x in xs]
        batch = AthenaPipeline(TEST_FBS, seed=3).run_batch(plan, xs)
        for x, got, want in zip(xs, batch, wants):
            assert np.abs(got - want).max() <= bound
            single = AthenaPipeline(TEST_FBS, seed=3).run(plan, x)
            assert np.abs(single - want).max() <= bound


@pytest.mark.slow
class TestLanesTimesPlaced:
    """Four lanes through a placed (pad > 0 interior) chain: bit-identical
    to the single-image runs and to ``forward_int``."""

    def test_four_lane_batch_matches_plain_and_single(self):
        qm = placed_chain_cnn()
        plan = compile_program(lower(qm, TEST_LOOP), TEST_LOOP)
        rng = np.random.default_rng(131)
        xs = [rng.integers(-1, 2, (1, 3, 3)).astype(np.int64) for _ in range(4)]
        outs = AthenaPipeline(TEST_LOOP, seed=3).run_batch(plan, xs)
        for x, out in zip(xs, outs):
            assert np.array_equal(out, qm.forward_int(x[None])[0])
        for lane in (0, 3):  # first and last: the two ends of the ring
            single = AthenaPipeline(TEST_LOOP, seed=3).run(plan, xs[lane])
            assert np.array_equal(outs[lane], single)
