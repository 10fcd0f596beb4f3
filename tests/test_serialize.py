"""Tests for the plan wire format."""

import functools
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.fhe import serialize
from repro.fhe.params import TEST_LOOP, TEST_TINY


def _assert_every_prefix_rejected(raw, load):
    """A short read anywhere is a ParameterError, never a struct.error."""
    for cut in range(len(raw)):
        with pytest.raises(ParameterError):
            load(raw[:cut])


class TestMalformedInput:
    """Complete-looking but wrong bytes are a ParameterError, never a
    numpy / codec exception and never silently accepted."""

    def test_trailing_bytes_rejected(self):
        raw = _resnet_block_raw()
        serialize.load_plan(raw, TEST_LOOP)  # the untouched plan loads
        # A plan's last four bytes are its checksum: the extra byte goes
        # before a fresh one, or the checksum would reject it first.
        with pytest.raises(ParameterError, match="trailing"):
            serialize.load_plan(_resealed(raw[:-4] + b"\x00"), TEST_LOOP)

    def test_a_wrapping_shape_word_is_a_parameter_error(self):
        """With the top bit of the first array's shape word set, a uint64
        shape product wraps to the true length; the product is taken in
        Python integers, so the read comes up short instead."""
        body = bytearray(_resnet_block_raw()[:-4])
        body[_first_shape_top(body)] ^= 0x80
        with pytest.raises(ParameterError, match="truncated"):
            serialize.load_plan(_resealed(bytes(body)), TEST_LOOP)

    @pytest.mark.parametrize("kind", ["ciphertext", "lwe-batch", "plan"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_single_bit_flip_loads_or_is_a_parameter_error(self, kind, data):
        """A flipped bit either decodes or raises a ParameterError: in the
        array record of a ciphertext component or of an LWE batch's masks,
        and in a plan, whose fresh checksum lets the flip reach the parser.
        The top byte of the first shape word is always a candidate: its top
        bit would make a uint64 shape product wrap."""
        raw, top, load = _bit_flip_subject(kind)
        body = bytearray(raw)
        at = data.draw(st.just(top) | st.integers(0, len(body) - 1))
        body[at] ^= 1 << data.draw(st.integers(0, 7))
        try:
            load(bytes(body))
        except ParameterError:
            pass

    def test_flipped_string_byte_is_a_parameter_error(self):
        raw = _resnet_block_raw()
        flipped = bytearray(raw[:-4])
        flipped[26] = 0xFF  # first byte of the plan name: not valid UTF-8
        with pytest.raises(ParameterError, match="corrupt string"):
            serialize.load_plan(_resealed(bytes(flipped)), TEST_LOOP)
        with pytest.raises(ParameterError, match="checksum"):
            serialize.load_plan(bytes(flipped) + raw[-4:], TEST_LOOP)


class TestFingerprint:
    def test_distinct_presets_distinct_fingerprints(self):
        from repro.fhe.params import PRESETS

        prints = {serialize.params_fingerprint(p) for p in PRESETS.values()}
        assert len(prints) == len(PRESETS)

    def test_guess_params(self):
        assert serialize.guess_params(_resnet_block_raw()) is TEST_LOOP
        assert serialize.guess_params(b"xx") is None


class TestPlanWireV3:
    """The truncation guarantee the plan wire has made since v3, still
    pinned on v5. (Class name kept so the test id stays stable.)"""

    def test_truncated_plan_rejected(self):
        raw = _resnet_block_raw()
        _assert_every_prefix_rejected(
            raw, lambda b: serialize.load_plan(b, TEST_LOOP))


@functools.lru_cache(maxsize=None)
def _resnet_block_plan():
    """(program, plan): placed packing, a residual with its body, a
    reshape, a plain FC."""
    from repro.core.plan import compile_program
    from repro.core.program import lower
    from repro.quant.subjects import resnet_block_micro

    program = lower(resnet_block_micro(np.random.default_rng(5)), TEST_LOOP)
    return program, compile_program(program, TEST_LOOP)


@functools.lru_cache(maxsize=None)
def _resnet_block_raw() -> bytes:
    return serialize.dump_plan(_resnet_block_plan()[1])


def _load_array_record(raw: bytes) -> np.ndarray:
    """One array record, read as the plan reader reads each of its arrays."""
    buf = io.BytesIO(raw)
    arr = serialize._read_array(buf)
    serialize._check_end(buf)
    return arr


def _bit_flip_subject(kind: str):
    """(bytes, offset of the first shape word's top byte, loader). A plan is
    flipped without its checksum and resealed by the loader; an array
    record's shape word follows its one ``ndim`` byte."""
    if kind == "plan":
        body = _resnet_block_raw()[:-4]
        return (body, _first_shape_top(body),
                lambda b: serialize.load_plan(_resealed(b), TEST_LOOP))
    p = TEST_TINY
    shape = {"ciphertext": (p.num_limbs, p.n), "lwe-batch": (3, p.lwe_n)}[kind]
    buf = io.BytesIO()
    serialize._write_array(
        buf, np.random.default_rng(3).integers(0, p.moduli[0], shape))
    return buf.getvalue(), 8, _load_array_record


def _first_shape_top(body: bytes) -> int:
    """Offset of the top byte of the block plan's first array's shape word:
    past step ``qconv0``'s name, its kind string ``linear``, the no-payload
    and S2C flags and the positions array's ``ndim`` byte, the last of the
    word's eight little-endian bytes."""
    at = body.index(b"qconv0") + len(b"qconv0") + 2 + len(b"linear") + 1 + 1 + 1
    return at + 7


def _wire_subjects():
    """(id, program builder, params) for every step kind the
    wire carries: the four SUBJECTS and the fused conv+max-pool and the
    avg-pool/remap micro models of ``tests/test_lowering.py``."""
    from repro.core.program import lower
    from repro.quant.quantize import (
        QAvgPool, QFlatten, QMaxPool, QuantizedModel)
    from repro.quant.subjects import SUBJECTS
    from tests.test_lowering import CFG, _conv, _fc

    def subject(builder, params):
        return lambda: lower(builder(np.random.default_rng(5)), params)

    def maxpool():
        r = np.random.default_rng(11)
        return QuantizedModel([
            _conv(r, 1, 2, 3, 1, 1, 4, out_scale=6.0),
            QMaxPool(2, 2), QFlatten(), _fc(r, 8, 3),
        ], CFG, 1.0, (1, 4, 4)).program()

    def avgpool():
        r = np.random.default_rng(16)
        return QuantizedModel([
            _conv(r, 1, 2, 3, 1, 0, 6, out_scale=10.0),
            QAvgPool(kernel=2, stride=2), QFlatten(), _fc(r, 8, 3),
        ], CFG, 1.0, (1, 6, 6)).program()

    cases = [(name, subject(builder, params), params)
             for name, (builder, params) in SUBJECTS.items()]
    cases.append(("fused_maxpool", maxpool, TEST_LOOP))
    cases.append(("avgpool_remap", avgpool, TEST_LOOP))
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


def _step_types(steps):
    """Step types, recursing into residual branches."""
    return [
        (type(s).__name__, _step_types(s.body), _step_types(s.shortcut or []))
        if s.kind == "residual" and hasattr(s, "body") else type(s).__name__
        for s in steps
    ]


def _as_v4(raw: bytes) -> bytes:
    """``raw`` relabelled as wire v4 under a valid checksum — what a cache
    directory written by the previous build holds, as far as the version
    check can tell."""
    return _resealed(raw[:4] + (4).to_bytes(2, "little") + raw[6:-4])


def _resealed(body: bytes) -> bytes:
    """``body`` (a plan without its trailer) under a fresh, valid CRC32."""
    import zlib

    return body + struct.pack("<I", zlib.crc32(body))


class TestPlanWireV4:
    """Since v4 every step is on the wire, so a loaded plan is the compiled
    plan — same step types, byte-identical re-dump, bit-identical outputs —
    and corrupt or stale bytes never decode; pinned on v7. (Class name kept
    so the test ids stay stable.)"""

    @pytest.mark.parametrize("build, params", _wire_subjects())
    def test_every_step_kind_round_trips(self, build, params):
        from repro.core.plan import compile_program

        program = build()
        plan = compile_program(program, params)
        raw = serialize.dump_plan(plan)
        loaded = serialize.load_plan(raw, params)
        # No opaque where the compiled plan had artifacts, at any depth.
        assert _step_types(loaded.steps) == _step_types(plan.steps)
        assert serialize.dump_plan(loaded) == raw
        assert loaded.batch_capacity == plan.batch_capacity
        assert loaded.bind(program, params) is loaded

    def test_wire_subjects_cover_every_step_kind(self):
        from repro.core.plan import compile_program

        seen = set()
        pooled = placed = False
        for case in _wire_subjects():
            build, params = case.values
            plan = compile_program(build(), params)
            stack = list(plan.steps)
            while stack:
                step = stack.pop()
                seen.add(type(step).__name__)
                stack += getattr(step, "body", [])
                stack += getattr(step, "shortcut", None) or []
                pooled |= bool(getattr(step, "pool_rounds", None))
                rnd = getattr(step, "round", None)
                placed |= rnd is not None and not np.array_equal(
                    rnd.rows, np.arange(rnd.count))
        assert seen == {"CompiledLinear", "CompiledPool", "CompiledRemap",
                        "CompiledResidual", "CompiledReshape"}
        assert pooled and placed

    def test_loaded_rounds_equal_compiled_rounds(self):
        _, plan = _resnet_block_plan()
        loaded = serialize.load_plan(serialize.dump_plan(plan), TEST_LOOP)
        stem, block = plan.steps[0], plan.steps[1]
        got_stem, got_block = loaded.steps[0], loaded.steps[1]
        pairs = [(got_stem.round, stem.round), (got_block.round, block.round),
                 (got_block.body[-1].round, block.body[-1].round)]
        # Placed onto the block's grid; the join round packs compactly.
        assert not np.array_equal(stem.round.rows, np.arange(stem.round.count))
        assert np.array_equal(block.round.rows, np.arange(block.round.count))
        for got, want in pairs:
            assert np.array_equal(got.positions, want.positions)
            assert np.array_equal(got.rows, want.rows)
            assert got.height == want.height
            assert np.array_equal(got.lut.plan.matrix, want.lut.plan.matrix)
            assert (got.correction is None) == (want.correction is None)
            if want.correction is not None:
                assert np.array_equal(
                    got.correction.coeffs, want.correction.coeffs)
        assert got_block.alpha == block.alpha

    def test_placeholder_flag_on_a_linear_step_is_rejected(self):
        """The no-payload flag is a reshape's spelling and nothing else's: a
        step that must run cannot arrive without its artifacts."""
        body = bytearray(_resnet_block_raw()[:-4])
        at = body.index(b"qconv0") + len(b"qconv0") + 2 + len(b"linear")
        assert body[at] == 0
        body[at] = 1
        with pytest.raises(ParameterError, match="no-payload flag"):
            serialize.load_plan(_resealed(bytes(body)), TEST_LOOP)

    def test_a_plan_opening_on_a_remap_is_refused_at_load(self):
        """A CRC-valid artifact whose first step is a remap decodes every
        step, then the plan's own construction refuses it: no model is
        needed to reject it, and no ciphertext op runs on it."""
        import io

        from repro.core.plan import compile_program

        build, params = next(
            c.values for c in _wire_subjects() if c.id == "avgpool_remap")
        plan = compile_program(build(), params)
        kinds = [step.kind for step in plan.steps]
        buf = io.BytesIO()
        buf.write(serialize._header(params))
        serialize._write_str(buf, plan.name)
        serialize._write_str(buf, plan.model_hash)
        serialize._write_steps(buf, plan.steps[kinds.index("remap"):])
        with pytest.raises(ParameterError, match="entry step"):
            serialize.load_plan(_resealed(buf.getvalue()), params)

    def test_a_lane_span_below_the_outputs_is_refused_at_load(self):
        """Lanes tile at a linear step's span, so a CRC-valid span that does
        not hold the step's outputs (0 included) would overlap them."""
        from repro.core.plan import compile_program

        build, params = next(c.values for c in _wire_subjects() if c.id == "pack")
        plan = compile_program(build(), params)
        top = int(plan.steps[0].round.positions.max())
        for span in (0, top):
            plan.steps[0].lane_span = span
            with pytest.raises(ParameterError, match="lane span below its outputs"):
                serialize.load_plan(serialize.dump_plan(plan), params)

    def test_entry_geometry_round_trips(self):
        """Every linear step carries its input shape and pad on the wire:
        a conv's ``(C, H, W)`` and pad, an FC's ``(F, 1, 1)`` and 0."""
        _, plan = _resnet_block_plan()
        loaded = serialize.load_plan(_resnet_block_raw(), TEST_LOOP)
        linear = [s for s in plan.steps if s.kind == "linear"]
        assert [(s.in_shape, s.pad) for s in linear] == [
            (s.in_shape, s.pad) for s in loaded.steps if s.kind == "linear"]
        assert linear[-1].in_shape[1:] == (1, 1) and linear[-1].pad == 0

    def test_v3_bytes_rejected(self):
        raw = bytearray(_resnet_block_raw())
        raw[4:6] = (3).to_bytes(2, "little")
        with pytest.raises(ParameterError, match="version 3"):
            serialize.load_plan(bytes(raw), TEST_LOOP)

    def test_v4_bytes_rejected(self):
        """No v4 reader: the version word is checked before any payload."""
        with pytest.raises(ParameterError, match="version 4"):
            serialize.load_plan(_as_v4(_resnet_block_raw()), TEST_LOOP)

    def test_resealed_garbage_is_still_a_parameter_error(self):
        """A valid checksum over a wrong payload reaches the parser, which
        validates shapes and index ranges itself."""
        body = bytearray(_resnet_block_raw()[:-4])
        at = body.index(b"qconv0") + len(b"qconv0")
        # name | kind "linear" | opaque | s2c | positions: ndim, dim, data
        at += 2 + len(b"linear") + 1 + 1 + 1 + 8
        body[at:at + 8] = (10 ** 6).to_bytes(8, "little")  # position >= n
        with pytest.raises(ParameterError, match="outside the ring"):
            serialize.load_plan(_resealed(bytes(body)), TEST_LOOP)

    def test_first_s2c_on_a_loaded_plan_builds_no_automorphism_map(self):
        """``load_plan`` warms the S2C rotation tables — the coefficient
        maps and the evaluation-domain permutations — exactly as
        ``compile_program`` does (it did not before v4): in a process that
        has not built the parameter set's S2C plan yet, it builds it — at
        the period of the loaded plan's own round."""
        from repro.core.framework import AthenaPipeline
        from repro.core.plan import _s2c_rounds, compile_program
        from repro.core.program import lower
        from repro.fhe.backend import automorphism_map, ntt_automorphism_perm
        from repro.fhe.s2c import s2c_plan, slot_to_coeff
        from repro.quant.subjects import SUBJECTS

        builder, params = SUBJECTS["serve_micro"]
        program = lower(builder(np.random.default_rng(5)), params)
        raw = serialize.dump_plan(compile_program(program, params))
        pipe = AthenaPipeline(params, seed=3)
        ct = pipe.encrypt_coeffs(np.arange(params.n) % 5)
        tables = (automorphism_map, ntt_automorphism_perm)
        for table in (*tables, s2c_plan):
            table.cache_clear()
        rnd = next(_s2c_rounds(serialize.load_plan(raw, params).steps))
        assert rnd.period == 4
        before = [table.cache_info().misses for table in tables]
        assert min(before) > 0
        slot_to_coeff(pipe.ctx, ct, pipe.s2c_keys, rnd.period)
        assert [table.cache_info().misses for table in tables] == before

    @pytest.mark.slow
    def test_loaded_plan_runs_bit_identical(self):
        """Same key seed, compiled plan vs its loaded wire form: every
        output equal — with nothing recompiled in between."""
        from repro.core.framework import AthenaPipeline

        _, plan = _resnet_block_plan()
        x_q = np.random.default_rng(9).integers(-2, 3, (1, 6, 6)).astype(np.int64)
        want = AthenaPipeline(TEST_LOOP, seed=7).run(plan, x_q)
        loaded = serialize.load_plan(serialize.dump_plan(plan), TEST_LOOP)
        got = AthenaPipeline(TEST_LOOP, seed=7).run(loaded, x_q)
        assert np.array_equal(got, want)


#: SHA-256 of ``dump_plan(compile_program(...))`` per wire subject at wire v7.
#: Each equals the v6 bytes recorded before it with the version word 7, each
#: linear step's entry geometry (a four-entry int64 array after its lane
#: span, 41 bytes) added and the CRC32 recomputed: the v6 writer, run on the
#: plan loaded from these bytes, reproduces the v6 digests exactly.
PLAN_SHA256 = {
    "mnist_cnn": "4f01efc6a03bd0c5a60004fb2f3c79972ae0529b3929d11147f2993b6b892f0b",
    "resnet20_block": "144ac3beeb197776421458c8955de4955b2eefbc870136b32f982d8eca9f9692",
    "serve_micro": "c619f0cf70901d3f4dda0f7d6700ae23da39a1d4a2a95b30d35ea607e2032de8",
    "pack": "0b6f01f50ed2edf75a5102096c3ca6d1ead29489b5704f2e04961faa3227268d",
    "fused_maxpool": "73f4a7b2a4c0ebf9af167135b1ce8eeecfced848a39ff64de071148cc27a9fef",
    "avgpool_remap": "84ed17d027dd0e432f19a718c45ddfcd3f1cfa2ced3363914b2782d447a02cfb",
}


def _zero_invariant_subjects():
    """The wire subjects plus the sigmoid ``pack`` variant (a hidden
    ``LUT(0) != 0`` layer, which none of them has)."""
    from repro.core.program import lower
    from repro.fhe.params import TEST_FBS
    from tests.conftest import sigmoid_pack_cnn

    return _wire_subjects() + [pytest.param(
        lambda: lower(sigmoid_pack_cnn(), TEST_FBS), TEST_FBS,
        id="pack_sigmoid")]


class TestOneRefreshGeometry:
    """Every round packs sample ``i`` onto ``rows[i]`` and leaves an exact
    zero everywhere else — compact rounds and ``LUT(0) != 0`` tables
    included — on the wire bytes pinned in ``PLAN_SHA256``."""

    @pytest.mark.parametrize("build, params", _zero_invariant_subjects())
    def test_every_round_cancels_lut0_outside_its_rows(self, build, params):
        """Over the round's period: -LUT(0) at every slot whose residue mod
        the period is not a row, and nothing on the rows — every round of
        the steps and of their lane layouts, compiled and loaded."""
        from repro.core.plan import _walk, compile_program
        from tests.conftest import plan_rounds

        plan = compile_program(build(), params)
        loaded = serialize.load_plan(serialize.dump_plan(plan), params)
        for steps in (plan.steps, loaded.steps):
            rounds = [*plan_rounds(steps), *(layout.round for step in _walk(steps)
                                             for layout in getattr(step, "layouts", ()))]
            for rnd in rounds:
                assert rnd.rows.shape == rnd.positions.shape
                assert rnd.height == rnd.rows.max() + 1
                on_rows = np.isin(np.arange(params.n) % rnd.period, rnd.rows)
                fix = (np.zeros(params.n, dtype=np.int64)
                       if rnd.correction is None else rnd.correction.to_slots())
                assert not fix[on_rows].any()
                left = (int(rnd.lut.values[0]) + fix)[~on_rows]
                assert not (left % params.t).any()
            assert len(rounds) >= 2

    def test_the_sigmoid_variant_needs_the_correction(self):
        """The subject above is not vacuous: its conv table has LUT(0) = 4.
        The one-lane round's 4 rows fill its period and need no correction;
        the 2-lane layout's 8 rows at height 15 leave half of its period's
        16 residues to cancel, and it carries the plaintext."""
        build, params = _zero_invariant_subjects()[-1].values
        from repro.core.plan import compile_program

        one, two = compile_program(build(), params).steps[0].layouts
        assert np.array_equal(one.round.rows, np.arange(4)) and one.round.period == 4
        assert one.round.correction is None
        rnd = two.round
        assert (rnd.rows.size, rnd.height, rnd.period) == (8, 15, 16)
        assert int(rnd.lut.values[0]) == 4 and rnd.correction is not None

    @pytest.mark.parametrize("build, params", _wire_subjects())
    def test_plan_bytes_did_not_move(self, build, params, request):
        import hashlib

        from repro.core.plan import compile_program

        raw = serialize.dump_plan(compile_program(build(), params))
        name = request.node.callspec.id
        assert hashlib.sha256(raw).hexdigest() == PLAN_SHA256[name]


class TestPlanIntegrity:
    """The CRC32 trailer: no damaged plan decodes, and caches self-heal."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_single_bit_flip_is_rejected(self, data):
        raw = bytearray(_resnet_block_raw())
        at = data.draw(st.integers(0, len(raw) - 1))
        raw[at] ^= 1 << data.draw(st.integers(0, 7))
        with pytest.raises(ParameterError):
            serialize.load_plan(bytes(raw), TEST_LOOP)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_overwritten_length_field_is_rejected(self, data):
        """Overwrite 2, 4 or 8 bytes anywhere — every string length, array
        dimension and step count is one of those — with another value."""
        raw = bytearray(_resnet_block_raw())
        width = data.draw(st.sampled_from([2, 4, 8]))
        at = data.draw(st.integers(0, len(raw) - width))
        lie = data.draw(st.binary(min_size=width, max_size=width))
        if bytes(raw[at:at + width]) == lie:
            return
        raw[at:at + width] = lie
        with pytest.raises(ParameterError):
            serialize.load_plan(bytes(raw), TEST_LOOP)

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_caches_self_heal_from_a_flipped_bit(self, tmp_path_factory, data):
        from repro.serve import ShardedPlanCache

        program, plan = _resnet_block_plan()
        root = tmp_path_factory.mktemp("plans")
        ShardedPlanCache(root).get(program, TEST_LOOP)
        path = ShardedPlanCache(root).path_for(plan.model_hash, TEST_LOOP)
        whole = path.read_bytes()
        assert whole == _resnet_block_raw()
        damaged = bytearray(whole)
        at = data.draw(st.integers(24, len(whole) - 1))  # past the header
        damaged[at] ^= 1 << data.draw(st.integers(0, 7))
        path.write_bytes(bytes(damaged))
        cache = ShardedPlanCache(root)  # a restart: nothing in memory
        healed = cache.get(program, TEST_LOOP)
        assert (cache.hits, cache.misses) == (0, 1)
        assert serialize.dump_plan(healed) == whole
        assert path.read_bytes() == whole

    def test_caches_self_heal_from_a_v4_artifact(self, tmp_path):
        from repro.serve import ShardedPlanCache

        cache = ShardedPlanCache(tmp_path)
        program, plan = _resnet_block_plan()
        path = cache.path_for(plan.model_hash, TEST_LOOP)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(_as_v4(_resnet_block_raw()))
        healed = cache.get(program, TEST_LOOP)
        assert (cache.hits, cache.misses) == (0, 1)
        assert serialize.dump_plan(healed) == _resnet_block_raw()
        assert path.read_bytes() == _resnet_block_raw()


class TestLutOwnsItsPolynomial:
    """A round carries its LUT's table only; the LUT derives its polynomial
    and BSGS schedule itself, so no artifact can hand a later compile, or a
    LUT of the same table, a polynomial of its own."""

    def test_a_tampered_lut_array_cannot_reach_a_later_compile(self):
        from repro.core.plan import compile_program
        from tests.conftest import plan_rounds

        program, plan = _resnet_block_plan()
        before = serialize.dump_plan(compile_program(program, TEST_LOOP))
        raw = serialize.dump_plan(plan)
        arrays = {arr.tobytes(): arr for rnd in plan_rounds(plan.steps)
                  for arr in (rnd.lut.values, rnd.lut.coeffs)}
        tampered = 0
        for blob, arr in arrays.items():
            at = raw.find(blob)
            if at < 0:
                continue
            altered = arr.copy()
            altered[1] = (altered[1] + 1) % TEST_LOOP.t
            body = raw[:at] + altered.tobytes() + raw[at + len(blob):-4]
            try:
                serialize.load_plan(_resealed(body), TEST_LOOP)
            except ParameterError:
                pass
            tampered += 1
            assert serialize.dump_plan(compile_program(program, TEST_LOOP)) == before
        assert tampered

    @pytest.mark.parametrize("build, params", _wire_subjects())
    def test_loaded_polynomials_are_the_tables_interpolants(self, build, params):
        from repro.core.plan import compile_program
        from repro.fhe.fbs import interpolate_lut
        from tests.conftest import plan_rounds

        raw = serialize.dump_plan(compile_program(build(), params))
        loaded = serialize.load_plan(raw, params)
        rounds = list(plan_rounds(loaded.steps))
        assert rounds
        for rnd in rounds:
            assert np.array_equal(rnd.lut.coeffs, interpolate_lut(rnd.lut.values, params.t))
            assert not rnd.lut.values.flags.writeable
            assert not rnd.lut.coeffs.flags.writeable
            assert rnd.lut.coeffs.tobytes() not in raw

    def test_fused_max_pools_share_one_relu_and_one_schedule(self):
        from repro.core.lut import relu_lut
        from repro.core.plan import RefreshRound, compile_program

        build, params = next(case.values for case in _wire_subjects()
                             if case.id == "fused_maxpool")
        first, second = (compile_program(build(), params) for _ in range(2))
        luts = [rnd.lut for plan in (first, second)
                for _, rnd in plan.steps[0].pool_rounds]
        assert len(luts) == 4
        assert all(lut is relu_lut(params.t) for lut in luts)
        assert all(lut.plan is relu_lut(params.t).plan for lut in luts)
        # A load builds one LUT per distinct table: its max tree shares one.
        loaded = serialize.load_plan(serialize.dump_plan(first), params)
        pooled = {id(rnd.lut) for _, rnd in loaded.steps[0].pool_rounds}
        assert len(pooled) == 1
        assert "fbs" not in RefreshRound.__dataclass_fields__
        assert not hasattr(first, "s2c")

    def test_v5_bytes_rejected(self):
        """v5 carried each round's polynomial beside its table: no reader."""
        raw = _resnet_block_raw()
        v5 = _resealed(raw[:4] + (5).to_bytes(2, "little") + raw[6:-4])
        with pytest.raises(ParameterError, match="version 5"):
            serialize.load_plan(v5, TEST_LOOP)
