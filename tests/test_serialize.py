"""Tests for the wire formats (ciphertexts, LWE batches, secret keys)."""

import functools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.fhe import serialize
from repro.fhe.bfv import Plaintext
from repro.fhe.lwe import LweBatch
from repro.fhe.params import TEST_LOOP, TEST_SMALL, TEST_TINY


def _assert_every_prefix_rejected(raw, load):
    """A short read anywhere is a ParameterError, never a struct.error."""
    for cut in range(len(raw)):
        with pytest.raises(ParameterError):
            load(raw[:cut])


def _lwe_batch(rng, rows=10):
    return LweBatch(rng.integers(0, 257, (rows, 16)).astype(np.int64),
                    rng.integers(0, 257, rows).astype(np.int64), 257)


class TestCiphertextRoundtrip:
    def test_roundtrip_decrypts(self, tiny_ctx, tiny_keys, rng):
        sk, pk = tiny_keys
        p = tiny_ctx.params
        m = rng.integers(0, p.t, p.n)
        ct = tiny_ctx.encrypt(Plaintext.from_coeffs(m, p), pk)
        raw = serialize.dump_ciphertext(ct)
        back = serialize.load_ciphertext(raw, p)
        assert np.array_equal(tiny_ctx.decrypt(back, sk).coeffs, m)
        assert back.noise_bits == ct.noise_bits

    def test_roundtrip_still_homomorphic(self, tiny_ctx, tiny_keys, rng):
        sk, pk = tiny_keys
        p = tiny_ctx.params
        m = rng.integers(0, 20, p.n)
        ct = tiny_ctx.encrypt(Plaintext.from_coeffs(m, p), pk)
        back = serialize.load_ciphertext(serialize.dump_ciphertext(ct), p)
        doubled = tiny_ctx.smult(back, 2)
        assert np.array_equal(tiny_ctx.decrypt(doubled, sk).coeffs, 2 * m % p.t)

    def test_wrong_params_rejected(self, tiny_ctx, tiny_keys, rng):
        _, pk = tiny_keys
        p = tiny_ctx.params
        ct = tiny_ctx.encrypt(Plaintext.from_coeffs([1], p), pk)
        raw = serialize.dump_ciphertext(ct)
        with pytest.raises(ParameterError):
            serialize.load_ciphertext(raw, TEST_SMALL)

    def test_garbage_rejected(self):
        with pytest.raises(ParameterError):
            serialize.load_ciphertext(b"\x00" * 64, TEST_TINY)

    def test_truncation_rejected(self, tiny_ctx, tiny_keys, rng):
        sk, pk = tiny_keys
        p = tiny_ctx.params
        ct = tiny_ctx.encrypt(Plaintext.from_coeffs([1], p), pk)
        for raw, load in (
            (serialize.dump_ciphertext(ct),
             lambda b: serialize.load_ciphertext(b, p)),
            (serialize.dump_lwe_batch(_lwe_batch(rng, 3)),
             serialize.load_lwe_batch),
            (serialize.dump_secret_key(sk, allow_secret=True),
             lambda b: serialize.load_secret_key(b, p)),
        ):
            _assert_every_prefix_rejected(raw, load)


class TestLweBatch:
    def test_roundtrip(self, rng):
        batch = _lwe_batch(rng)
        back = serialize.load_lwe_batch(serialize.dump_lwe_batch(batch))
        assert np.array_equal(back.a, batch.a)
        assert np.array_equal(back.b, batch.b)
        assert back.modulus == 257

    def test_garbage_rejected(self, rng):
        with pytest.raises(ParameterError):
            serialize.load_lwe_batch(b"nope nope nope nope nope")
        raw = bytearray(serialize.dump_lwe_batch(_lwe_batch(rng, 2)))
        raw[4:6] = (99).to_bytes(2, "little")  # a foreign wire version
        with pytest.raises(ParameterError, match="version 99"):
            serialize.load_lwe_batch(bytes(raw))


class TestSecretKey:
    def test_requires_opt_in(self, tiny_keys):
        sk, _ = tiny_keys
        with pytest.raises(ParameterError):
            serialize.dump_secret_key(sk)

    def test_roundtrip(self, tiny_ctx, tiny_keys, rng):
        sk, pk = tiny_keys
        p = tiny_ctx.params
        raw = serialize.dump_secret_key(sk, allow_secret=True)
        back = serialize.load_secret_key(raw, p)
        # the restored key decrypts ciphertexts made under the original
        m = rng.integers(0, p.t, p.n)
        ct = tiny_ctx.encrypt(Plaintext.from_coeffs(m, p), pk)
        assert np.array_equal(tiny_ctx.decrypt(ct, back).coeffs, m)


def _array_bytes(arr):
    """The wire form of one int64 array (ndim, dims, little-endian data)."""
    arr = np.asarray(arr, dtype="<i8")
    return (struct.pack("<B", arr.ndim)
            + b"".join(struct.pack("<Q", d) for d in arr.shape) + arr.tobytes())


class TestMalformedInput:
    """Complete-looking but wrong bytes are a ParameterError, never a
    numpy / codec exception and never silently accepted."""

    @pytest.fixture(scope="class")
    def blobs(self, tiny_ctx, tiny_keys):
        from repro.core.plan import compile_program
        from repro.core.program import lower
        from repro.fhe.params import TEST_LOOP
        from repro.quant.subjects import mnist_cnn_micro

        sk, pk = tiny_keys
        p = tiny_ctx.params
        ct = tiny_ctx.encrypt(Plaintext.from_coeffs([1], p), pk)
        program = lower(mnist_cnn_micro(np.random.default_rng(5)), TEST_LOOP)
        rng = np.random.default_rng(3)
        return {
            "ciphertext": (serialize.dump_ciphertext(ct),
                           lambda b: serialize.load_ciphertext(b, p)),
            "lwe": (serialize.dump_lwe_batch(_lwe_batch(rng, 3)),
                    serialize.load_lwe_batch),
            "plan": (serialize.dump_plan(compile_program(program, TEST_LOOP)),
                     lambda b: serialize.load_plan(b, TEST_LOOP)),
            "secret": (serialize.dump_secret_key(sk, allow_secret=True),
                       lambda b: serialize.load_secret_key(b, p)),
        }

    @pytest.mark.parametrize("kind", ["ciphertext", "lwe", "plan", "secret"])
    def test_trailing_bytes_rejected(self, blobs, kind):
        raw, load = blobs[kind]
        load(raw)  # the untouched object loads
        # A plan's last four bytes are its checksum: the extra byte goes
        # before a fresh one, or the checksum would reject it first.
        longer = _resealed(raw[:-4] + b"\x00") if kind == "plan" else raw + b"\x00"
        with pytest.raises(ParameterError, match="trailing"):
            load(longer)

    def test_ciphertext_second_component_shape_checked(self, blobs, tiny_ctx):
        raw, load = blobs["ciphertext"]
        p = tiny_ctx.params
        c1_at = len(raw) - len(_array_bytes(np.zeros((p.num_limbs, p.n))))
        with pytest.raises(ParameterError, match="shape"):
            load(raw[:c1_at] + _array_bytes(np.zeros((1, 4))))

    @pytest.mark.parametrize("a, b", [
        (np.int64(7), np.int64(7)),                    # 0-d: no rows to count
        (np.zeros((3, 16)), np.zeros((3, 1))),         # b must be a vector
        (np.zeros(3), np.zeros(3)),                    # a must be a matrix
        (np.zeros((3, 16)), np.zeros(2)),              # row counts differ
    ], ids=["scalars", "b-matrix", "a-vector", "row-mismatch"])
    def test_lwe_batch_dimensions_checked(self, blobs, a, b):
        raw, load = blobs["lwe"]
        head = raw[:16]  # magic/version/kind + modulus
        with pytest.raises(ParameterError, match="inconsistent"):
            load(head + _array_bytes(a) + _array_bytes(b))

    def test_flipped_string_byte_is_a_parameter_error(self, blobs):
        raw, load = blobs["plan"]
        flipped = bytearray(raw[:-4])
        flipped[26] = 0xFF  # first byte of the plan name: not valid UTF-8
        with pytest.raises(ParameterError, match="corrupt string"):
            load(_resealed(bytes(flipped)))
        with pytest.raises(ParameterError, match="checksum"):
            load(bytes(flipped) + raw[-4:])


class TestFingerprint:
    def test_distinct_presets_distinct_fingerprints(self):
        from repro.fhe.params import PRESETS

        prints = {serialize.params_fingerprint(p) for p in PRESETS.values()}
        assert len(prints) == len(PRESETS)

    def test_guess_params(self, tiny_ctx, tiny_keys):
        _, pk = tiny_keys
        p = tiny_ctx.params
        ct = tiny_ctx.encrypt(Plaintext.from_coeffs([1], p), pk)
        raw = serialize.dump_ciphertext(ct)
        assert serialize.guess_params(raw) is p
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
    and corrupt or stale bytes never decode; pinned on v5. (Class name kept
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
            assert got.fbs.groups == want.fbs.groups
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
        ``compile_program`` does (it did not before v4)."""
        from repro.core.framework import AthenaPipeline
        from repro.core.plan import compile_program
        from repro.core.program import lower
        from repro.fhe.backend import automorphism_map, ntt_automorphism_perm
        from repro.quant.subjects import SUBJECTS

        builder, params = SUBJECTS["serve_micro"]
        program = lower(builder(np.random.default_rng(5)), params)
        raw = serialize.dump_plan(compile_program(program, params))
        pipe = AthenaPipeline(params, seed=3)
        ct = pipe.encrypt_coeffs(np.arange(params.n) % 5)
        tables = (automorphism_map, ntt_automorphism_perm)
        for table in tables:
            table.cache_clear()
        loaded = serialize.load_plan(raw, params)
        before = [table.cache_info().misses for table in tables]
        assert min(before) > 0
        pipe.to_coeffs(ct, plan=loaded.s2c)
        assert [table.cache_info().misses for table in tables] == before

    @pytest.mark.slow
    def test_loaded_plan_runs_bit_identical(self):
        """Same key seed, compiled plan vs its loaded wire form: every
        output equal — with nothing recompiled in between."""
        from repro.core.framework import AthenaPipeline

        program, plan = _resnet_block_plan()
        x_q = np.random.default_rng(9).integers(-2, 3, (1, 6, 6)).astype(np.int64)
        want = AthenaPipeline(TEST_LOOP, seed=7).run_program(
            program, x_q, plan=plan)
        loaded = serialize.load_plan(serialize.dump_plan(plan), TEST_LOOP)
        got = AthenaPipeline(TEST_LOOP, seed=7).run_program(
            program, x_q, plan=loaded)
        assert np.array_equal(got, want)


#: SHA-256 of ``dump_plan(compile_program(...))`` per wire subject, recorded
#: at the commit before rounds' rows became explicit: the wire did not move.
PLAN_SHA256 = {
    "mnist_cnn": "fc2790def2951b8be4f269a2ef81ac0ea8a372ca9a63983b93f28bfd3395ccaf",
    "resnet20_block": "9a680923a4b72aa1962e1f0dbe5f4044cf13b655db7a01df3ba7cca13128adde",
    "serve_micro": "6ea27b625888cb9ed65e0740e2202e1bb503c6a5033f1ccdfe3129bc3e0b099c",
    "pack": "3a2b5b242b45d9a3603857b4628d95a23ca59890dcf76b8d8452016acbf56961",
    "fused_maxpool": "525401d8888b33b702aec2d6883848320d0abf64459c7f78868becf19fd29f56",
    "avgpool_remap": "60edb0df059d0d1e309de9f9e48d98e880950cd014b3b4b5788565d1bd594676",
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
    included — on the same wire bytes as before."""

    @pytest.mark.parametrize("build, params", _zero_invariant_subjects())
    def test_every_round_cancels_lut0_outside_its_rows(self, build, params):
        from repro.core.plan import compile_program
        from tests.conftest import plan_rounds

        plan = compile_program(build(), params)
        loaded = serialize.load_plan(serialize.dump_plan(plan), params)
        for rounds in (plan_rounds(plan.steps), plan_rounds(loaded.steps)):
            seen = 0
            for rnd in rounds:
                seen += 1
                assert rnd.rows.shape == rnd.positions.shape
                assert rnd.height == rnd.rows.max() + 1
                if rnd.rows.size == params.n:
                    continue
                fix = (np.zeros(params.n, dtype=np.int64)
                       if rnd.correction is None else rnd.correction.to_slots())
                assert not fix[rnd.rows].any()
                left = np.delete(int(rnd.lut.values[0]) + fix, rnd.rows)
                assert not (left % params.t).any()
            assert seen >= 2

    def test_the_sigmoid_variant_needs_the_correction(self):
        """The subject above is not vacuous: its conv round is compact, its
        table has LUT(0) = 4, and the round carries the plaintext."""
        build, params = _zero_invariant_subjects()[-1].values
        from repro.core.plan import compile_program

        rnd = compile_program(build(), params).steps[0].round
        assert np.array_equal(rnd.rows, np.arange(4))
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

    @pytest.mark.parametrize("sharded", [False, True], ids=["flat", "sharded"])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_caches_self_heal_from_a_flipped_bit(self, tmp_path_factory,
                                                 sharded, data):
        from repro.serve import PlanCache, ShardedPlanCache

        program, plan = _resnet_block_plan()
        root = tmp_path_factory.mktemp("plans")
        make = ShardedPlanCache if sharded else PlanCache
        make(root).get(program, TEST_LOOP)
        path = make(root).path_for(plan.model_hash, TEST_LOOP)
        whole = path.read_bytes()
        assert whole == _resnet_block_raw()
        damaged = bytearray(whole)
        at = data.draw(st.integers(24, len(whole) - 1))  # past the header
        damaged[at] ^= 1 << data.draw(st.integers(0, 7))
        path.write_bytes(bytes(damaged))
        cache = make(root)  # a restart: nothing in memory
        healed = cache.get(program, TEST_LOOP)
        assert (cache.hits, cache.misses) == (0, 1)
        assert serialize.dump_plan(healed) == whole
        assert path.read_bytes() == whole

    @pytest.mark.parametrize("sharded", [False, True], ids=["flat", "sharded"])
    def test_caches_self_heal_from_a_v4_artifact(self, tmp_path, sharded):
        from repro.serve import PlanCache, ShardedPlanCache

        program, plan = _resnet_block_plan()
        make = ShardedPlanCache if sharded else PlanCache
        path = make(tmp_path).path_for(plan.model_hash, TEST_LOOP)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(_as_v4(_resnet_block_raw()))
        cache = make(tmp_path)
        healed = cache.get(program, TEST_LOOP)
        assert (cache.hits, cache.misses) == (0, 1)
        assert serialize.dump_plan(healed) == _resnet_block_raw()
        assert path.read_bytes() == _resnet_block_raw()
