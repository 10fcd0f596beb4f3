"""Tests for the wire formats (ciphertexts, LWE batches, secret keys)."""

import struct

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.fhe import serialize
from repro.fhe.bfv import Plaintext
from repro.fhe.lwe import LweBatch
from repro.fhe.params import TEST_SMALL, TEST_TINY


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
        with pytest.raises(ParameterError, match="trailing"):
            load(raw + b"\x00")

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
        flipped = bytearray(raw)
        flipped[26] = 0xFF  # first byte of the plan name: not valid UTF-8
        with pytest.raises(ParameterError, match="corrupt string"):
            load(bytes(flipped))


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
    """The v3 plan format: tuning config on the wire, per-step overrides
    honored at load, and layout-bearing steps elided as recompile stubs."""

    def _micro_program(self):
        from repro.core.program import lower
        from repro.fhe.params import TEST_LOOP
        from repro.quant.subjects import mnist_cnn_micro

        return lower(mnist_cnn_micro(np.random.default_rng(5)), TEST_LOOP)

    def test_tuning_survives_round_trip(self):
        from repro.core.lowering import StepEncodingChoice, TuningConfig
        from repro.core.plan import compile_program
        from repro.fhe.params import TEST_LOOP

        tuning = TuningConfig(
            (("qconv0", StepEncodingChoice(chunk=32, bsgs=4)),))
        plan = compile_program(
            self._micro_program(), TEST_LOOP, chunk=16, tuning=tuning)
        loaded = serialize.load_plan(serialize.dump_plan(plan), TEST_LOOP)
        assert loaded.tuning is not None
        assert loaded.tuning.tag() == tuning.tag()
        assert loaded.model_hash == plan.model_hash

    def test_per_step_overrides_honored_at_load(self):
        from repro.core.lowering import StepEncodingChoice, TuningConfig
        from repro.core.plan import compile_program
        from repro.fhe.params import TEST_LOOP

        tuning = TuningConfig(
            (("qconv0", StepEncodingChoice(chunk=32, bsgs=4)),))
        plan = compile_program(
            self._micro_program(), TEST_LOOP, chunk=16, tuning=tuning)
        loaded = serialize.load_plan(serialize.dump_plan(plan), TEST_LOOP)
        conv = loaded.steps[0]
        # The chunk opt-out keeps the round single-tile despite the global
        # chunk=16; the BSGS override reaches the rebuilt FBS schedule.
        assert conv.tiles is None
        assert conv.fbs.bs == 4
        assert loaded.needs_upgrade() is False

    def test_untuned_plan_has_no_tuning(self):
        from repro.core.plan import compile_program
        from repro.fhe.params import TEST_LOOP

        plan = compile_program(self._micro_program(), TEST_LOOP)
        loaded = serialize.load_plan(serialize.dump_plan(plan), TEST_LOOP)
        assert loaded.tuning is None

    def test_layout_bearing_steps_become_stubs(self):
        from repro.core.plan import compile_program
        from repro.core.program import lower
        from repro.fhe.params import TEST_LOOP
        from repro.quant.subjects import resnet_block_micro

        program = lower(
            resnet_block_micro(np.random.default_rng(5)), TEST_LOOP)
        plan = compile_program(program, TEST_LOOP)
        loaded = serialize.load_plan(serialize.dump_plan(plan), TEST_LOOP)
        kinds = [s.kind for s in loaded.steps]
        assert kinds == [s.kind for s in plan.steps]
        # The residual (and the placed-packing stem feeding it) cannot be
        # fully captured on the wire; they come back as recompile stubs.
        stubs = [getattr(s, "stub", False) for s in loaded.steps]
        assert stubs[1] is True  # the residual join
        assert loaded.needs_upgrade() is True
        # The plain tail FC round-trips in full.
        assert stubs[-1] is False

    def test_truncated_plan_rejected(self):
        from repro.core.plan import compile_program
        from repro.core.program import lower
        from repro.fhe.params import TEST_LOOP
        from repro.quant.subjects import resnet_block_micro

        program = lower(  # stub steps and a full linear payload in one plan
            resnet_block_micro(np.random.default_rng(5)), TEST_LOOP)
        raw = serialize.dump_plan(compile_program(program, TEST_LOOP))
        _assert_every_prefix_rejected(
            raw, lambda b: serialize.load_plan(b, TEST_LOOP))

    @pytest.mark.slow
    def test_stub_upgrade_runs_bit_identical(self):
        """A loaded stub-bearing plan recompiles in the executor and then
        produces byte-identical outputs to the original in-memory plan."""
        from repro.core.framework import AthenaPipeline
        from repro.core.plan import compile_program
        from repro.core.program import lower
        from repro.fhe.params import TEST_LOOP
        from repro.quant.subjects import resnet_block_micro

        rng = np.random.default_rng(5)
        qm = resnet_block_micro(rng)
        program = lower(qm, TEST_LOOP)
        x_q = rng.integers(-2, 3, (1, 6, 6)).astype(np.int64)

        plan = compile_program(program, TEST_LOOP)
        want = AthenaPipeline(TEST_LOOP, seed=7).run_program(
            program, x_q, plan=plan)

        loaded = serialize.load_plan(serialize.dump_plan(plan), TEST_LOOP)
        assert loaded.needs_upgrade()
        got = AthenaPipeline(TEST_LOOP, seed=7).run_program(
            program, x_q, plan=loaded)
        assert np.array_equal(got, want)
