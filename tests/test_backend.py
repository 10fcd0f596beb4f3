"""Backend dispatch: context-local selection, counting, and op-count parity.

Three claims pinned here:

1. Selection is *context-local* — concurrent threads on different backends
   never interfere (the InferenceSession thread-safety contract).
2. Every backend is *bit-identical* — Batched, Serial, and the Counting
   recorder (the batched engine) produce byte-for-byte equal ciphertext
   results, at the RnsPoly level and through the full encrypted pipeline.
3. Executed op counts *reconcile with the analytical trace model* — exact
   where engine and model count the same event (extractions, FBS ladder
   ops, the RNS-tier units of a known op mix), within documented bounded
   ratios where their conventions differ (the model bills ``dnum`` = 3
   digits, per-digit rotations and no CMult-tensor conversions; a counted
   run records what the batched engine executes).
"""

import threading
import time

import numpy as np
import pytest

from repro.core.framework import AthenaPipeline
from repro.core.plan import compile_program
from repro.core.program import lower
from repro.core.trace import RUNTIME_PHASES, compare_traces, executed_trace, trace_model
from repro.errors import ParameterError
from repro.fhe import backend as backend_mod
from repro.fhe.backend import (
    Backend,
    BatchedBackend,
    CountingBackend,
    SerialBackend,
    current_backend,
    get_backend,
    use_backend,
)
from repro.fhe.ntt import negacyclic_mul_exact
from repro.fhe.params import TEST_LOOP, TEST_SMALL, TEST_TINY
from repro.fhe.poly import RnsPoly
from repro.fhe.rns import from_rns, rns_modulus, to_rns
from repro.quant.subjects import mnist_cnn_micro, resnet_block_micro
from tests.conftest import monomial_map

#: RNS op mix of one ResNet-20 residual block, scaled down.
_BLOCK_MIX = {"mul": 8, "add": 96, "scalar_mul": 96, "automorphism": 16}


def _random_poly(rng, params):
    return RnsPoly.from_int_coeffs(
        rng.integers(0, params.t, params.n).astype(np.int64), params.moduli
    )


class TestSelection:
    def test_get_backend_resolves_names_and_instances(self):
        assert get_backend("batched").name == "batched"
        assert get_backend("serial").name == "serial"
        inst = CountingBackend("batched")
        assert get_backend(inst) is inst
        assert isinstance(get_backend("counting"), CountingBackend)
        with pytest.raises(
            ParameterError, match=r"\['batched', 'counting', 'serial'\]"
        ):
            get_backend("gpu")

    def test_counting_counts_the_batched_engine_only(self):
        """The recorder is the batched engine: its one argument names that
        engine, and any other is refused, as ``compile_program`` refuses a
        missing tuning."""
        for engine in ("batched", get_backend("batched")):
            assert CountingBackend(engine).name == "batched"
        for engine in ("serial", get_backend("serial"), "counting"):
            with pytest.raises(ParameterError, match="batched engine"):
                CountingBackend(engine)

    @pytest.mark.parametrize(
        "raw, want",
        [("", "batched"), ("  ", "batched"), ("Serial", "serial"),
         (" BATCHED\n", "batched")],
    )
    def test_default_backend_normalises_env(self, monkeypatch, raw, want):
        """REPRO_BACKEND is stripped, lower-cased, and empty means unset."""
        monkeypatch.setenv("REPRO_BACKEND", raw)
        monkeypatch.setattr(backend_mod, "_DEFAULT", None)
        assert backend_mod.default_backend().name == want

    def test_use_backend_yields_and_restores(self):
        before = current_backend()
        with use_backend("serial") as be:
            assert be.name == "serial"
            assert current_backend() is be
        assert current_backend() is before

    def test_two_threads_use_different_backends_concurrently(self):
        """Regression: selection must be context-local, not process-global.

        Both threads sit *inside* their contexts at the same time (barrier),
        so a global toggle would make one of them observe the other's
        backend.
        """
        barrier = threading.Barrier(2)
        seen: dict[str, str] = {}

        def worker(name: str) -> None:
            with use_backend(name):
                barrier.wait(timeout=10)
                seen[name] = current_backend().name
                barrier.wait(timeout=10)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in ("serial", "batched")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert seen == {"serial": "serial", "batched": "batched"}


class TestProtocolConformance:
    #: Ops whose single body is engine-independent: the element-wise RNS
    #: ops are one pass against the (L, 1) modulus column; mod_switch is a
    #: CRT lift; cmult_batch and giant_step_batch run the dispatch-free
    #: tensor stages and leave the engine its keyswitch, adds and (the giant
    #: step's) product sum; the LWE and composite tiers delegate to module
    #: implementations whose inner ops re-enter the active backend.
    #: (``matvec`` left this set when it became a fused op with two bodies;
    #: ``rotate_keyswitch`` joined it when its batched twin went: production
    #: rotates inside ``matvec``, so only the slot-rotation oracle runs it.)
    SHARED = {"add", "sub", "neg", "scalar_mul", "automorphism", "shift",
              "mod_switch", "cmult_batch", "giant_step_batch", "sample_extract",
              "lwe_keyswitch", "lwe_rescale", "fbs", "s2c", "rotate_keyswitch"}

    #: The limb arithmetic tier.
    RNS_TIER = {"add", "sub", "neg", "mul", "ntt", "mul_ntt", "scalar_mul",
                "automorphism", "shift", "mod_switch"}

    def test_fast_engine_overrides_every_op_and_wrapper_only_the_rns_tier(self):
        """Outside the shared ops Backend's bodies are the reference (the
        per-prime transforms, the decomposed fused tier): an op the batched
        engine does not override runs silently slow, and a shared op it
        overrides is a twin body. The counting recorder is the batched
        engine and defines only the two hooks, no op: what it counts is what
        production runs."""
        hooks = {"record", "phase"}
        ops = {
            name for name, value in vars(Backend).items()
            if callable(value) and not name.startswith("_") and name not in hooks
        }
        assert len(ops) == 22
        assert self.RNS_TIER <= ops
        assert not hasattr(Backend, "kernel")
        assert CountingBackend.__bases__ == (BatchedBackend,)
        assert (ops | hooks) & set(vars(CountingBackend)) == hooks
        assert [
            op for op in sorted(ops)
            if op not in self.SHARED and op not in vars(BatchedBackend)
        ] == []
        assert self.SHARED <= ops and not self.SHARED & set(vars(BatchedBackend))


#: The RnsPoly ops of :class:`TestRnsBitIdentity`, each with its oracle on the
#: CRT lifts x, y mod Q; ``mul``, whose engines run different algorithms, has
#: none: its engines are compared with each other.
_POLY_OPS = [
    (lambda a, b: a + b, lambda x, y, q: [(u + v) % q for u, v in zip(x, y)]),
    (lambda a, b: a - b, lambda x, y, q: [(u - v) % q for u, v in zip(x, y)]),
    (lambda a, b: -a, lambda x, y, q: [-u % q for u in x]),
    (lambda a, b: a * b, None),
    (lambda a, b: a.scalar_mul(12345), lambda x, y, q: [u * 12345 % q for u in x]),
    (lambda a, b: a.automorphism(3), lambda x, y, q: monomial_map(x, 3, 0, q)),
    (lambda a, b: a.negacyclic_shift(5), lambda x, y, q: monomial_map(x, 1, 5, q)),
]


class TestRnsBitIdentity:
    """Batched == Serial == Counting(Batched) for every RnsPoly op, and the
    element-wise ones equal to integer arithmetic mod Q on the CRT lifts
    (they run one body on every engine: comparing engines alone compares
    that body with itself)."""

    BACKENDS = ("batched", "serial", "counting")

    def _resolve(self, name):
        return CountingBackend("batched") if name == "counting" else name

    @pytest.mark.parametrize("op", [op for op, _ in _POLY_OPS])
    def test_op_identical_across_backends(self, op):
        rng = np.random.default_rng(11)
        a, b = _random_poly(rng, TEST_LOOP), _random_poly(rng, TEST_LOOP)
        results = []
        for name in self.BACKENDS:
            with use_backend(self._resolve(name)):
                results.append(op(a, b).data)
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])
        oracle, moduli = dict(_POLY_OPS)[op], TEST_LOOP.moduli
        if oracle is not None:
            want = oracle(from_rns(a.data, moduli), from_rns(b.data, moduli), rns_modulus(moduli))
            assert np.array_equal(results[0], to_rns(want, moduli))

    #: Every RNS-tier op on raw residue stacks; ``b`` doubles as the
    #: evaluation-domain operand of ``mul_ntt``.
    RNS_OPS = {
        "add": lambda be, a, b, m: be.add(a, b, m),
        "sub": lambda be, a, b, m: be.sub(a, b, m),
        "neg": lambda be, a, b, m: be.neg(a, m),
        "mul": lambda be, a, b, m: be.mul(a, b, m),
        "ntt": lambda be, a, b, m: be.ntt(a, m),
        "mul_ntt": lambda be, a, b, m: be.mul_ntt(a, b, m),
        "scalar_mul": lambda be, a, b, m: be.scalar_mul(a, -12345, m),
        "automorphism": lambda be, a, b, m: be.automorphism(a, 3, m),
        "shift": lambda be, a, b, m: be.shift(a, 5, m),
        "shift_past_n": lambda be, a, b, m: be.shift(a, a.shape[-1] + 5, m),
    }

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["L_N", "2_L_N"])
    @pytest.mark.parametrize("op", sorted(RNS_OPS))
    def test_rns_tier_takes_stacks_on_both_engines(self, op, lead):
        """Limbs are axis -2 on both engines: an (L, N) call and a (2, L, N)
        stack agree across engines, and the stack equals one call per row."""
        params = TEST_SMALL
        col = np.array(params.moduli)[:, None]
        rng = np.random.default_rng(16)
        a, b = (rng.integers(0, col, lead + col.shape[:1] + (params.n,)) for _ in range(2))
        run = self.RNS_OPS[op]
        serial = run(get_backend("serial"), a.copy(), b.copy(), params.moduli)
        assert np.array_equal(serial, run(get_backend("batched"), a, b, params.moduli))
        if lead:
            rows = [run(get_backend("serial"), x, y, params.moduli) for x, y in zip(a, b)]
            assert np.array_equal(serial, np.stack(rows))

    def test_mod_switch_identical_across_backends(self):
        rng = np.random.default_rng(12)
        a = _random_poly(rng, TEST_LOOP)
        results = []
        for name in self.BACKENDS:
            with use_backend(self._resolve(name)):
                results.append(a.mod_switch(TEST_LOOP.lwe_q))
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])


class TestShift:
    """The one ``Backend.shift`` body, which both engines run, multiplies by
    X^shift for any integer shift, not only for 0 <= shift < 2N: equal to
    the integer negacyclic product by the monomial."""

    @pytest.mark.parametrize("shift", [(0, 0), (0, 3), (1, 0), (1, 3), (2, 3), (0, -3), (-1, -3)],
                             ids=["0", "3", "N", "N+3", "2N+3", "-3", "-N-3"])
    def test_shift_is_the_monomial_product(self, shift):
        params = TEST_TINY
        n = params.n
        amount = shift[0] * n + shift[1]
        a = np.random.default_rng(17).integers(0, params.t, n)
        # X^amount as a coefficient vector: X^(N + r) = -X^r, X^(2N) = 1.
        mono = np.zeros(n, dtype=np.int64)
        mono[amount % n] = -1 if amount % (2 * n) >= n else 1
        want = RnsPoly.from_int_coeffs(negacyclic_mul_exact(list(a), list(mono)), params.moduli)
        poly = RnsPoly.from_int_coeffs(a, params.moduli)
        got = current_backend().shift(poly.data, amount, params.moduli)
        assert np.array_equal(got, want.data)


class TestElementwiseOracle:
    """The element-wise RNS ops have one body for both engines; its oracle is
    integer arithmetic mod Q on the CRT lifts (``shift``'s is
    :class:`TestShift`)."""

    #: op -> (its run on raw residue stacks, its exact form on the lifts x, y
    #: of a, b): every input the engine comparisons once used.
    ORACLES = {
        "add": (TestRnsBitIdentity.RNS_OPS["add"],
                lambda x, y, q: [(u + v) % q for u, v in zip(x, y)]),
        "sub": (TestRnsBitIdentity.RNS_OPS["sub"],
                lambda x, y, q: [(u - v) % q for u, v in zip(x, y)]),
        "neg": (TestRnsBitIdentity.RNS_OPS["neg"], lambda x, y, q: [-u % q for u in x]),
        "scalar_mul": (TestRnsBitIdentity.RNS_OPS["scalar_mul"],
                       lambda x, y, q: [u * -12345 % q for u in x]),
        "scalar_mul_positive": (lambda be, a, b, m: be.scalar_mul(a, 12345, m),
                                lambda x, y, q: [u * 12345 % q for u in x]),
        "automorphism": (TestRnsBitIdentity.RNS_OPS["automorphism"],
                         lambda x, y, q: monomial_map(x, 3, 0, q)),
        "automorphism_2n_minus_1": (
            lambda be, a, b, m: be.automorphism(a, 2 * a.shape[-1] - 1, m),
            lambda x, y, q: monomial_map(x, 2 * len(x) - 1, 0, q)),
    }

    @pytest.mark.parametrize("op", sorted(ORACLES))
    def test_op_is_integer_arithmetic_mod_q(self, op):
        moduli = TEST_SMALL.moduli
        rng = np.random.default_rng(18)
        a, b = (rng.integers(0, np.array(moduli)[:, None], (len(moduli), TEST_SMALL.n))
                for _ in range(2))
        x, y, q = from_rns(a, moduli), from_rns(b, moduli), rns_modulus(moduli)
        run, oracle = self.ORACLES[op]
        got = run(get_backend("serial"), a, b, moduli)
        assert np.array_equal(got, to_rns(oracle(x, y, q), moduli))


class TestCountingBackend:
    def test_rns_unit_conventions(self):
        """One of each RNS-tier op lands the trace model's primitive units."""
        params = TEST_LOOP
        l, n = len(params.moduli), params.n
        rng = np.random.default_rng(13)
        a, b = _random_poly(rng, params), _random_poly(rng, params)
        counting = CountingBackend("batched")
        with use_backend(counting):
            _ = a * b
            _ = a + b
            _ = a.scalar_mul(3)
            _ = a.automorphism(3)
        ops = counting.totals()
        assert ops["ntt"] == 3 * l            # fwd x2 + inv, one per limb
        assert ops["mod_mul"] == 2 * l * n    # pointwise product + scalar
        assert ops["mod_add"] == l * n        # elementwise addition
        assert ops["automorph"] == l          # one permutation per limb

    def test_stacked_calls_keep_engines_identical_and_units_stated(self):
        """Leading axes batch on both engines (a plan's diagonal stack, a
        rotation's digit stack): ``ntt`` bills every limb transform,
        ``automorph`` one index map per limb per call."""
        params = TEST_LOOP
        l, n = len(params.moduli), params.n
        stack = np.random.default_rng(15).integers(
            0, min(params.moduli), (5, l, n), dtype=np.int64)
        counting = CountingBackend("batched")
        for op, args in (("ntt", ()), ("automorphism", (3,))):
            got = getattr(counting, op)(stack, *args, params.moduli)
            fast = getattr(get_backend("batched"), op)(stack, *args, params.moduli)
            assert np.array_equal(got, fast)
            for row, want in zip(stack, got):  # == one (L, N) call per row
                assert np.array_equal(
                    getattr(get_backend("serial"), op)(row, *args, params.moduli), want)
        assert counting.totals() == {"ntt": 5 * l, "automorph": l}

    def test_phase_attribution_and_reset(self):
        rng = np.random.default_rng(14)
        a, b = _random_poly(rng, TEST_LOOP), _random_poly(rng, TEST_LOOP)
        counting = CountingBackend("batched")
        with use_backend(counting):
            _ = a + b                       # outside any phase
            with counting.phase("linear"):
                _ = a * b
        by_phase = counting.ops_by_phase()
        assert by_phase["other"]["mod_add"] > 0
        assert by_phase["linear"]["ntt"] > 0
        summary = counting.summary()
        assert set(summary) == {"backend", "phase_ops", "phase_s", "ops"}
        assert summary["backend"] == "batched"
        assert set(summary["phase_s"]) == {"linear"}  # unphased time: unattributed
        counting.reset()
        assert counting.ops_by_phase() == {}
        assert counting.totals() == {}
        assert counting.summary()["phase_s"] == {}

    def test_nested_phase_pauses_its_parent(self):
        """Self-seconds: labels are disjoint, so they sum to <= the wall."""
        counting = CountingBackend("batched")
        start = time.perf_counter()
        with counting.phase("fbs"):
            time.sleep(0.02)
            with counting.phase("fbs_giant"):
                time.sleep(0.03)
            time.sleep(0.01)
        wall = time.perf_counter() - start
        seconds = counting.phase_s
        assert seconds["fbs"] >= 0.03 and seconds["fbs_giant"] >= 0.03
        assert seconds["fbs"] + seconds["fbs_giant"] <= wall


class TestBlockMixParity:
    """The ResNet-20 block op mix: executed RNS units match the analytic
    per-op costs *exactly* (no modelling conventions involved)."""

    def test_counts_match_mix_analytics(self):
        params = TEST_LOOP
        l, n = len(params.moduli), params.n
        rng = np.random.default_rng(7)
        a, b = _random_poly(rng, params), _random_poly(rng, params)
        counting = CountingBackend("batched")
        with use_backend(counting):
            x, y = a, b
            for _ in range(_BLOCK_MIX["mul"]):
                x = x * y
            for _ in range(_BLOCK_MIX["add"]):
                x = x + y
            for _ in range(_BLOCK_MIX["scalar_mul"]):
                x = x.scalar_mul(3)
            for k in range(_BLOCK_MIX["automorphism"]):
                x = x.automorphism(2 * k + 3)
        ops = counting.totals()
        assert ops["ntt"] == 3 * l * _BLOCK_MIX["mul"]
        assert ops["mod_mul"] == (
            (_BLOCK_MIX["mul"] + _BLOCK_MIX["scalar_mul"]) * l * n
        )
        assert ops["mod_add"] == _BLOCK_MIX["add"] * l * n
        assert ops["automorph"] == _BLOCK_MIX["automorphism"] * l


def _mnist_fixture():
    rng = np.random.default_rng(5)
    qm = mnist_cnn_micro(rng)
    x_q = rng.integers(-3, 4, (1, 6, 6)).astype(np.int64)
    return qm, compile_program(lower(qm, TEST_LOOP), TEST_LOOP), x_q


@pytest.mark.slow
class TestPipelineBitIdentity:
    def test_three_backends_identical_end_to_end(self):
        _, plan, x_q = _mnist_fixture()
        outs = []
        for backend in (BatchedBackend(), SerialBackend(),
                        CountingBackend("batched")):
            with use_backend(backend):
                pipe = AthenaPipeline(TEST_LOOP, seed=41)
                outs.append(pipe.run(plan, x_q))
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])


@pytest.mark.slow
class TestMnistOpCountParity:
    """Executed vs analytical op counts on the end-to-end MNIST micro run.

    Bands document the known convention deltas (measured ratios in
    parentheses, executed/analytical). A counted run is the batched
    engine's run, so every executed count below is work production does
    (earlier ratios, while a counted run executed the reference bodies over
    the batched RNS tier, after the semicolons):

    - ``ntt`` (1.39x; 1.47 counting the reference stream, 2.01 while S2C
      ran the dense plan at every round, 6.65 at one digit per limb, 12.01
      under the base-2^14 gadget's 20 digits, 15.76 while every giant-step
      pair of an FBS paid its own keyswitch, 20.45 while packing rotated its
      secret on every request and S2C ran two passes): the model assumes
      cached plaintext-NTT operands, Halevi-Shoup hoisting and ``dnum`` = 3
      grouped digits, billing ~zero NTTs to linear/packing/S2C; the engine
      keeps the mat-vec in the evaluation domain and hoists every rotation
      of one ciphertext, but enters each CMult operand into Q u aux and
      leaves each tensor through it (two and three rows of L + 9 limbs). It
      records 11 177 limb transforms on this request's runtime phases (the
      reference stream recorded 11 880, 16 200 at one digit per limb,
      53 640, 96 840, 127 080) where the model bills 8 064.
    - ``mod_mul`` (0.83x; 0.53, 0.62, 1.13, 1.76, 2.20, 2.76) / ``mod_add``
      (0.78x; 0.74, 0.86, 1.46, 2.21, 2.71, 3.38): the engine counts every
      stream at full width — the CMult tensor's four products a pair over
      Q u aux, the keyswitch's key products over Q u P, the baby steps'
      dense matrix product (a zero coefficient is a product too); the model
      keeps only the dominant terms and bills ``2 dnum L N`` per keyswitch
      at ``dnum`` = 3, more than the one digit over 2 L limbs the toy set
      executes.
    - ``automorph`` (0.134x; 0.134, 0.295 with the dense S2C, 0.207 while a
      digit stack was permuted over L + 1 limbs rather than 2 L, 0.196 over
      L; was 0.509, band 0.25-1.0): the model bills per-digit keyswitch
      automorphisms — 14 rotations per packing and per S2C pass, the
      paper's Table-3 counts — where the engine gathers each hoisted image
      once over its digits and its c0 and bills 10 rotations on the whole
      run: packing's are paid once per key, S2C's giant steps once per
      group, and the conv round's 32 rows return through one pass of 32
      diagonals.
    - ``rnsconv`` (1.30x; 0.36 while the CMult tensor's conversions went
      uncounted, 0.41 with the dense S2C, 0.29 while only the mod-downs were
      billed, ~0.01 while only mod-switch data elements were counted): every
      base extension bills its outputs — each keyswitch's mod-up D (L + K)
      - L and mod-downs 2 L N, each CMult operand's extension into aux,
      each tensor's scale-round through aux and back to Q, and the
      mod-switch's two one-row extensions — where the model bills the
      keyswitch mod-downs only.
    """

    #: Re-pinned when the counted stream became the batched engine's, each
    #: around its new ratio: ntt (1.2, 4.0) -> (1.2, 2.0), mod_mul (0.4, 1.0)
    #: -> (0.6, 1.1), rnsconv (0.3, 0.6) -> (1.0, 1.6); mod_add and
    #: automorph unchanged. (The grouped digit moved them from (5.0, 10.0),
    #: (1.0, 1.5) and (1.2, 2.0); the hybrid keyswitch from (10, 40),
    #: (1.5, 5) and (1.5, 6).)
    RATIO_BANDS = {
        "ntt": (1.2, 2.0),
        "mod_mul": (0.6, 1.1),
        "mod_add": (0.6, 1.2),
        "automorph": (0.1, 0.4),
        "rnsconv": (1.0, 1.6),
    }

    def test_executed_vs_analytical(self):
        qm, plan, x_q = _mnist_fixture()
        counting = CountingBackend("batched")
        pipe = AthenaPipeline(TEST_LOOP, seed=41)
        start = time.perf_counter()
        with use_backend(counting):
            pipe.run(plan, x_q)
        wall = time.perf_counter() - start

        # The Fig. 9 breakdown: every runtime label timed, labels disjoint.
        seconds = counting.phase_s
        assert {"linear", "se", "packing", "fbs", "s2c"} <= set(seconds)
        assert all(s >= 0 for s in seconds.values())
        assert sum(seconds.values()) <= wall

        # Event-level pins: the ops the three five-step rounds dispatch
        # (conv round + two FC-sized rounds at TEST_LOOP).
        ops = counting.ops_by_phase()
        assert ops["linear"]["pmult"] == 2
        assert ops["se"]["extract"] == 35
        # Two full-domain LUTs of 28 ladder + 15 combination CMults each: a
        # relinearisation per ladder CMult and one per LUT, whose result
        # joins 2 parts where one product per group joined 16 (hadd was 367).
        assert ops["fbs"]["smult"] == 369 and ops["fbs"]["hadd"] == 339
        assert ops["fbs_giant"]["cmult"] == 86
        assert ops["fbs_giant"]["keyswitch"] == 58

        executed = executed_trace(counting, TEST_LOOP)
        analytical = trace_model(qm, TEST_LOOP, softmax=False)
        comparison = compare_traces(executed, analytical)

        # Extractions are counted identically on both sides: exact parity.
        row = comparison["extract"]
        assert row["executed"] == row["analytical"] == 35
        assert row["ratio"] == 1.0

        for prim, (lo, hi) in self.RATIO_BANDS.items():
            ratio = comparison[prim]["ratio"]
            assert ratio is not None and lo <= ratio <= hi, (prim, ratio)

    def test_executed_trace_feeds_the_scheduler(self):
        """A populated CountingBackend's executed trace schedules directly."""
        from repro.accel import ATHENA_ACCEL, schedule
        from repro.core.trace import executed_trace

        _, plan, x_q = _mnist_fixture()
        counting = CountingBackend("batched")
        pipe = AthenaPipeline(TEST_LOOP, seed=41)
        with use_backend(counting):
            pipe.run(plan, x_q)
        result = schedule(executed_trace(counting, TEST_LOOP), ATHENA_ACCEL)
        assert result.total_ms > 0
        phases = {p.phase for p in result.phases}
        assert {"linear", "se", "packing", "fbs", "s2c"} <= phases


class TestResidualJoinIsTraced:
    def test_a_counted_residual_run_records_only_kept_phases(self):
        """The join ``main + alpha * skip`` is billed to ``linear``, where the
        analytical trace bills it: every phase a counted run records is one
        an executed trace keeps, or one of the request-invariant three."""
        rng = np.random.default_rng(5)
        qm = resnet_block_micro(rng)
        x_q = rng.integers(-2, 3, qm.input_shape).astype(np.int64)
        counting = CountingBackend()
        with use_backend(counting):
            plan = compile_program(lower(qm, TEST_LOOP), TEST_LOOP)
            AthenaPipeline(TEST_LOOP, seed=7).run(plan, x_q)
        ops = counting.ops_by_phase()
        assert set(ops) <= set(RUNTIME_PHASES) | {"compile", "keygen", "other"}
        assert ops["linear"]["hadd"] == 1  # the join: one ciphertext add
