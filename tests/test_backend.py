"""Backend dispatch: context-local selection, counting, and op-count parity.

Three claims pinned here:

1. Selection is *context-local* — concurrent threads on different backends
   never interfere (the InferenceSession thread-safety contract).
2. Every backend is *bit-identical* — Batched, Serial, and a Counting
   wrapper produce byte-for-byte equal ciphertext results, at the RnsPoly
   level and through the full encrypted pipeline.
3. Executed op counts *reconcile with the analytical trace model* — exact
   where engine and model count the same event (extractions, FBS ladder
   ops, the RNS-tier units of a known op mix), within documented bounded
   ratios where their conventions differ (the model assumes cached
   plaintext-NTT operands and hoisted rotations; the counts bill every
   fused op in the units of its decomposed reference, which transforms
   per op and streams keyswitches at full width).
"""

import threading
import time

import numpy as np
import pytest

from repro.core.framework import AthenaPipeline
from repro.core.program import lower
from repro.core.trace import compare_traces, executed_trace, trace_model
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
from repro.fhe.params import TEST_LOOP
from repro.fhe.poly import RnsPoly
from repro.perf import ExecConfig
from repro.quant.subjects import mnist_cnn_micro

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

    @pytest.mark.parametrize(
        "raw, want",
        [("", "batched"), ("  ", "batched"), ("Serial", "serial"),
         (" BATCHED\n", "batched")],
    )
    def test_default_backend_normalises_env(self, monkeypatch, raw, want):
        """REPRO_BACKEND is stripped, lower-cased, and empty means unset —
        the same rule ExecConfig.from_env applies."""
        monkeypatch.setenv("REPRO_BACKEND", raw)
        monkeypatch.setattr(backend_mod, "_DEFAULT", None)
        assert backend_mod.default_backend().name == want
        assert (ExecConfig.from_env().backend or "batched") == want

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

    def test_thread_map_propagates_selection(self):
        """ParallelMap's thread mode carries the caller's backend context
        into worker threads (one context copy per item)."""
        from repro.perf import ExecConfig, ParallelMap

        pmap = ParallelMap(ExecConfig("thread", workers=4))
        with use_backend("serial"):
            names = pmap.map(lambda _: current_backend().name, range(8))
        assert set(names) == {"serial"}


class TestProtocolConformance:
    #: Ops whose single body is engine-independent: mod_switch is a CRT
    #: lift; the LWE and composite tiers delegate to module
    #: implementations whose inner ops re-enter the active backend.
    #: (``matvec`` left this set when it became a fused op with two bodies.)
    SHARED = {"mod_switch", "sample_extract", "lwe_keyswitch", "lwe_rescale",
              "fbs", "s2c"}

    def test_fast_engine_and_wrapper_override_every_op(self):
        """Backend's bodies are the per-prime reference: an op the batched
        engine does not override runs silently slow, one the counting
        wrapper does not override runs uncounted."""
        ops = [
            name for name, value in vars(Backend).items()
            if callable(value) and not name.startswith("_")
            and name not in ("record", "phase")
        ]
        assert len(ops) == 21
        assert not hasattr(Backend, "kernel")
        assert [op for op in ops if op not in vars(CountingBackend)] == []
        assert [
            op for op in ops
            if op not in self.SHARED and op not in vars(BatchedBackend)
        ] == []


class TestRnsBitIdentity:
    """Batched == Serial == Counting(Batched) for every RnsPoly op."""

    BACKENDS = ("batched", "serial", "counting")

    def _resolve(self, name):
        return CountingBackend("batched") if name == "counting" else name

    @pytest.mark.parametrize(
        "op",
        [
            lambda a, b: a + b,
            lambda a, b: a - b,
            lambda a, b: -a,
            lambda a, b: a * b,
            lambda a, b: a.scalar_mul(12345),
            lambda a, b: a.automorphism(3),
            lambda a, b: a.negacyclic_shift(5),
        ],
    )
    def test_op_identical_across_backends(self, op):
        rng = np.random.default_rng(11)
        a, b = _random_poly(rng, TEST_LOOP), _random_poly(rng, TEST_LOOP)
        results = []
        for name in self.BACKENDS:
            with use_backend(self._resolve(name)):
                results.append(op(a, b).data)
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])

    def test_mod_switch_identical_across_backends(self):
        rng = np.random.default_rng(12)
        a = _random_poly(rng, TEST_LOOP)
        results = []
        for name in self.BACKENDS:
            with use_backend(self._resolve(name)):
                results.append(a.mod_switch(TEST_LOOP.lwe_q))
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])


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
        counting = CountingBackend("serial")
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
    return qm, lower(qm, TEST_LOOP), x_q


@pytest.mark.slow
class TestPipelineBitIdentity:
    def test_three_backends_identical_end_to_end(self):
        _, program, x_q = _mnist_fixture()
        outs = []
        for backend in (BatchedBackend(), SerialBackend(),
                        CountingBackend("batched")):
            pipe = AthenaPipeline(TEST_LOOP, seed=41, backend=backend)
            outs.append(pipe.run_program(program, x_q))
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])


@pytest.mark.slow
class TestMnistOpCountParity:
    """Executed vs analytical op counts on the end-to-end MNIST micro run.

    Bands document the known convention deltas (measured ratios in
    parentheses, executed/analytical):

    - ``ntt`` (6.65x; 12.01 under the base-2^14 gadget's 20 digits, 15.76
      while every giant-step pair of an FBS paid its own keyswitch, 20.45
      while packing rotated its secret on every request and S2C ran two
      passes): the model assumes cached plaintext-NTT operands,
      Halevi-Shoup hoisting and ``dnum`` = 3 grouped digits, billing ~zero
      NTTs to linear/packing/S2C; the counts bill the reference body, which
      transforms operands per op and keyswitches at one digit per limb
      (``dnum`` = L = 9 over L + 1 limbs). A billing convention, not what
      the batched engine does: its mat-vec stays in the evaluation domain
      and hoists every rotation of one ciphertext, so it *executes* 16 400
      limb transforms on this request, CMult tensors included (21 874
      under the gadget, 31 598 before the summed giant step), where the
      counts bill 53 640 (were 96 840, 127 080) and the model 8 064 — the
      executed side is pinned in tests/test_fused_kernels.py.
    - ``mod_mul`` (1.13x; was 1.76, 2.20, 2.76) / ``mod_add`` (1.46x; was
      2.21, 2.71, 3.38): the engine counts every limb stream at full width
      (keyswitch digit accumulation over Q u {P}, FBS ladder bookkeeping);
      the model keeps only the dominant terms. All three moved toward 1
      with the 28 giant-step keyswitches (2 LUTs x 14) the model never
      billed — it has always assumed one amortised relinearisation per
      accumulation group — and again when the executed keyswitch became
      the hybrid one the model has always billed (9 digits, not 20).
    - ``automorph`` (0.207x; 0.196 while a digit stack was permuted over L
      limbs rather than L + 1; was 0.509, band 0.25-1.0): the model bills
      per-digit keyswitch automorphisms — 14 rotations per packing and per
      S2C pass, the paper's Table-3 counts — where the engine folds each
      rotation into one permutation per component and now bills 22
      rotations on the whole run (57 before): packing's are paid once per
      key, S2C's giant steps once per group.
    - ``rnsconv`` (0.29x; was ~0.01 while only mod-switch data elements
      were counted): every keyswitch now bills its mod-down, 2 L N elements
      — the same term the model bills — and the rest of the gap is the
      CMult tensor's base conversions, which the engine does not count.
    """

    #: Re-pinned with the hybrid keyswitch, each where the ratio left its
    #: band: ntt (10.0, 40.0) -> (5.0, 10.0), mod_mul (1.5, 5.0) ->
    #: (1.0, 1.5), mod_add (1.5, 6.0) -> (1.2, 2.0); automorph unchanged.
    RATIO_BANDS = {
        "ntt": (5.0, 10.0),
        "mod_mul": (1.0, 1.5),
        "mod_add": (1.2, 2.0),
        "automorph": (0.1, 0.4),
    }

    def test_executed_vs_analytical(self):
        qm, program, x_q = _mnist_fixture()
        counting = CountingBackend("batched")
        pipe = AthenaPipeline(TEST_LOOP, seed=41)
        start = time.perf_counter()
        with use_backend(counting):
            pipe.run_program(program, x_q)
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
        assert 0.2 < comparison["rnsconv"]["ratio"] < 0.4  # was < 0.05

    def test_executed_trace_feeds_the_scheduler(self):
        """schedule_executed accepts a populated CountingBackend directly."""
        from repro.accel import ATHENA_ACCEL, schedule_executed

        _, program, x_q = _mnist_fixture()
        counting = CountingBackend("batched")
        pipe = AthenaPipeline(TEST_LOOP, seed=41)
        with use_backend(counting):
            pipe.run_program(program, x_q)
        result = schedule_executed(counting, TEST_LOOP, ATHENA_ACCEL)
        assert result.total_ms > 0
        phases = {p.phase for p in result.phases}
        assert {"linear", "se", "packing", "fbs", "s2c"} <= phases
