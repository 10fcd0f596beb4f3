"""The four workloads: set-up, first operation, timed loop, output check.

Every workload object has the same life cycle — ``setup()`` (until it
could serve), ``warm_up()`` (its first operation, checked but untimed),
``measure(seconds)`` and ``close()`` — so the runner, the set-up probes and
``cold_start`` (whose *operation* is another workload's set-up in a fresh
process) share one code path. End-to-end numbers never see a wrapper
backend or a ``PerfRecorder``; the traced pass lives in ``tracing.py``.
"""

from __future__ import annotations

import asyncio
import copy
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import subjects
from calib import calibrate
from repro.core.program import lower
from repro.core.tune import tune_program
from repro.fhe.params import TEST_FBS, TEST_LOOP, FheParams
from repro.fhe.serialize import dump_plan
from repro.perf import ExecConfig
from repro.serve import (
    AthenaService,
    InferenceRequest,
    InferenceSession,
    ShardedPlanCache,
    Tenant,
    TenantRegistry,
)

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

#: Keygen seed of every session and tenant. ``--seed`` draws inputs only.
KEY_SEED = 41
#: Passed explicitly everywhere so ``REPRO_BACKEND`` cannot change what is
#: measured.
BACKEND = "batched"
#: Set-ups per run (this process plus ``SETUPS - 1`` fresh probe processes);
#: ``setup_s`` is their median.
SETUPS = 3
#: ... and for ``cold_start``, whose own set-up is a third of a second.
COLD_START_SETUPS = 7
#: The first operations whose outputs go into the output digest: a fixed
#: prefix, because a run measures for a time, not for a count.
DIGEST_OPS = 2

ROUND_REQUESTS = 20
CLIENTS = 4


@dataclass(frozen=True)
class Subject:
    build: object
    params: FheParams
    #: Largest |output - forward_int| that still counts as correct.
    tolerance: int


SUBJECTS = {
    # Worst-case refresh noise through the last linear layer.
    "infer_wide": Subject(subjects.wide_cnn, TEST_LOOP, 8),
    "infer_narrow": Subject(subjects.narrow_block, TEST_LOOP, 4),
    # Bit-exact by construction (see subjects.packed_cnn).
    "serve_packed": Subject(subjects.packed_cnn, TEST_FBS, 0),
    "cold_start": Subject(subjects.wide_cnn, TEST_LOOP, 8),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checker:
    """Counts operations and failures; digests a fixed prefix of outputs.

    An operation fails if it raises, is shed (``ServiceOverloaded`` is an
    exception like any other here), or misses plaintext ``forward_int`` by
    more than the workload's tolerance.
    """

    def __init__(self, tolerance: int):
        self.tolerance = tolerance
        self.attempted = 0
        self.failed = 0
        self.max_abs_err = 0
        self._digest = hashlib.sha256()
        self._digested = 0

    def check(self, output, reference) -> bool:
        """Count one answered operation; True when it is correct."""
        self.attempted += 1
        output = np.asarray(output, dtype=np.int64).reshape(-1)
        reference = np.asarray(reference, dtype=np.int64).reshape(-1)
        if self._digested < DIGEST_OPS:
            self._digest.update(output.tobytes())
            self._digested += 1
        if output.shape != reference.shape:
            self.failed += 1
            return False
        err = int(np.abs(output - reference).max())
        self.max_abs_err = max(self.max_abs_err, err)
        if err > self.tolerance:
            self.failed += 1
            return False
        return True

    def accept(self) -> bool:
        """Count one operation that has no output of its own and was verified
        by other means (``cold_start``: the plan's SHA-256)."""
        self.attempted += 1
        return True

    def error(self, exc: BaseException) -> bool:
        """Count one operation that raised or was shed."""
        self.attempted += 1
        self.failed += 1
        print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False

    def call(self, fn, reference) -> bool:
        """Run ``fn`` and check its output; an exception is a failure."""
        try:
            output = fn()
        except Exception as exc:  # noqa: BLE001 - the boundary that counts failures
            return self.error(exc)
        return self.check(output, reference)

    def digest(self) -> str:
        return self._digest.hexdigest()


class Inputs:
    """A seeded, endless stream of (input, plaintext reference) pairs."""

    def __init__(self, qm, seed: int):
        # A plaintext copy: forward_int tracks MAC peaks on the model it runs.
        self.plain = copy.deepcopy(qm)
        self._draw = subjects.input_stream(qm, seed)

    def take(self, count: int) -> list[tuple[np.ndarray, np.ndarray]]:
        xs = np.stack([next(self._draw) for _ in range(count)])
        refs = self.plain.forward_int(xs)
        return [(x, ref.reshape(-1)) for x, ref in zip(xs, refs)]


@dataclass
class Samples:
    """What a timed loop collects: one row per operation or round."""

    #: Per-operation latency in calibration units.
    latency_cu: list[float] = field(default_factory=list)
    #: Per round: (correct operations, wall in calibration units).
    rounds: list[tuple[int, float]] = field(default_factory=list)
    latency_s: list[float] = field(default_factory=list)
    calib_s: list[float] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def bracketed(self, fn):
        """Run ``fn`` between two calibrations.

        Returns ``(result, wall_s, unit_s)``: the unit for anything timed
        inside ``fn`` is the mean of the calibrations on either side of it
        (each calibration also closes the previous bracket)."""
        if not self.calib_s:
            self.calib_s.append(calibrate())
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        self.calib_s.append(calibrate())
        return result, wall, (self.calib_s[-2] + self.calib_s[-1]) / 2.0

    def add(self, timed: list[tuple[float, float]], correct: int, wall_cu: float) -> None:
        """One round: ``timed`` pairs each latency with its unit, both in s."""
        self.latency_s.extend(latency for latency, _ in timed)
        self.latency_cu.extend(latency / unit for latency, unit in timed)
        self.rounds.append((correct, wall_cu))

    def goodput(self) -> float:
        """Correct operations per calibration unit of wall, over all rounds."""
        return sum(c for c, _ in self.rounds) / sum(w for _, w in self.rounds)


def _repeat(seconds: float, one_round) -> None:
    """Call ``one_round(index)`` for ``seconds``, at least twice."""
    start = time.perf_counter()
    rounds = 0
    while rounds < 2 or time.perf_counter() - start < seconds:
        one_round(rounds)
        rounds += 1


class Workload:
    """Life cycle shared by the four workloads (see the module docstring)."""

    setups = SETUPS

    def __init__(self, name: str, seed: int):
        self.subject = SUBJECTS[name]
        self.seed = seed
        #: Seconds per set-up stage, for the ``info`` block and the probes.
        self.stages: dict[str, float] = {}
        self.checker = Checker(self.subject.tolerance)

    def warm_up(self) -> None:
        """The first operation: checked, not timed."""

    def report(self) -> dict:
        """What a probe process tells its parent about this set-up."""
        return {"stages": self.stages}

    def rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        pass


# -- infer_wide / infer_narrow ----------------------------------------------------


class InferWorkload(Workload):
    """Closed loop, one client: warm ``InferenceSession.run`` calls."""

    def __init__(self, name: str, seed: int, backend=BACKEND,
                 cache_dir: str | None = None):
        super().__init__(name, seed)
        self.backend = backend
        self.cache_dir = cache_dir
        self.first_output: np.ndarray | None = None

    def _stage(self, name: str, start: float) -> float:
        now = time.perf_counter()
        self.stages[name] = now - start
        return now

    def setup(self) -> None:
        params = self.subject.params
        t = time.perf_counter()
        self.qm = self.subject.build()
        t = self._stage("build_s", t)
        program = lower(self.qm, params)
        t = self._stage("lower_s", t)
        tuned = tune_program(program, params)
        t = self._stage("tune_s", t)
        self.cache = ShardedPlanCache(self.cache_dir) if self.cache_dir else None
        # InferenceSession = SessionCore.build (plan-cache lookup, compile,
        # persist) + SessionRuntime (keygen).
        self.session = InferenceSession(
            program, params, seed=KEY_SEED, cache=self.cache,
            backend=self.backend, tuning=tuned.tuning,
        )
        self.stages["core_build_s"] = self.session.compile_s
        self.stages["keygen_s"] = self.session.runtime.keygen_s
        self.inputs = Inputs(self.qm, self.seed)

    def op(self, x: np.ndarray) -> np.ndarray:
        return self.session.run(x)

    def warm_up(self) -> None:
        (x, ref), = self.inputs.take(1)

        def first() -> np.ndarray:
            self.first_output = self.op(x)
            return self.first_output

        self.checker.call(first, ref)

    def measure(self, seconds: float) -> Samples:
        samples = Samples()

        def one_round(_):
            (x, ref), = self.inputs.take(1)
            ok, wall, unit = samples.bracketed(
                lambda: self.checker.call(lambda: self.op(x), ref))
            samples.add([(wall, unit)], int(ok), wall / unit)

        _repeat(seconds, one_round)
        return samples

    def report(self) -> dict:
        return {
            "stages": self.stages,
            "output": None if self.first_output is None
            else [int(v) for v in self.first_output],
            "plan_sha256": hashlib.sha256(dump_plan(self.session.plan)).hexdigest(),
            "cache": self.cache.stats() if self.cache is not None else None,
        }


# -- serve_packed -----------------------------------------------------------------


class ServeWorkload(Workload):
    """``AthenaService``: two tenants in one key domain, lane packing on,
    one thread worker; closed loop of four coroutine clients (two per
    tenant) on the one event-loop thread, in rounds of twenty requests."""

    MODEL = "packed"
    TENANTS = ("tenant0", "tenant1")

    def __init__(self, name: str, seed: int, backend=BACKEND):
        super().__init__(name, seed)
        self.backend = backend
        #: (client-observed latency, InferenceResult) of every answered request.
        self.results: list = []

    def setup(self) -> None:
        t = time.perf_counter()
        self.qm = self.subject.build()
        self.service = AthenaService(
            TenantRegistry(
                Tenant(tid, self.subject.params, seed=KEY_SEED)
                for tid in self.TENANTS
            ),
            cache=ShardedPlanCache(None),
            exec_config=ExecConfig("thread", 1, backend=self.backend),
            queue_capacity=ROUND_REQUESTS,
            transport_s=0.0,
            batching=True,
            batch_window_s=0.05,
        )
        self.service.register_model(self.MODEL, self.qm)
        self.stages["register_s"] = time.perf_counter() - t
        t = time.perf_counter()
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self.service.start())
        self.stages["start_s"] = time.perf_counter() - t
        self.inputs = Inputs(self.qm, self.seed)

    async def _request(self, client: int, x):
        """One client-observed ``submit``: (latency, result or exception)."""
        request = InferenceRequest(self.TENANTS[client % 2], self.MODEL, x)
        start = time.perf_counter()
        try:
            answer = await self.service.submit(request)
        except Exception as exc:  # noqa: BLE001 - shed or failed: counted below
            answer = exc
        return time.perf_counter() - start, answer

    def _settle(self, answers, refs) -> list[float]:
        """Check a round's answers in request order (completion order is
        timing-dependent; the output digest must not be)."""
        for (latency, answer), ref in zip(answers, refs):
            if isinstance(answer, Exception):
                self.checker.error(answer)
            else:
                self.checker.check(answer.output, ref)
                self.results.append((latency, answer))
        return [latency for latency, _ in answers]

    def warm_up(self) -> None:
        (x, ref), = self.inputs.take(1)
        self._settle([self.loop.run_until_complete(self._request(0, x))], [ref])

    async def _round(self, xs) -> list:
        per_client = len(xs) // CLIENTS

        async def client(c: int) -> list:
            mine = xs[c * per_client:(c + 1) * per_client]
            return [await self._request(c, x) for x in mine]

        nested = await asyncio.gather(*(client(c) for c in range(CLIENTS)))
        return [answer for answers in nested for answer in answers]

    def one_round(self):
        """Twenty requests; ``(latencies_s, correct, wall_s)``."""
        batch = self.inputs.take(ROUND_REQUESTS)
        failed_before = self.checker.failed
        start = time.perf_counter()
        answers = self.loop.run_until_complete(self._round([x for x, _ in batch]))
        wall = time.perf_counter() - start
        latencies = self._settle(answers, [ref for _, ref in batch])
        correct = ROUND_REQUESTS - (self.checker.failed - failed_before)
        return latencies, correct, wall

    def measure(self, seconds: float) -> Samples:
        samples = Samples()

        def one_round(_):
            (latencies, correct, wall), _, unit = samples.bracketed(self.one_round)
            samples.add([(lat, unit) for lat in latencies], correct, wall / unit)

        _repeat(seconds, one_round)
        batcher = self.service.stats().detail["batcher"]
        samples.info["occupancy_mean"] = batcher["detail"]["occupancy_mean"]
        return samples

    def close(self) -> None:
        self.loop.run_until_complete(self.service.stop())
        self.loop.close()


# -- cold_start -------------------------------------------------------------------


def run_probe(workload: str, seed: int, cache_dir: str | None = None,
              ready_only: bool = False) -> dict:
    """Set ``workload`` up and run its first operation in a fresh process
    (``ready_only``: stop once it could serve).

    Returns the child's report: its stage times, ``ready_s`` and ``setup_s``
    (process start to able-to-serve / to first answer, on its own clock),
    its peak RSS, and for a session its first output, plan SHA-256 and
    plan-cache counters."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", workload,
           "--seed", str(seed)]
    if cache_dir is not None:
        cmd += ["--cache-dir", cache_dir]
    if ready_only:
        cmd.append("--ready-only")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"probe {workload} exited {done.returncode}: "
                           f"{done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class ColdStartWorkload(Workload):
    """Each operation is a fresh process that sets the ``infer_wide`` subject
    up and stops once it could serve, timed on its own clock. They come in
    pairs on one on-disk plan cache: the first finds it empty (miss, compile,
    persist), the second restarts on it (disk hit, ``load_plan``) and must
    report the same plan SHA-256. The restart of the first pair also answers
    one request, checked against ``forward_int``; every later start is
    verified by loading byte-for-byte that plan. Both kinds are samples of
    one latency — they differ by a compile against a load, under 5 % — so a
    run has a dozen samples, not half a dozen."""

    PROBED = "infer_wide"
    setups = COLD_START_SETUPS

    def __init__(self, name: str, seed: int):
        super().__init__(name, seed)
        self.child_rss_mb = 0.0
        self.cycles: list[dict] = []
        self.plan_sha256: str | None = None

    def setup(self) -> None:
        t = time.perf_counter()
        self.qm = self.subject.build()
        self.inputs = Inputs(self.qm, self.seed)
        self.stages["build_s"] = time.perf_counter() - t
        OUT_DIR.mkdir(exist_ok=True)

    # No warm_up: a warm-up here would be a cold start.

    def _start(self, cache_dir: str, answer: bool):
        """One fresh process; its report, or the exception that ended it."""
        try:
            return run_probe(self.PROBED, self.seed, cache_dir, ready_only=not answer)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            return exc

    def _verify(self, cold, warm):
        """Raise unless the pair is consistent; the restart's answer, if any."""
        for report in (cold, warm):
            if isinstance(report, Exception):
                raise report
        if cold["cache"] != {"hits": 0, "misses": 1, "hit_rate": 0.0}:
            raise RuntimeError(f"first start did not miss: {cold['cache']}")
        if warm["cache"] != {"hits": 1, "misses": 0, "hit_rate": 1.0}:
            raise RuntimeError(f"restart did not hit: {warm['cache']}")
        if self.plan_sha256 is None:
            self.plan_sha256 = cold["plan_sha256"]
        if not cold["plan_sha256"] == warm["plan_sha256"] == self.plan_sha256:
            raise RuntimeError("a start built or loaded a different plan")
        self.child_rss_mb = max(self.child_rss_mb, cold["rss_mb"], warm["rss_mb"])
        self.cycles.append({"cold": cold, "warm": warm})
        return warm["output"]

    def measure(self, seconds: float) -> Samples:
        samples = Samples()
        (_, ref), = self.inputs.take(1)

        def one_round(index):
            cache_dir = tempfile.mkdtemp(prefix="plans-", dir=OUT_DIR)
            try:
                # Each process is bracketed by its own calibrations: a start
                # lasts about a second, and the box changes pace in seconds.
                cold, cold_wall, cold_unit = samples.bracketed(
                    lambda: self._start(cache_dir, answer=False))
                warm, warm_wall, warm_unit = samples.bracketed(
                    lambda: self._start(cache_dir, answer=index == 0))
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
            output = None
            try:
                output = self._verify(cold, warm)
            except Exception as exc:  # noqa: BLE001 - a failed start is counted
                ok = self.checker.error(exc)
            else:
                ok = (self.checker.accept() if output is None
                      else self.checker.check(output, ref))
            if output is not None:
                # The answer is the check, not the operation: keep every
                # cycle's wall the same two starts.
                warm_wall -= warm["setup_wall_s"] - warm["ready_s"]
            samples.add(
                [(report["ready_s"] if isinstance(report, dict) else wall, unit)
                 for report, wall, unit in ((cold, cold_wall, cold_unit),
                                            (warm, warm_wall, warm_unit))],
                int(ok), cold_wall / cold_unit + warm_wall / warm_unit)

        _repeat(seconds, one_round)
        if self.cycles:
            samples.info["ready_s_median"] = statistics.median(
                c["cold"]["ready_s"] for c in self.cycles)
            samples.info["reready_s_median"] = statistics.median(
                c["warm"]["ready_s"] for c in self.cycles)
            samples.info["first_answer_s"] = self.cycles[0]["warm"]["setup_wall_s"]
        return samples

    def rss_mb(self) -> float:
        """The largest child: the parent never holds a session."""
        return self.child_rss_mb


def make(name: str, seed: int, **kwargs):
    if name == "serve_packed":
        return ServeWorkload(name, seed, **kwargs)
    if name == "cold_start":
        return ColdStartWorkload(name, seed, **kwargs)
    return InferWorkload(name, seed, **kwargs)
