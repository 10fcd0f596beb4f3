"""The traced pass: per-layer metrics, measured from outside.

Separate from the untraced pass so that no end-to-end number ever sees a
wrapper. Each workload runs its operations in pairs — once on a plain
session, once on a session whose backend is a :class:`spans.SpanBackend` —
which gives the span numbers, the tracing overhead (traced over untraced)
and a run-time proof that the wrapper changes no output. One more
operation under the program's own ``CountingBackend`` gives exact op
counts, and the set-up layers (lower, tune, compile, plan wire, plan cache,
keygen) are timed by calling their public functions directly.

Every name in :data:`PER_LAYER` is emitted for every workload; a layer a
workload never reaches reports 0.
"""

from __future__ import annotations

import json
import shutil
import statistics
import tempfile
import time

import numpy as np

import spans
import workloads
from repro.core.plan import compile_program
from repro.core.program import lower
from repro.core.trace import compare_traces, executed_trace, trace_model
from repro.core.tune import tune_program
from repro.fhe.backend import CountingBackend
from repro.fhe.serialize import dump_plan, load_plan
from repro.serve import SessionCore, SessionRuntime, ShardedPlanCache
from workloads import BACKEND, KEY_SEED, ROUND_REQUESTS, SUBJECTS

#: name -> unit, from layers.json: the one table of per-layer metrics (unit,
#: direction, and the end-to-end metric and workload each should move).
#: BENCHMARK.json repeats the names; test_ledger checks they agree.
PER_LAYER = {
    name: entry["unit"]
    for name, entry in json.loads((workloads.HERE / "layers.json").read_text()).items()
}

_OTHER_RNS = ("add", "sub", "neg", "mul", "inv_scalar", "automorphism", "shift",
              "mod_switch")
_COUNT_EVENTS = ("cmult", "rotation", "keyswitch")
_COUNT_UNITS = ("mod_mul", "ntt", "automorph", "mod_add", "extract")


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def trace_setup_layers(subject) -> dict[str, float]:
    """Time each set-up layer through its public function, in process."""
    params = subject.params
    qm = subject.build()
    program, lower_s = _timed(lower, qm, params)
    tuned, tune_s = _timed(tune_program, program, params)
    plan, compile_s = _timed(compile_program, program, params, tuning=tuned.tuning)
    raw, dump_s = _timed(dump_plan, plan)
    _, load_s = _timed(load_plan, raw, params)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    root = tempfile.mkdtemp(prefix="plans-", dir=workloads.OUT_DIR)
    try:
        miss_cache = ShardedPlanCache(root)
        core, miss_s = _timed(SessionCore.build, program, params, seed=KEY_SEED,
                              cache=miss_cache, backend=BACKEND, tuning=tuned.tuning)
        hit_cache = ShardedPlanCache(root)  # a restart: nothing in memory
        _, hit_s = _timed(SessionCore.build, program, params, seed=KEY_SEED,
                          cache=hit_cache, backend=BACKEND, tuning=tuned.tuning)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    runtime = SessionRuntime(core)
    return {
        "core.program.lower_s": lower_s,
        "core.tune.tune_s": tune_s,
        "core.plan.compile_s": compile_s,
        "core.plan.plan_bytes": len(raw),
        "fhe.serialize.dump_s": dump_s,
        "fhe.serialize.load_s": load_s,
        "serve.cache.miss_build_s": miss_s,
        "serve.cache.hit_build_s": hit_s,
        "serve.cache.hits": miss_cache.hits + hit_cache.hits,
        "serve.cache.misses": miss_cache.misses + hit_cache.misses,
        "core.framework.keygen_s": runtime.keygen_s,
    }


def count_layers(name: str, xs: list[np.ndarray]) -> dict[str, float]:
    """Exact op counts of one fused run over ``xs``, per input, and the
    counted / predicted ratios of the trace cost model."""
    counting = CountingBackend(BACKEND)
    load = workloads.InferWorkload(name, 0, backend=counting)
    load.setup()
    counting.reset()  # drop compile and keygen
    load.session.run_batch(xs)
    params = load.subject.params
    executed = executed_trace(counting, params)
    totals = executed.totals()
    events = counting.totals()
    out = {f"fhe.backend.count.{unit}": getattr(totals, unit) / len(xs)
           for unit in _COUNT_UNITS}
    out.update({f"fhe.backend.count.{event}": events.get(event, 0) / len(xs)
                for event in _COUNT_EVENTS})
    # The model predicts one input; a fused run of k inputs costs the same.
    versus = compare_traces(executed, trace_model(load.qm, params, softmax=False))
    out["core.trace.predicted.mod_mul"] = versus["mod_mul"]["analytical"]
    for unit in ("mod_mul", "ntt", "automorph"):
        out[f"core.trace.ratio.{unit}"] = versus[unit]["ratio"] or 0.0
    return out


def span_layers(log: spans.SpanLog, walls: dict[int, float], per: int) -> dict[str, float]:
    """Span metrics per operation: the median over traced iterations.

    ``walls`` maps iteration -> harness-measured wall of that iteration;
    ``per`` is how many operations one iteration answered."""
    rows = []
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    top_level: dict[int, float] = {}
    for index, parent in enumerate(log.parent):
        if log.name[index] != spans.ROOT and (
                parent == spans.NO_PARENT or log.name[parent] == spans.ROOT):
            iteration = log.iteration[index]
            top_level[iteration] = top_level.get(iteration, 0.0) + log.duration(index)
    for iteration, names in log.aggregate().items():
        if iteration not in walls:
            continue  # warm-up
        wall = walls[iteration]
        get = lambda name: names.get(name, empty)  # noqa: E731
        in_backend = sum(v["self_s"] for k, v in names.items()
                         if k not in ("pack", spans.ROOT))
        row = {
            "fhe.backend.other_rns.self_s": sum(get(n)["self_s"] for n in _OTHER_RNS) / per,
            "fhe.lwe.se_chain.calls": sum(get(n)["calls"] for n in spans.LWE_OPS) / per,
            "fhe.lwe.se_chain.self_s": sum(get(n)["self_s"] for n in spans.LWE_OPS) / per,
            "fhe.packing.matvec.calls": get("matvec")["calls"] / per,
            "fhe.packing.matvec.total_s": get("matvec")["total_s"] / per,
            "fhe.packing.matvec.self_s": get("matvec")["self_s"] / per,
            "fhe.fbs.calls": get("fbs")["calls"] / per,
            "fhe.fbs.total_s": get("fbs")["total_s"] / per,
            "fhe.fbs.self_s": get("fbs")["self_s"] / per,
            "fhe.s2c.calls": get("s2c")["calls"] / per,
            "fhe.s2c.total_s": get("s2c")["total_s"] / per,
            "share.pack": get("pack")["total_s"] / wall,
            "share.fbs": get("fbs")["total_s"] / wall,
            "share.s2c": get("s2c")["total_s"] / wall,
            "core.framework.run_s": wall / per,
            "core.framework.glue_s": (wall - top_level[iteration]) / per,
            "trace.unattributed_share": 1.0 - in_backend / wall,
        }
        for name in ("ntt", "mul_ntt", "scalar_mul", *spans.FUSED_OPS):
            row[f"fhe.backend.{name}.calls"] = get(name)["calls"] / per
            row[f"fhe.backend.{name}.self_s"] = get(name)["self_s"] / per
        rows.append(row)
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def _pairs(seconds: float, plain_op, traced_op):
    """Alternate untraced / traced operations for ``seconds`` (>= 2 pairs).

    Each op returns its latencies; returns (plain_cu, traced_cu, calib_s):
    the median latency of every round in calibration units, and every
    calibration."""
    samples = workloads.Samples()
    plain_cu, traced_cu = [], []
    start = time.perf_counter()
    while len(plain_cu) < 2 or time.perf_counter() - start < seconds:
        for op, into in ((plain_op, plain_cu), (traced_op, traced_cu)):
            latencies, _, unit = samples.bracketed(op)
            into.append(statistics.median(latencies) / unit)
    return plain_cu, traced_cu, samples.calib_s


def trace_infer(name: str, seed: int, seconds: float, pin_serial: bool,
                log: spans.SpanLog):
    """Span, count and overhead layers of an ``InferenceSession`` workload."""
    plain = workloads.InferWorkload(name, seed)
    traced = workloads.InferWorkload(name, seed, backend=spans.SpanBackend(log))
    for load in (plain, traced):
        load.setup()
        load.warm_up()
    checker = plain.checker
    walls: dict[int, float] = {}
    pending: list = []

    def plain_op():
        pending[:] = plain.inputs.take(1)
        x, ref = pending[0]
        start = time.perf_counter()
        checker.call(lambda: plain.op(x), ref)
        return [time.perf_counter() - start]

    def traced_op():
        x, ref = pending[0]
        start = time.perf_counter()
        output = log.root(traced.op, x)
        walls[log.current] = time.perf_counter() - start
        # Same seed, same request order: the wrapper must change nothing.
        checker.check(output, ref)
        return [walls[log.current]]

    plain_cu, traced_cu, calib_s = _pairs(seconds, plain_op, traced_op)
    if not np.array_equal(plain.first_output, traced.first_output):
        checker.error(RuntimeError("SpanBackend run differs from the bare run"))
    if pin_serial:
        serial = workloads.InferWorkload(name, seed, backend="serial")
        serial.setup()
        serial.warm_up()
        if not np.array_equal(plain.first_output, serial.first_output):
            checker.error(RuntimeError("batched output differs from serial"))
    layers = span_layers(log, walls, per=1)
    layers.update(count_layers(name, [pending[0][0]]))
    layers["trace.overhead_share"] = (
        statistics.median(traced_cu) / statistics.median(plain_cu) - 1.0)
    return layers, checker, calib_s


def trace_serve(name: str, seed: int, seconds: float, log: spans.SpanLog):
    """Serve layers from ``InferenceResult.timings`` and ``service.stats()``;
    span layers from a second service whose worker runs a SpanBackend."""
    plain = workloads.ServeWorkload(name, seed)
    traced = workloads.ServeWorkload(name, seed, backend=spans.SpanBackend(log))
    for load in (plain, traced):
        load.setup()
        load.warm_up()
        load.results.clear()
    walls: dict[int, float] = {}
    round_walls: list[float] = []

    def plain_op():
        return plain.one_round()[0]

    def traced_op():
        log.current += 1
        seen = len(traced.results)
        latencies, _, wall = traced.one_round()
        round_walls.append(wall)
        runs = {r.batch_id: r.timings["run_s"] for _, r in traced.results[seen:]}
        walls[log.current] = sum(runs.values())  # worker busy time
        return latencies

    plain_cu, traced_cu, calib_s = _pairs(seconds, plain_op, traced_op)
    stats = traced.service.stats()
    detail = stats.detail
    plain.close()
    traced.close()

    layers = span_layers(log, walls, per=ROUND_REQUESTS)
    timings = [r.timings for _, r in traced.results]
    runs = {r.batch_id: r.timings["run_s"] for _, r in traced.results}
    capacity = next(iter(detail["workers"]["detail"]["sessions"].values())
                    )["counters"]["batch_capacity"]
    # Rounds only: the warm-up batch is not in ``results`` but is in stats().
    batches = len(runs)
    layers.update({
        "serve.scheduler.queue_wait_p50_s": statistics.median(
            t["queue_wait_s"] for t in timings),
        "serve.scheduler.queue_depth_max": detail["scheduler"]["counters"]["queue_depth_max"],
        "serve.scheduler.shed": detail["scheduler"]["counters"]["rejected"],
        "serve.batching.batch_wait_p50_s": statistics.median(
            t["batch_wait_s"] for t in timings),
        "serve.batching.batches": batches / len(round_walls),
        "serve.batching.occupancy": len(timings) / (batches * capacity),
        "serve.workers.run_p50_s": statistics.median(runs.values()),
        "serve.workers.busy_share": sum(runs.values()) / sum(round_walls),
        "serve.session.amortized_run_s": stats.counters["amortized_run_s"],
        "serve.service.overhead_p50_s": statistics.median(
            latency - r.timings["queue_wait_s"] - r.timings["batch_wait_s"]
            - r.timings["run_s"] for latency, r in traced.results),
    })
    unit = statistics.median(calib_s)
    layers["serve.service.request_p90_cu"] = statistics.quantiles(
        [latency / unit for latency, _ in plain.results], n=10)[-1]
    xs = [x for x, _ in plain.inputs.take(capacity)]
    layers.update(count_layers(name, xs))
    layers["trace.overhead_share"] = (
        statistics.median(traced_cu) / statistics.median(plain_cu) - 1.0)
    checker = plain.checker
    checker.attempted += traced.checker.attempted
    checker.failed += traced.checker.failed
    return layers, checker, calib_s


def trace_cold_start(name: str, seed: int, seconds: float, log: spans.SpanLog):
    """The probed subject's own layers, then the children's stage clocks."""
    layers, checker, calib_s = trace_infer(name, seed, seconds / 2, False, log)
    load = workloads.ColdStartWorkload(name, seed)
    load.setup()
    load.measure(seconds / 2)
    checker.attempted += load.checker.attempted
    checker.failed += load.checker.failed

    def median(kind: str, *path: str) -> float:
        def dig(report):
            for key in path:
                report = report[key]
            return report
        return statistics.median(dig(c[kind]) for c in load.cycles)

    if load.cycles:
        layers.update({
            "import_s": median("cold", "import_s"),
            "core.program.lower_s": median("cold", "stages", "lower_s"),
            "core.tune.tune_s": median("cold", "stages", "tune_s"),
            "serve.cache.miss_build_s": median("cold", "stages", "core_build_s"),
            "serve.cache.hit_build_s": median("warm", "stages", "core_build_s"),
            "core.framework.keygen_s": median("cold", "stages", "keygen_s"),
            "lifecycle.ready_s": median("cold", "ready_s"),
            "lifecycle.reready_s": median("warm", "ready_s"),
            "lifecycle.first_answer_s": load.cycles[0]["warm"]["setup_wall_s"],
        })
    return layers, checker, calib_s


def run_traced(name: str, seed: int, seconds: float, pin_serial: bool,
               spans_path: str | None, import_s: float) -> dict:
    log = spans.SpanLog()
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers["import_s"] = import_s
    layers.update(trace_setup_layers(SUBJECTS[name]))
    if name == "serve_packed":
        traced, checker, calib_s = trace_serve(name, seed, seconds, log)
    elif name == "cold_start":
        traced, checker, calib_s = trace_cold_start(name, seed, seconds, log)
    else:
        traced, checker, calib_s = trace_infer(name, seed, seconds, pin_serial, log)
    layers.update(traced)
    if spans_path:
        log.write(spans_path)
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "max_abs_err": checker.max_abs_err,
        "digest": checker.digest(),
        "metrics": {name: {"value": float(layers[name]), "unit": unit}
                    for name, unit in PER_LAYER.items()},
        "info": {"spans": len(log)},
        "calib_s": calib_s,
    }
