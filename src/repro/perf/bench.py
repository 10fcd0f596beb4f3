"""The ``repro bench`` harness: pipeline + RNS microbenchmarks.

Two benchmarks, both emitted into ``BENCH_pipeline.json`` as a list of
records with the schema::

    {bench, params, wall_s, phase_s, ops, speedup_vs_serial}

- ``mnist_cnn``     — an end-to-end encrypted run of a tiny MNIST-style CNN
  (conv -> flatten -> fc, the shape the loop tests pin) through
  :class:`AthenaPipeline` at ``TEST_LOOP`` parameters, phase times recorded
  by :class:`PerfRecorder`.
- ``resnet20_block``— the RNS polynomial op mix of one ResNet-20 residual
  block (PMult poly products, FBS scalar ladder, packing automorphisms,
  additions), scaled to reduced parameters.

Both benches run through a :class:`repro.fhe.backend.CountingBackend`
wrapping the measured backend (``batched`` by default, regardless of the
``REPRO_BACKEND`` environment default — the speedup assertions pin the
batched engine), so each record also carries ``phase_ops``: the homomorphic
primitives *actually dispatched* per pipeline phase, in the same units as
the analytical trace model (:mod:`repro.core.trace`).

``speedup_vs_serial`` reruns the identical workload under
``use_backend("serial")`` (the frozen per-prime reference loop) and reports
serial/measured wall time. The win comes from amortizing Python dispatch
and numpy call overhead across limbs, so it is largest in the small-ring /
many-limb regime these benches run in — at large N the butterfly arithmetic
dominates and the ratio approaches 1.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.framework import AthenaPipeline, LoopCost
from repro.core.program import lower
from repro.core.trace import EXECUTED_FIELDS, executed_trace
from repro.fhe.backend import CountingBackend, use_backend
from repro.fhe.params import TEST_LOOP, FheParams
from repro.fhe.poly import RnsPoly
from repro.perf.recorder import PerfRecorder
from repro.quant.quantize import (
    QConv,
    QFlatten,
    QLinear,
    QuantConfig,
    QuantizedModel,
)

#: Record keys of one BENCH_pipeline.json entry.
BENCH_SCHEMA = (
    "bench", "params", "wall_s", "phase_s", "ops", "phase_ops",
    "speedup_vs_serial",
)

#: Default output filename (CI uploads this artifact).
BENCH_FILENAME = "BENCH_pipeline.json"

#: Default executed-trace artifact filename (``repro bench --trace-out``).
TRACE_FILENAME = "TRACE_executed.json"


def _params_info(params: FheParams, backend: str) -> dict:
    return {
        "n": params.n,
        "limbs": len(params.moduli),
        "t": params.t,
        "backend": backend,
    }


def mnist_cnn_micro(rng: np.random.Generator) -> QuantizedModel:
    """conv(1->2, k3) on 6x6 -> flatten -> fc(32->3), sized for TEST_LOOP.

    The canonical micro model of the bench harness, the loop tests, and the
    ``repro compile`` CLI — always built from a caller-seeded generator so
    every consumer compiles the byte-identical model (same fingerprint)."""
    cfg = QuantConfig(4, 4, t=TEST_LOOP.t)
    conv = QConv(
        weight=rng.integers(-2, 3, (2, 1, 3, 3)).astype(np.int64),
        bias=rng.integers(-4, 5, 2).astype(np.int64),
        stride=1, pad=0, in_scale=1.0, w_scale=1.0, out_scale=12.0,
        activation="relu", in_shape=(1, 6, 6), out_shape=(2, 4, 4),
    )
    fc_w = rng.integers(-1, 2, (3, 32)).astype(np.int64)
    fc_w[:, rng.permutation(32)[:16]] = 0
    fc = QLinear(
        weight=fc_w, bias=rng.integers(-3, 4, 3).astype(np.int64),
        in_scale=1.0, w_scale=1.0, out_scale=2.0, activation="identity",
        in_features=32, out_features=3,
    )
    return QuantizedModel(
        [conv, QFlatten(), fc], cfg, 1.0, (1, 6, 6), name="mnist_cnn_micro"
    )


def resnet_block_micro(rng: np.random.Generator) -> QuantizedModel:
    """conv -> projection residual (stride-2 downsample) -> fc, TEST_LOOP-sized.

    The residual-family companion to :func:`mnist_cnn_micro`: a stem conv,
    one paper-style basic block with a strided body and a 1x1 projection
    shortcut, and a small head. Exercises the placed-layout compile path
    (both branches refresh into the join layout) that the plain micro model
    never reaches, so the tuner/bench harness covers both plan families.
    """
    from repro.quant.quantize import QResidual

    cfg = QuantConfig(4, 4, t=TEST_LOOP.t)

    def conv(cin, cout, k, stride, pad, hw, act, out_scale):
        oh = (hw + 2 * pad - k) // stride + 1
        return QConv(
            weight=rng.integers(-2, 3, (cout, cin, k, k)).astype(np.int64),
            bias=rng.integers(-2, 3, cout).astype(np.int64),
            stride=stride, pad=pad, in_scale=1.0, w_scale=1.0,
            out_scale=out_scale, activation=act,
            in_shape=(cin, hw, hw), out_shape=(cout, oh, oh),
        )

    stem = conv(1, 1, 3, 1, 0, 6, "relu", 8.0)
    block = QResidual(
        body=[conv(1, 2, 3, 2, 1, 4, "identity", 6.0)],
        shortcut=[conv(1, 2, 1, 2, 0, 4, "identity", 6.0)],
        add_scale=1.0, out_scale=2.0, skip_alpha=1,
    )
    # Coarse head scale: the fc sums 8 join outputs, so its output step
    # must cover the summed per-branch refresh noise or the micro model
    # amplifies TEST_LOOP's (deliberately large) noise into its logits.
    fc = QLinear(
        weight=rng.integers(-1, 2, (3, 8)).astype(np.int64),
        bias=rng.integers(-2, 3, 3).astype(np.int64),
        in_scale=1.0, w_scale=1.0, out_scale=4.0, activation="identity",
        in_features=8, out_features=3,
    )
    return QuantizedModel(
        [stem, block, QFlatten(), fc], cfg, 1.0, (1, 6, 6),
        name="resnet_block_micro",
    )


def bench_mnist_cnn(
    seed: int = 41,
    compare_serial: bool = True,
    backend: str = "batched",
    counting: CountingBackend | None = None,
) -> dict:
    """End-to-end encrypted MNIST-CNN run at TEST_LOOP parameters.

    Emits the compile/runtime split alongside the phase times: ``wall_s``
    is the *cold* per-request cost (the program is compiled inside the run
    span, under the ``compile`` phase), ``compile_s`` / ``warm_run_s`` come
    from an :class:`~repro.serve.InferenceSession` answering the same
    request twice from its precompiled plan. A warm request must beat the
    cold one — ``benchmarks/bench_pipeline.py`` and the CI smoke job assert
    ``warm_run_s < wall_s``.

    The cold run dispatches through a :class:`CountingBackend` wrapping
    ``backend``, so ``record["ops"]`` are the primitives actually executed
    (plus the ``fbs_cmult``/``fbs_smult`` ladder counters from
    :class:`LoopCost`) and ``record["phase_ops"]`` splits them per pipeline
    phase. Pass ``counting`` to keep the populated wrapper for an executed
    trace (``run_benches`` does, for ``--trace-out``).
    """
    if backend == "counting":  # counting wraps batched; avoid double-wrap
        backend = "batched"
    rng = np.random.default_rng(5)
    qm = mnist_cnn_micro(rng)
    x_q = rng.integers(-3, 4, (1, 6, 6)).astype(np.int64)
    program = lower(qm, TEST_LOOP)

    if counting is None:
        counting = CountingBackend(backend)
    perf = PerfRecorder()
    pipe = AthenaPipeline(TEST_LOOP, seed=seed, perf=perf)
    cost = LoopCost()
    with use_backend(counting):
        pipe.run_program(program, x_q, cost)
    counts = counting.summary()
    record = {
        "bench": "mnist_cnn",
        "params": _params_info(TEST_LOOP, counting.rns_name),
        **perf.summary(),
        "phase_ops": counts["phase_ops"],
        "speedup_vs_serial": None,
    }
    record["ops"] = dict(counts["ops"])
    record["ops"]["fbs_cmult"] = cost.fbs.cmult
    record["ops"]["fbs_smult"] = cost.fbs.smult

    from repro.serve import InferenceSession

    session = InferenceSession(program, TEST_LOOP, seed=seed, backend=backend)
    warm_runs = []
    for _ in range(2):
        session.run(x_q)
        warm_runs.append(session.last_perf.wall_s)
    # The warm<cold invariant the smoke checks pin rides on a small
    # structural margin (the in-span compile phase); a loaded machine can
    # drown it in scheduler noise, so take a couple of extra warm samples
    # before giving up — warm_run_s is the min over samples either way.
    while min(warm_runs) >= record["wall_s"] and len(warm_runs) < 4:
        session.run(x_q)
        warm_runs.append(session.last_perf.wall_s)
    record["compile_s"] = round(session.compile_s, 6)
    record["warm_run_s"] = round(min(warm_runs), 6)

    if compare_serial:
        pipe.attach_perf(None)
        with use_backend("serial"):
            start = time.perf_counter()
            pipe.run_program(program, x_q)
            serial_s = time.perf_counter() - start
        record["speedup_vs_serial"] = round(serial_s / record["wall_s"], 3)
    return record


#: Per-repetition RNS op mix of one ResNet-20 residual block, scaled down:
#: two 3x3 convs are 2 PMults = 4 poly products (c0/c1 each), the FBS
#: scalar ladder dominates SMult/HAdd, packing contributes automorphisms.
_BLOCK_MIX = {"mul": 8, "add": 96, "scalar_mul": 96, "automorphism": 16}


def bench_resnet20_block(
    params: FheParams = TEST_LOOP, reps: int = 10, seed: int = 7,
    compare_serial: bool = True, backend: str = "batched",
) -> dict:
    """RNS op mix of one ResNet-20 block, ``backend`` vs per-prime serial.

    ``record["ops"]`` keeps the workload descriptor (the ``_BLOCK_MIX`` op
    mix times ``reps``); ``record["phase_ops"]`` adds the primitive units
    the measured pass actually dispatched (NTTs per limb, elementwise
    mod-muls/adds), counted by a :class:`CountingBackend`.
    """
    if backend == "counting":
        backend = "batched"
    rng = np.random.default_rng(seed)

    def fresh():
        return RnsPoly.from_int_coeffs(
            rng.integers(0, params.t, params.n).astype(np.int64), params.moduli
        )

    a, b = fresh(), fresh()

    def one_pass(perf: PerfRecorder | None) -> float:
        x, y = a, b
        start = time.perf_counter()
        for _ in range(reps):
            for _ in range(_BLOCK_MIX["mul"]):
                x = x * y
            for _ in range(_BLOCK_MIX["add"]):
                x = x + y
            for _ in range(_BLOCK_MIX["scalar_mul"]):
                x = x.scalar_mul(3)
            for k in range(_BLOCK_MIX["automorphism"]):
                x = x.automorphism(2 * k + 3)
        elapsed = time.perf_counter() - start
        if perf is not None:
            perf.add_time("rns_ops", elapsed)
            for op, count in _BLOCK_MIX.items():
                perf.count(op, count * reps)
        return elapsed

    counting = CountingBackend(backend)
    perf = PerfRecorder()
    with perf.run():
        with use_backend(counting), counting.phase("rns_ops"):
            measured_s = one_pass(perf)
    record = {
        "bench": "resnet20_block",
        "params": {**_params_info(params, counting.rns_name), "reps": reps},
        **perf.summary(),
        "phase_ops": counting.ops_by_phase(),
        "speedup_vs_serial": None,
    }
    if compare_serial:
        with use_backend("serial"):
            serial_s = one_pass(None)
        record["speedup_vs_serial"] = round(serial_s / measured_s, 3)
    return record


def executed_trace_payload(
    counting: CountingBackend, params: FheParams = TEST_LOOP,
    model: str = "mnist_cnn_micro",
) -> dict:
    """JSON-ready executed trace of a populated :class:`CountingBackend`.

    The per-phase rows use the analytical trace model's primitive units
    (see :data:`repro.core.trace.EXECUTED_FIELDS`), so the artifact feeds
    :func:`repro.accel.scheduler.schedule_executed` directly.
    """
    trace = executed_trace(counting, params, model=model)
    totals = trace.totals()
    return {
        "model": model,
        "params": _params_info(params, counting.rns_name),
        "phases": {
            p.phase: {f: getattr(p.ops, f) for f in EXECUTED_FIELDS}
            for p in trace.phases
        },
        "totals": {f: getattr(totals, f) for f in EXECUTED_FIELDS},
        "events": counting.totals(),
    }


def run_benches(
    out: str | Path | None = BENCH_FILENAME,
    quick: bool = False,
    seed: int = 41,
    backend: str = "batched",
    trace_out: str | Path | None = None,
) -> list[dict]:
    """Run both benchmarks; write ``out`` (unless None) and return records.

    ``quick`` shrinks the microbench repetitions for CI smoke jobs; both
    records are still emitted with the full schema. ``backend`` selects the
    measured dispatch backend (the serial-comparison rerun always uses the
    frozen per-prime loop). ``trace_out`` additionally writes the MNIST
    run's executed-op trace (``TRACE_executed.json`` in CI).
    """
    if backend == "counting":
        backend = "batched"
    counting = CountingBackend(backend)
    records = [
        bench_mnist_cnn(seed=seed, backend=backend, counting=counting),
        bench_resnet20_block(reps=3 if quick else 10, backend=backend),
    ]
    for record in records:
        missing = [k for k in BENCH_SCHEMA if k not in record]
        if missing:  # pragma: no cover - schema regression guard
            raise RuntimeError(f"bench record missing keys: {missing}")
    if out is not None:
        Path(out).write_text(json.dumps(records, indent=2) + "\n")
    if trace_out is not None:
        payload = executed_trace_payload(counting)
        Path(trace_out).write_text(json.dumps(payload, indent=2) + "\n")
    return records


# -- autotuner bench -----------------------------------------------------------

#: Default output filename of :func:`run_tune_bench` (CI uploads it).
BENCH_TUNE_FILENAME = "BENCH_tune.json"

#: Autotuner bench subjects: name -> micro model builder.
TUNE_SUBJECTS = ("mnist_cnn", "resnet20_block")


def _measured_run(program, plan, x_q, seed: int, backend: str,
                  params: FheParams = TEST_LOOP):
    """One real-ciphertext run of ``plan``; returns (output, mod_mul, wall_s)."""
    counting = CountingBackend(backend)
    perf = PerfRecorder()
    pipe = AthenaPipeline(params, seed=seed, perf=perf)
    with use_backend(counting):
        out = pipe.run_program(program, x_q, plan=plan)
    measured = executed_trace(counting, params).totals()
    return out, float(measured.mod_mul), perf.summary()["wall_s"]


def bench_tune(
    subject: str = "mnist_cnn",
    chunk: int | None = 16,
    seed: int = 41,
    backend: str = "batched",
) -> dict:
    """Autotune one micro subject and measure the tuned plan against default.

    Compiles the subject twice — default encodings and the autotuner's
    picks — and runs both plans through the real-ciphertext pipeline under
    a :class:`CountingBackend`, so the record carries *predicted* (cost
    model) and *measured* (executed trace) modular-multiplication counts
    plus wall times, and the per-layer chosen encodings. Hard guarantees
    asserted here (CI re-checks them on the artifact):

    * the tuned plan's predicted trace cost never exceeds the default's
      (the tuner always scores the default candidate);
    * the tuned plan's *measured* op count never exceeds the default's;
    * both plans decode the plaintext reference within the pipeline's
      noise tolerance (a tuned plan reroutes refresh tiles, so its noise
      draws differ from the default's — correctness is against the model,
      not bit-for-bit against the other plan).
    """
    from repro.core.plan import compile_program
    from repro.core.tune import tune_program

    builder = (
        resnet_block_micro if subject == "resnet20_block" else mnist_cnn_micro
    )
    qm = builder(np.random.default_rng(5))
    program = lower(qm, TEST_LOOP)
    result = tune_program(program, TEST_LOOP, chunk=chunk)
    report = result.report()

    default_plan = compile_program(program, TEST_LOOP, chunk=chunk)
    tuned_plan = compile_program(
        program, TEST_LOOP, chunk=chunk, tuning=result.tuning
    )
    rng = np.random.default_rng(seed)
    x_q = rng.integers(-2, 3, qm.input_shape).astype(np.int64)
    out_default, mm_default, wall_default = _measured_run(
        program, default_plan, x_q, seed, backend
    )
    out_tuned, mm_tuned, wall_tuned = _measured_run(
        program, tuned_plan, x_q, seed, backend
    )
    if report["predicted_tuned_mod_muls"] > report["predicted_default_mod_muls"]:
        raise RuntimeError(
            f"{subject}: tuned plan predicted cost exceeds default"
        )  # pragma: no cover - tuner invariant
    if mm_tuned > mm_default:
        raise RuntimeError(
            f"{subject}: tuned plan measured mod_muls exceed default "
            f"({mm_tuned} > {mm_default})"
        )
    ref = qm.forward_int(x_q[None])[0].reshape(-1)
    err_default = int(np.abs(out_default - ref).max())
    err_tuned = int(np.abs(out_tuned - ref).max())
    if max(err_default, err_tuned) > 2:
        raise RuntimeError(
            f"{subject}: plan output off plaintext reference "
            f"(default err {err_default}, tuned err {err_tuned})"
        )
    return {
        "bench": subject,
        "model": qm.name,
        "params": _params_info(TEST_LOOP, backend),
        "chunk": chunk,
        "tuning": result.tuning.tag() if result.tuning else "",
        "layers": report["steps"],
        "predicted_default_mod_muls": report["predicted_default_mod_muls"],
        "predicted_tuned_mod_muls": report["predicted_tuned_mod_muls"],
        "measured_default_mod_muls": mm_default,
        "measured_tuned_mod_muls": mm_tuned,
        "default_wall_s": round(wall_default, 6),
        "tuned_wall_s": round(wall_tuned, 6),
        "max_abs_error_default": err_default,
        "max_abs_error_tuned": err_tuned,
        "fingerprints_differ": tuned_plan.model_hash != default_plan.model_hash,
    }


def run_tune_bench(
    out: str | Path | None = BENCH_TUNE_FILENAME,
    chunk: int | None = 16,
    seed: int = 41,
    backend: str = "batched",
) -> list[dict]:
    """Autotuner bench over all subjects; writes ``out`` unless None."""
    records = [
        bench_tune(subject, chunk=chunk, seed=seed, backend=backend)
        for subject in TUNE_SUBJECTS
    ]
    if out is not None:
        Path(out).write_text(json.dumps(records, indent=2) + "\n")
    return records


# -- mixed-precision bench ------------------------------------------------------

#: Default output filename of :func:`run_mp_bench` (CI uploads it).
BENCH_MP_FILENAME = "BENCH_mp.json"

#: Decode-noise allowance for the measured TEST_FBS runs. The micro ring
#: (n=32) leaves the final un-refreshed linear layer a few tens of units of
#: LWE decode noise either way (the uniform baseline shows it too); a wrong
#: LUT table would miss by ~t/2 ≈ 128, far above this. Exact semantic
#: correctness is asserted separately by :func:`_check_lut_tables`.
_MP_NOISE_TOL = 64


def _check_lut_tables(program, t: int) -> None:
    """Every built FBS table must equal its exact semantics on its domain.

    Full-domain LUTs are checked over all of centered Z_t; restricted
    (``lut_range``) LUTs over their certified MAC window [-r, r] — outside
    it the degree <= 2r interpolant is free, by design. This is the
    noise-free correctness gate for the mixed-precision table machinery.
    """
    for step in program.lut_steps():
        spec = step.lut
        lut = spec.build(program.config, t)
        r = spec.lut_range
        if r and 2 * r + 1 < t:
            pts = np.arange(-r, r + 1, dtype=np.int64)
        else:
            pts = np.arange(-(t // 2), t - t // 2, dtype=np.int64)
        exact = spec.apply_exact(pts, program.config)
        got = lut.values[pts % t]
        if not np.array_equal(got % t, exact % t):
            raise RuntimeError(
                f"LUT table {step.name!r} disagrees with exact semantics "
                f"on its domain (lut_range={r})"
            )


def _mp_point(model, x, y, config, budget: float, mode: str, seed: int,
              backend: str, params: FheParams) -> tuple[dict, "object"]:
    """Allocate at one budget, compile, and measure on real ciphertexts."""
    from repro.core.plan import compile_program, program_fingerprint
    from repro.fhe.serialize import dump_plan, load_plan
    from repro.quant.mp import allocate_bits

    res = allocate_bits(model, x, y, config, params=params, budget=budget,
                        mode=mode)
    qm = res.model
    program = lower(qm, params)
    _check_lut_tables(program, params.t)
    plan = compile_program(program, params, tuning=res.tuning.tuning)
    x_q = qm.quantize_input(x[0])
    out, mm, wall = _measured_run(program, plan, x_q, seed, backend,
                                  params=params)
    ref = qm.forward_int(x_q[None])[0].reshape(-1)
    err = int(np.abs(out - ref).max())
    if err > _MP_NOISE_TOL:
        raise RuntimeError(
            f"mp plan (budget {budget}) off plaintext reference by {err}"
        )
    raw = dump_plan(plan)
    round_trip = dump_plan(load_plan(raw, params)) == raw
    point = {
        "budget": budget,
        "mode": mode,
        "mp": res.mp.tag(),
        "bias_correct": res.bias_correct,
        "accuracy": res.accuracy,
        "accuracy_drop": res.drop,
        "predicted_mod_muls": res.cost,
        "measured_mod_muls": mm,
        "wall_s": round(wall, 6),
        "max_abs_error": err,
        "fingerprint": program_fingerprint(program, res.tuning.tuning),
        "round_trip_identical": round_trip,
    }
    return point, res


def bench_mp(
    budgets: tuple[float, ...] = (0.0, 0.02, 0.05),
    headline_budget: float = 0.02,
    mode: str = "greedy",
    seed: int = 41,
    backend: str = "batched",
) -> dict:
    """Mixed-precision allocator bench on the TEST_FBS mnist_cnn subject.

    Measures the uniform-bits baseline once (autotuned, full-domain LUTs)
    and one allocated configuration per accuracy-drop budget, each through
    the real-ciphertext pipeline under a :class:`CountingBackend` — the
    ``points`` list is the accuracy-vs-cost Pareto front. Hard guarantees
    asserted here (CI re-checks them on the artifact):

    * the headline-budget config's *measured* mod_muls and wall time beat
      the uniform baseline's, at calibration accuracy within the budget;
    * every allocated plan round-trips through dump_plan/load_plan
      bit-identically;
    * every allocated program's fingerprint differs from the baseline's
      (plan caches and the serve layer key on it).
    """
    from repro.core.plan import compile_program, program_fingerprint
    from repro.core.tune import tune_program
    from repro.fhe.params import TEST_FBS
    from repro.quant.mp import mp_micro_subject
    from repro.quant.quantize import quantize_model

    model, x, y, config = mp_micro_subject()
    base_qm = quantize_model(model, x, config, name="mnist_cnn_mp")
    base_acc = base_qm.accuracy(x, y)
    base_program = lower(base_qm, TEST_FBS)
    _check_lut_tables(base_program, TEST_FBS.t)
    base_tuning = tune_program(base_program, TEST_FBS)
    base_plan = compile_program(base_program, TEST_FBS,
                                tuning=base_tuning.tuning)
    x_q = base_qm.quantize_input(x[0])
    out, mm_base, wall_base = _measured_run(base_program, base_plan, x_q,
                                            seed, backend, params=TEST_FBS)
    ref = base_qm.forward_int(x_q[None])[0].reshape(-1)
    err_base = int(np.abs(out - ref).max())
    base_fp = program_fingerprint(base_program, base_tuning.tuning)

    points = []
    for budget in budgets:
        point, _ = _mp_point(model, x, y, config, budget, mode, seed,
                             backend, TEST_FBS)
        if not point["round_trip_identical"]:
            raise RuntimeError(
                f"mp plan (budget {budget}) does not round-trip bit-identically"
            )
        if point["fingerprint"] == base_fp:
            raise RuntimeError(
                f"mp fingerprint (budget {budget}) collides with uniform's"
            )
        points.append(point)

    head = min(points, key=lambda p: abs(p["budget"] - headline_budget))
    if head["measured_mod_muls"] >= mm_base:
        raise RuntimeError(
            f"allocated config does not beat uniform measured mod_muls "
            f"({head['measured_mod_muls']} >= {mm_base})"
        )
    if head["wall_s"] >= wall_base:
        raise RuntimeError(
            f"allocated config does not beat uniform wall time "
            f"({head['wall_s']} >= {wall_base})"
        )
    if head["accuracy_drop"] > head["budget"] + 1e-12:
        raise RuntimeError(
            f"allocated config exceeds the accuracy-drop budget "
            f"({head['accuracy_drop']} > {head['budget']})"
        )
    return {
        "bench": "mnist_cnn",
        "model": "mnist_cnn_mp",
        "params": _params_info(TEST_FBS, backend),
        "config": config.label,
        "mode": mode,
        "headline_budget": head["budget"],
        "baseline_accuracy": base_acc,
        "baseline_predicted_mod_muls": base_tuning.tuned_cost,
        "baseline_measured_mod_muls": mm_base,
        "baseline_wall_s": round(wall_base, 6),
        "baseline_max_abs_error": err_base,
        "headline": head,
        "points": points,
    }


def bench_mp_zoo(
    subject: str = "mnist_cnn",
    budgets: tuple[float, ...] = (0.0, 0.05),
    mode: str = "greedy",
    seed: int = 0,
) -> dict:
    """Predicted-only Pareto points for a zoo model at ATHENA parameters.

    The full-size models are too large for a measured CI run, but the cost
    model — the same one the measured micro bench validates — scores them
    directly: per budget, the allocator's predicted tuned mod_muls and the
    resulting calibration accuracy.
    """
    from repro.eval.zoo import get_benchmark
    from repro.fhe.params import ATHENA
    from repro.quant.mp import allocate_bits
    from repro.quant.quantize import LayerQuantConfig, QuantConfig

    entry = get_benchmark(subject, seed=seed)
    calib_x = entry.data["x_train"][:96]
    calib_y = entry.data["y_train"][:96]
    config = QuantConfig(7, 7)
    candidates = [LayerQuantConfig(b, b) for b in (4, 5, 6)]
    points = []
    baseline = None
    for budget in budgets:
        res = allocate_bits(entry.float_model, calib_x, calib_y, config,
                            params=ATHENA, candidates=candidates,
                            budget=budget, mode=mode, name=subject)
        baseline = {
            "accuracy": res.baseline_accuracy,
            "predicted_mod_muls": res.baseline_cost,
        }
        points.append({
            "budget": budget,
            "mp": res.mp.tag(),
            "accuracy": res.accuracy,
            "accuracy_drop": res.drop,
            "predicted_mod_muls": res.cost,
        })
    return {
        "bench": f"{subject}_zoo",
        "model": subject,
        "params": _params_info(ATHENA, "predicted"),
        "config": config.label,
        "mode": mode,
        "baseline": baseline,
        "points": points,
    }


def run_mp_bench(
    out: str | Path | None = BENCH_MP_FILENAME,
    budgets: tuple[float, ...] = (0.0, 0.02, 0.05),
    mode: str = "greedy",
    seed: int = 41,
    backend: str = "batched",
    include_zoo: bool = True,
) -> list[dict]:
    """Mixed-precision bench; writes ``out`` unless None.

    Record 0 is the measured TEST_FBS micro subject (the CI gate's
    target); with ``include_zoo`` a predicted-only record per zoo subject
    follows.
    """
    records = [bench_mp(budgets=budgets, mode=mode, seed=seed, backend=backend)]
    if include_zoo:
        records.append(bench_mp_zoo(mode=mode))
    if out is not None:
        Path(out).write_text(json.dumps(records, indent=2) + "\n")
    return records
