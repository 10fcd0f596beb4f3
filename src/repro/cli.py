"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``params [name]``          — show parameter sets (sizes, security).
* ``experiment <id> [...]``  — regenerate a paper table/figure by id
                               (``table1``..``table9``, ``fig1``..``fig13``).
* ``train <model>``          — train + quantize a benchmark into the zoo.
* ``infer <model>``          — encrypted-pipeline inference on test images;
                               ``--plan`` runs the warm-session
                               real-ciphertext path from a compiled plan.
* ``compile``                — precompute a CompiledProgram artifact
                               (kernels, LUT polynomials, BSGS/S2C plans).
* ``allocate``               — mixed-precision bit allocator: per-layer
                               bit-widths minimizing predicted FHE cost under
                               an accuracy-drop budget; ``--config-out``
                               writes the artifact ``compile --mp`` consumes.
* ``trace``                  — analytical primitive-op trace of the micro
                               model; ``--executed`` also runs it under a
                               CountingBackend and reports parity.
* ``serve``                  — in-process demo of the layered multi-tenant
                               service: tenants, fair scheduler, warm worker
                               pool, shared plan cache; prints per-layer stats.
* ``ablation``               — accelerator design-choice ablations.

Exit codes are uniform across commands: 0 on success, 1 when the library
reports a failure (:class:`repro.errors.ReproError`), 2 on usage errors
(argparse's own convention). ``experiment``, ``infer``, ``allocate``,
``trace`` and ``serve`` share the output parent parser: ``--json`` switches to
machine-readable output and ``--out PATH`` redirects it to a file. The
op-dispatch engine of every ciphertext run is the process default,
``REPRO_BACKEND`` (``batched`` unless set to ``serial``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ModulusOverflow, ReproError, UnsupportedLayer

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

_MODELS = ["mnist_cnn", "lenet", "resnet20", "resnet56"]


# -- shared parent parsers ---------------------------------------------------


def _seed_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=0, help="RNG seed")
    return parent


def _output_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    parent.add_argument(
        "--out", metavar="PATH", default=None,
        help="write output to PATH instead of stdout",
    )
    return parent


def _emit(args: argparse.Namespace, text: str, payload) -> None:
    """Route command output per the shared --json/--out flags."""
    body = json.dumps(payload, indent=2) + "\n" if args.json else text
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


# -- commands ----------------------------------------------------------------


def _cmd_params(args: argparse.Namespace) -> int:
    from repro.fhe.params import PRESETS, get_params
    from repro.fhe.security import check_params

    names = [args.name] if args.name else sorted(PRESETS)
    for name in names:
        p = get_params(name)
        sec = check_params(p)
        print(p.describe())
        print(
            f"    security: RLWE {sec['rlwe_bits']:.0f} bits, keys (log2 QP = "
            f"{sec['logqp']:.0f}) {sec['key_bits']:.0f} bits, LWE {sec['lwe_bits']:.0f} bits"
        )
    return EXIT_OK


_EXPERIMENTS = {
    "table1": "render_table1",
    "table2": "render_table2",
    "table3": "render_table3",
    "table4": "render_table4",
    "table5": "render_table5",
    "table6": "render_table6",
    "table7": "render_table7",
    "table8": "render_table8",
    "table9": "render_table9",
    "fig1": "render_fig1",
    "fig4": "render_fig4",
    "fig8": "render_fig8",
    "fig9": "render_fig9",
    "fig10": "render_fig10",
    "fig11": "render_fig11",
    "fig12": "render_fig12",
    "fig13": "render_fig13",
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    import repro.eval as ev

    if args.id == "all":
        ids = list(_EXPERIMENTS)
    elif args.id in _EXPERIMENTS:
        ids = [args.id]
    else:
        print(f"unknown experiment {args.id!r}; options: "
              f"{', '.join(_EXPERIMENTS)} or 'all'", file=sys.stderr)
        return EXIT_USAGE
    rendered = {exp: getattr(ev, _EXPERIMENTS[exp])() for exp in ids}
    text = "".join(f"{body}\n\n" for body in rendered.values())
    _emit(args, text, [{"experiment": k, "rendered": v} for k, v in rendered.items()])
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.eval.zoo import get_benchmark

    entry = get_benchmark(args.model, seed=args.seed, refresh=args.refresh)
    print(f"{args.model}: float accuracy {entry.float_accuracy * 100:.2f}%")
    for label, qm in entry.quantized.items():
        acc = qm.accuracy(entry.data["x_test"], entry.data["y_test"])
        print(f"  {label}: plain-quant accuracy {acc * 100:.2f}%, "
              f"max |MAC| {qm.max_mac()}, fits t: {qm.check_t()}")
    return EXIT_OK


def _load_mp_payload(path: str) -> tuple:
    """Read a ``repro allocate --config-out`` artifact (or a bare MpConfig).

    Returns (seed, MpConfig, bias_correct, lut_margin). Accepts both the
    wrapped shape ``{"seed": ..., "mp": {...}, "bias_correct": ...,
    "lut_margin": ...}`` and a bare ``{"assignments": {...}}``; without a
    ``"seed"`` the subject is the default ``mp_micro_subject()``'s, 7.
    """
    from repro.quant.mp import DEFAULT_LUT_MARGIN, MpConfig

    with open(path) as fh:
        payload = json.load(fh)
    seed = int(payload.get("seed", 7))
    mp = MpConfig.from_json(payload.get("mp", payload))
    bias_correct = bool(payload.get("bias_correct", True))
    lut_margin = int(payload.get("lut_margin", DEFAULT_LUT_MARGIN))
    return seed, mp, bias_correct, lut_margin


def _mp_subject(mp_path: str | None):
    """The mixed-precision micro subject, quantized per the --mp artifact
    (built from the seed the artifact was allocated on)."""
    from repro.quant.mp import mp_micro_subject
    from repro.quant.quantize import quantize_model

    if not mp_path:
        model, x, _y, config = mp_micro_subject()
        return quantize_model(model, x, config, name="mp_cnn")
    seed, mp, bias_correct, lut_margin = _load_mp_payload(mp_path)
    model, x, _y, config = mp_micro_subject(seed)
    return quantize_model(model, x, config, name="mp_cnn", mp=mp,
                          bias_correct=bias_correct, lut_margin=lut_margin)


def _cmd_compile(args: argparse.Namespace) -> int:
    """Compile a micro subject into an on-disk plan artifact."""
    import time

    from repro.core.plan import compile_program
    from repro.core.program import lower
    from repro.fhe.params import TEST_LOOP, get_params
    from repro.fhe.serialize import dump_plan
    from repro.quant.subjects import micro_subject

    if args.mp and args.model != "mp_cnn":
        print("repro: error: --mp requires --model mp_cnn", file=sys.stderr)
        return EXIT_USAGE
    if args.model == "mp_cnn":
        subject, params = _mp_subject(args.mp), TEST_LOOP
    else:
        subject, params = micro_subject(args.model)
    if args.params:
        params = get_params(args.params)
    program = lower(subject, params)
    start = time.perf_counter()
    plan = compile_program(program, params)
    compile_s = time.perf_counter() - start
    raw = dump_plan(plan)
    out = args.out or f"{program.name}.plan"
    with open(out, "wb") as fh:
        fh.write(raw)
    payload = {
        "model": program.name,
        "params": params.name,
        "mp": args.mp,
        "model_hash": plan.model_hash,
        "compile_s": round(compile_s, 6),
        "bytes": len(raw),
        "out": out,
    }
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(
            f"compiled {program.name} @ {params.name} in {compile_s:.3f}s "
            f"({len(raw)} bytes) -> {out}\n"
            f"  model hash: {plan.model_hash}\n"
        )
    return EXIT_OK


def _cmd_allocate(args: argparse.Namespace) -> int:
    """Mixed-precision bit allocation on the TEST_FBS micro subject."""
    from repro.fhe.params import get_params
    from repro.quant.mp import allocate_bits, mp_micro_subject

    params = get_params(args.params)
    model, x, y, config = mp_micro_subject(seed=args.seed)
    res = allocate_bits(
        model, x, y, config,
        params=params,
        budget=args.budget,
        bias_correct=not args.no_bias_correct,
        lut_margin=args.lut_margin,
    )
    if args.config_out:
        artifact = {
            "seed": args.seed,
            "mp": res.mp.to_json(),
            "bias_correct": res.bias_correct,
            "lut_margin": res.lut_margin,
        }
        with open(args.config_out, "w") as fh:
            fh.write(json.dumps(artifact, indent=2) + "\n")
    text = res.report() + "\n"
    if args.config_out:
        text += f"wrote {args.config_out}\n"
    _emit(args, text, res.to_json())
    return EXIT_OK


def _infer_with_plan(args: argparse.Namespace) -> int:
    """Warm-session inference from a precompiled plan (micro pipeline)."""
    from pathlib import Path

    import numpy as np

    from repro.core.program import lower
    from repro.fhe.serialize import guess_params, load_plan
    from repro.quant.subjects import micro_subject
    from repro.serve import InferenceSession

    raw = Path(args.plan).read_bytes()
    params = guess_params(raw)
    if params is None:
        print("repro: error: plan artifact matches no known parameter preset",
              file=sys.stderr)
        return EXIT_FAILURE
    plan = load_plan(raw, params)
    qm, _ = micro_subject("mnist_cnn")
    program = lower(qm, params)
    # The session binds the plan: a plan compiled from another model is a
    # ParameterError -> exit 1 in main().
    session = InferenceSession(program, params, seed=args.seed, plan=plan)
    rng = np.random.default_rng(args.seed + 5)
    max_err = 0
    for _ in range(args.count):
        x_q = rng.integers(-3, 4, (1, 6, 6)).astype(np.int64)
        got = session.run(x_q)
        want = qm.forward_int(x_q[None])[0]
        max_err = max(max_err, int(np.abs(got - want).max()))
    stats = session.stats().to_dict()
    text = (
        f"{stats['detail']['model']} @ {params.name}, "
        f"{stats['requests']} warm requests\n"
        f"  compile_s (bind)   : {stats['timings']['compile_s']:.4f}s\n"
        f"  mean run_s         : {stats['timings']['mean_run_s']:.3f}s\n"
        f"  max |cipher-plain| : {max_err}\n"
    )
    payload = {**stats, "params": params.name, "max_abs_error": max_err}
    _emit(args, text, payload)
    return EXIT_OK


def _cmd_infer(args: argparse.Namespace) -> int:
    if getattr(args, "plan", None):
        if args.model != "mnist_cnn":
            print("repro: error: --plan inference supports only mnist_cnn",
                  file=sys.stderr)
            return EXIT_USAGE
        return _infer_with_plan(args)

    from repro.core.inference import SimulatedAthenaEngine
    from repro.eval.zoo import get_benchmark
    from repro.fhe.params import ATHENA

    entry = get_benchmark(args.model, seed=args.seed)
    qm = entry.quantized[args.mode]
    engine = SimulatedAthenaEngine(qm, ATHENA, seed=args.seed + 1)
    x = entry.data["x_test"][: args.count]
    y = entry.data["y_test"][: args.count]
    plain = qm.accuracy(x, y)
    cipher = engine.accuracy(x, y)
    text = (
        f"{args.model} ({args.mode}), {len(x)} images\n"
        f"  plain-quant accuracy : {plain * 100:.2f}%\n"
        f"  ciphertext accuracy  : {cipher * 100:.2f}%\n"
        f"  gap                  : {(cipher - plain) * 100:+.2f}%\n"
    )
    payload = {
        "model": args.model,
        "mode": args.mode,
        "count": len(x),
        "plain_accuracy": plain,
        "cipher_accuracy": cipher,
        "gap": cipher - plain,
    }
    _emit(args, text, payload)
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    """Analytical op-count trace; ``--executed`` compares against a real run."""
    import numpy as np

    from repro.core.trace import EXECUTED_FIELDS, trace_model
    from repro.quant.subjects import SUBJECT_SEED, SUBJECTS

    builder, params = SUBJECTS["mnist_cnn"]
    rng = np.random.default_rng(SUBJECT_SEED)  # also draws the input below
    qm = builder(rng)
    analytical = trace_model(qm, params, softmax=False)

    if not args.executed:
        by_phase = analytical.by_phase()
        payload = {
            "model": qm.name,
            "mode": "analytical",
            "phases": {
                phase: {f: getattr(ops, f) for f in EXECUTED_FIELDS}
                for phase, ops in sorted(by_phase.items())
            },
        }
        text = f"{qm.name} @ {params.name} (analytical)\n"
        for phase, ops in sorted(by_phase.items()):
            text += (f"  {phase:<10} ntt {ops.ntt:>10.0f}  "
                     f"mod_mul {ops.mod_mul:>12.0f}  "
                     f"mod_add {ops.mod_add:>12.0f}\n")
        _emit(args, text, payload)
        return EXIT_OK

    from repro.core.framework import AthenaPipeline
    from repro.core.plan import compile_program
    from repro.core.program import lower
    from repro.core.trace import compare_traces, executed_trace
    from repro.fhe.backend import CountingBackend, use_backend

    counting = CountingBackend()
    pipe = AthenaPipeline(params, seed=args.seed)
    x_q = rng.integers(-3, 4, qm.input_shape).astype(np.int64)
    with use_backend(counting):
        pipe.run(compile_program(lower(qm, params), params), x_q)
    executed = executed_trace(counting, params)
    comparison = compare_traces(executed, analytical)
    payload = {
        "model": qm.name,
        "mode": "executed",
        "backend": counting.name,
        "comparison": comparison,
        "phase_s": counting.summary()["phase_s"],
    }
    lines = [f"{qm.name} @ {params.name} (executed [{counting.name}] "
             f"vs analytical)"]
    for prim, row in comparison.items():
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}"
        lines.append(f"  {prim:<10} executed {row['executed']:>14.0f}  "
                     f"analytical {row['analytical']:>14.0f}  ratio {ratio}")
    lines.append("  seconds    " + "  ".join(
        f"{phase} {seconds:.3f}" for phase, seconds in payload["phase_s"].items()))
    _emit(args, "\n".join(lines) + "\n", payload)
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    """Stand up the layered service in process and answer a demo batch."""
    import numpy as np

    from repro.perf import ExecConfig
    from repro.quant.subjects import micro_subject
    from repro.serve import AthenaService, InferenceRequest, Tenant

    qm, params = micro_subject(args.model)
    shared = args.shared_keys
    tenants = [
        Tenant(f"tenant{i}", params,
               seed=args.seed if shared else args.seed + i)
        for i in range(args.tenants)
    ]
    service = AthenaService(
        tenants,
        exec_config=ExecConfig(args.mode, args.workers),
        queue_capacity=max(1, -(-args.requests // args.tenants)),
        transport_s=args.transport_ms / 1000.0,
        batching=not args.no_batching,
        batch_window_s=args.batch_window_ms / 1000.0,
    )
    fingerprint = service.register_model(qm.name, qm)
    rng = np.random.default_rng(args.seed + 7)
    cin, h, w = qm.input_shape
    batch = [
        InferenceRequest(
            tenant_id=tenants[i % args.tenants].tenant_id,
            model=qm.name,
            x_q=rng.integers(-2, 3, (cin, h, w)).astype(np.int64),
        )
        for i in range(args.requests)
    ]
    results = service.serve_batch(batch)
    stats = service.stats().to_dict()
    scheduler = stats["detail"]["scheduler"]
    sched = scheduler["counters"]
    occupancy = scheduler["detail"]["occupancy_mean"]
    lines = [
        f"{qm.name} @ {params.name} ({fingerprint[:16]}), "
        f"{len(results)} requests, {args.tenants} tenants, "
        f"{args.workers} {args.mode} worker(s)",
        f"  scheduler : accepted {sched['accepted']}, "
        f"rejected {sched['rejected']}, "
        f"peak queue depth {sched['queue_depth_max']}",
        f"  batching  : {sched['batches']} batches, "
        f"mean occupancy "
        f"{'n/a' if occupancy is None else format(occupancy, '.2f')}",
        f"  plan cache: {stats['detail']['plan_cache']['hits']} hits / "
        f"{stats['detail']['plan_cache']['misses']} misses",
    ]
    for tid, trec in sorted(stats["detail"]["tenants"].items()):
        lines.append(
            f"  {tid:<10}: {trec['requests']} answered, "
            f"key material {trec['key_material_mb']} MiB"
        )
    _emit(args, "\n".join(lines) + "\n", stats)
    return EXIT_OK


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.accel.ablation import run_ablations
    from repro.eval.render import render_table

    results = run_ablations(args.model)
    rows = [(r.name, f"{r.baseline_ms:.1f}", f"{r.ablated_ms:.1f}",
             f"{r.slowdown:.2f}x") for r in results]
    print(render_table(["ablation", "baseline ms", "ablated ms", "slowdown"],
                       rows, f"Design ablations ({args.model})"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Athena reproduction command line"
    )
    from repro.quant.subjects import SUBJECTS

    sub = parser.add_subparsers(dest="command", required=True)
    seed = _seed_parent()
    output = _output_parent()
    subjects = list(SUBJECTS)

    p = sub.add_parser("params", help="show FHE parameter sets")
    p.add_argument("name", nargs="?", help="preset name (default: all)")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("experiment", parents=[output],
                       help="regenerate a paper table/figure")
    p.add_argument("id", help="table1..table9, fig1..fig13, or 'all'")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("train", parents=[seed],
                       help="train + quantize a benchmark model")
    p.add_argument("model", choices=_MODELS)
    p.add_argument("--refresh", action="store_true", help="ignore the cache")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", parents=[seed, output],
                       help="encrypted-pipeline inference")
    p.add_argument("model", choices=_MODELS)
    p.add_argument("--mode", default="w7a7", choices=["w7a7", "w6a7"])
    p.add_argument("--count", type=int, default=128)
    p.add_argument("--plan", metavar="PATH", default=None,
                   help="run warm-session inference from a compiled plan "
                        "(mnist_cnn only; see 'repro compile')")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("compile",
                       help="precompute a CompiledProgram plan artifact")
    p.add_argument("--model", default="mnist_cnn",
                   choices=subjects + ["mp_cnn"],
                   help="micro subject (default: mnist_cnn; 'mp_cnn' "
                        "is the mixed-precision subject of "
                        "'repro allocate')")
    p.add_argument("--params", default=None,
                   help="parameter preset (default: the subject's own; "
                        "test-loop for mnist_cnn and mp_cnn)")
    p.add_argument("--mp", metavar="PATH", default=None,
                   help="mixed-precision config artifact from "
                        "'repro allocate --config-out' (requires "
                        "--model mp_cnn; changes the fingerprint)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="artifact path (default: <model>.plan)")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON summary")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("allocate", parents=[seed, output],
                       help="mixed-precision bit allocation (repro.quant.mp)")
    p.add_argument("--params", default="test-fbs",
                   help="parameter preset for cost scoring "
                        "(default: test-fbs)")
    p.add_argument("--budget", type=float, default=0.02,
                   help="max calibration accuracy drop (default: 0.02)")
    p.add_argument("--no-bias-correct", action="store_true",
                   help="disable CalibTIP-style per-layer bias correction")
    p.add_argument("--lut-margin", type=int, default=8,
                   help="restricted-LUT safety margin over the calibrated "
                        "MAC peak (default: 8)")
    p.add_argument("--config-out", metavar="PATH", default=None,
                   help="write the chosen MpConfig artifact for "
                        "'repro compile --mp'")
    p.set_defaults(func=_cmd_allocate, seed=7)

    p = sub.add_parser("trace", parents=[seed, output],
                       help="primitive op-count trace (analytical model)")
    p.add_argument("--executed", action="store_true",
                   help="run the micro model under a CountingBackend and "
                        "compare executed vs analytical counts")
    p.set_defaults(func=_cmd_trace, seed=41)

    p = sub.add_parser("serve", parents=[seed, output],
                       help="multi-tenant serving demo (in-process)")
    p.add_argument("--model", default="serve_micro",
                   choices=subjects,
                   help="demo model, served at its own parameter set; "
                        "'pack' has batch_capacity 2 (default: serve_micro)")
    p.add_argument("--tenants", type=int, default=2,
                   help="number of tenants (default: 2)")
    p.add_argument("--requests", type=int, default=4,
                   help="demo requests, round-robin across tenants")
    p.add_argument("--workers", type=int, default=1,
                   help="worker count (default: 1)")
    p.add_argument("--mode", default="thread",
                   choices=["thread", "process"],
                   help="worker executor mode (default: thread)")
    p.add_argument("--transport-ms", type=float, default=0.0,
                   help="per-batch ciphertext transport window, ms")
    p.add_argument("--no-batching", action="store_true",
                   help="disable cross-request ciphertext batching")
    p.add_argument("--batch-window-ms", type=float, default=50.0,
                   help="max wait for batch co-riders, ms (default: 50)")
    p.add_argument("--shared-keys", action="store_true",
                   help="give every tenant the same keygen seed (one key "
                        "domain: enables cross-tenant batching)")
    p.set_defaults(func=_cmd_serve, seed=41)

    p = sub.add_parser("ablation", help="accelerator design ablations")
    p.add_argument("--model", default="resnet20")
    p.set_defaults(func=_cmd_ablation)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedLayer as exc:
        where = "" if exc.index is None else f" at layer {exc.index}"
        what = "" if exc.layer_type is None else f" ({exc.layer_type})"
        print(f"repro: error: unsupported layer{where}{what}: {exc}",
              file=sys.stderr)
        return EXIT_FAILURE
    except ModulusOverflow as exc:
        hint = ""
        if exc.layer is not None and exc.excess is not None:
            hint = (f" (allocate a narrower bit-width to {exc.layer} "
                    f"or raise t; needs {exc.excess} less)")
        print(f"repro: error: {exc}{hint}", file=sys.stderr)
        return EXIT_FAILURE
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
