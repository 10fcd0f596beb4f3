"""Perf ledger runner.

One workload, as the benchmark driver calls it (the last line of stdout is
the result object)::

    python3 benchmarks/ledger/run.py --workload infer_wide --seed 1 \\
        --seconds 20 --trace 0

Every workload, untraced then traced, into one result file; or two result
files compared row by row::

    python3 benchmarks/ledger/run.py --seed 1 --out benchmarks/ledger/out/a.json
    python3 benchmarks/ledger/run.py --smoke --out benchmarks/ledger/out/s.json
    python3 benchmarks/ledger/run.py --check a.json b.json

See README.md beside this file for what is measured and why.
"""

from __future__ import annotations

import time

#: Process start as far as this benchmark can see it: taken before the
#: heavy imports, so ``setup_s`` includes them.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def scrub_environment() -> None:
    """Pin what the environment could otherwise change under the benchmark.

    Must run before numpy is imported (thread pools size at import). Child
    processes are this script again, so they do the same for themselves."""
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    for name in ("REPRO_BACKEND", "REPRO_EXECUTOR", "REPRO_WORKERS"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def metric(values: list[float], unit: str) -> dict:
    """Median of ``values`` with its quartiles and sample count."""
    q1, q3 = quartiles(values)
    return {"value": statistics.median(values), "unit": unit,
            "q1": q1, "q3": q3, "n": len(values)}


def environment(calib_s: list[float]) -> dict:
    import numpy

    q1, q3 = quartiles(calib_s)
    median = statistics.median(calib_s)
    env = {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calib_s": {"median": median, "q1": q1, "q3": q3, "n": len(calib_s)},
    }
    if (q3 - q1) / median > 0.15:
        print(f"warning: calibration quartiles spread {(q3 - q1) / median:.0%} "
              "of their median; the box is noisy, treat this run with care",
              file=sys.stderr)
    return env


# -- one workload (the driver's contract) -----------------------------------------


def run_untraced(name: str, seed: int, seconds: float, more_setups: bool) -> dict:
    import workloads
    from calib import at_reference_pace

    load = workloads.make(name, seed)
    load.setup()
    load.warm_up()
    setup_wall_s = time.perf_counter() - T0
    setups = [at_reference_pace(setup_wall_s)]
    for _ in range(load.setups - 1 if more_setups else 0):
        setups.append(workloads.run_probe(name, seed)["setup_s"])
    samples = load.measure(seconds)
    rss = load.rss_mb()
    load.close()
    checker = load.checker
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "max_abs_err": checker.max_abs_err,
        "digest": checker.digest(),
        "metrics": {
            "setup_s": metric(setups, "s"),
            "op_p50_cu": metric(samples.latency_cu, "cu"),
            "goodput_per_cu": {
                **metric([c / w for c, w in samples.rounds], "op/cu"),
                "value": samples.goodput(),
            },
            "peak_rss_mb": metric([rss], "MiB"),
        },
        "info": {
            "stages": load.stages,
            "setup_wall_s": setup_wall_s,
            "op_p50_s": statistics.median(samples.latency_s),
            **samples.info,
        },
        "calib_s": samples.calib_s,
    }


def run_workload(args) -> int:
    # A smoke run: the minimum two rounds, one set-up, no serial pin.
    seconds = 0.0 if args.smoke else args.seconds
    if args.trace:
        import tracing

        record = tracing.run_traced(args.workload, args.seed, seconds,
                                    pin_serial=not args.smoke, spans_path=args.spans,
                                    import_s=time.perf_counter() - T0)
    else:
        record = run_untraced(args.workload, args.seed, seconds,
                              more_setups=not args.smoke)
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, smoke=args.smoke,
                  env=environment(record.pop("calib_s")))
    if args.report:
        Path(args.report).write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload}: attempted {record['attempted']} "
          f"failed {record['failed']} max_abs_err {record['max_abs_err']}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }))
    return 0


def probe(args) -> int:
    """Fresh-process life cycle of one workload: set up, answer once
    (the child side of ``workloads.run_probe``)."""
    import workloads
    from calib import at_reference_pace

    kwargs = {"cache_dir": args.cache_dir} if args.cache_dir else {}
    import_s = time.perf_counter() - T0
    load = workloads.make(args.probe, args.seed, **kwargs)
    load.setup()
    ready_s = time.perf_counter() - T0
    if not args.ready_only:
        load.warm_up()
    setup_wall_s = time.perf_counter() - T0
    report = load.report()
    load.close()
    report.update(import_s=import_s, ready_s=ready_s, setup_wall_s=setup_wall_s,
                  rss_mb=workloads.peak_rss_mb())
    if not args.cache_dir:
        # A set-up sample. (With a cache directory the probe is cold_start's
        # operation: its parent times it and brackets it with calibrations.)
        report["setup_s"] = at_reference_pace(setup_wall_s)
    print(json.dumps(report))
    return 0


# -- every workload, both passes --------------------------------------------------


def run_passes(name: str, seed: int, seconds: float, smoke: bool, out: Path):
    """Untraced then traced pass of one workload, each in its own process."""
    passes, lines = [], []
    for trace in (0, 1):
        report = out.with_name(f"{out.stem}-{name}-{trace}.json")
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--report", str(report)]
        if trace:
            cmd += ["--spans", str(out.with_name(f"spans-{name}.jsonl"))]
        if smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{name} (trace {trace}) exited {done.returncode}")
        passes.append(json.loads(report.read_text()))
        report.unlink()
        lines += done.stdout.strip().splitlines()[:-1]  # all but the driver's line
    return passes, lines


def run_all(args) -> int:
    from concurrent.futures import ThreadPoolExecutor

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    result = {"schema": 1, "seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "workloads": {}}
    failed = 0
    # Measured runs go one at a time; a smoke run times nothing worth
    # keeping, so it may use both cores.
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        jobs = [pool.submit(run_passes, name, args.seed, args.seconds, args.smoke, out)
                for name in WORKLOADS]
        for name, job in zip(WORKLOADS, jobs):
            (untraced, traced), lines = job.result()
            print("\n".join(lines))
            failed += untraced["failed"] + traced["failed"]
            result["workloads"][name] = {"end_to_end": untraced, "per_layer": traced}
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}; {failed} operations failed")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="draws the inputs; weights and keys are fixed")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="how long one run measures (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass, per-layer metrics")
    parser.add_argument("--out", help="run every workload, both passes, into FILE")
    parser.add_argument("--smoke", action="store_true",
                        help="two iterations, one set-up, no serial pin")
    parser.add_argument("--check", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result files")
    parser.add_argument("--report", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    parser.add_argument("--probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--cache-dir", help=argparse.SUPPRESS)
    parser.add_argument("--ready-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.check:
        import compare

        return compare.check(Path(args.check[0]), Path(args.check[1]), SPEC)
    scrub_environment()
    if args.probe:
        return probe(args)
    if args.workload:
        return run_workload(args)
    if args.out:
        return run_all(args)
    parser.error("one of --workload, --out or --check is required")


if __name__ == "__main__":
    sys.exit(main())
