"""Self-tests of the perf ledger (``python -m pytest benchmarks/ledger -q``).

The first half checks the benchmark's own machinery with no program change
(the metric tables, the output checker, the span wrapper, the comparator);
the second half runs ``run.py --smoke`` twice with one seed (~1 min each).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.errors import ServiceOverloaded  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_tables():
    workload_names = [w["name"] for w in SPEC["workloads"]]
    end_to_end = {m["name"]: m for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m for m in SPEC["per_layer"]}
    assert len(workload_names) == 4
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    for name in [*workload_names, *end_to_end, *per_layer]:
        assert NAME.fullmatch(name), name
    assert end_to_end["setup_s"] == {
        "name": "setup_s", "unit": "s", "better": "lower",
        "bound": max(m["bound"] for m in end_to_end.values()),
    }
    assert all(0 < m["bound"] <= 0.25 for m in end_to_end.values())
    assert SPEC["paths"] == ["benchmarks/ledger"]
    # layers.json is the per-layer table; BENCHMARK.json repeats its names.
    assert list(per_layer) == list(LAYERS)
    for name, entry in LAYERS.items():
        assert per_layer[name] == {
            "name": name, "unit": entry["unit"], "better": entry["better"]}
        # Each declares the end-to-end metric and workload it should move,
        # or says why it moves none.
        assert entry["moves"] or entry["note"], name
        for move in entry["moves"]:
            metric, workload = move.split("@")
            assert metric in end_to_end and workload in workload_names, move


def test_checker_counts_every_kind_of_failure():
    t = workloads.SUBJECTS["infer_wide"].params.t
    reference = np.array([1, -2, 0])
    checker = workloads.Checker(tolerance=8)
    assert checker.call(lambda: reference + 8, reference)
    shifted = reference.copy()
    shifted[1] += t // 2  # a wrong LUT table misses by about this much
    assert not checker.call(lambda: shifted, reference)

    def raises():
        raise ValueError("boom")

    def shed():
        raise ServiceOverloaded("queue full", tenant_id="tenant0", depth=8, capacity=8)

    assert not checker.call(raises, reference)
    assert not checker.call(shed, reference)
    assert (checker.attempted, checker.failed) == (4, 3)
    assert checker.max_abs_err == t // 2


def test_span_backend_changes_no_output():
    """Same seed, same request order: a SpanBackend run is bit-identical to
    a bare BATCHED run, and its self times account for the whole run."""
    log = spans.SpanLog()
    bare = workloads.InferWorkload("serve_packed", seed=3)
    wrapped = workloads.InferWorkload(
        "serve_packed", seed=3, backend=spans.SpanBackend(log))
    for load in (bare, wrapped):
        load.setup()
    for x, _ in bare.inputs.take(3):
        assert np.array_equal(bare.op(x), log.root(wrapped.op, x))
    selfs = log.self_times()
    for root in range(len(log)):
        assert log.end[root] >= log.start[root]
        if log.name[root] == spans.ROOT:
            inside = sum(s for index, s in enumerate(selfs)
                         if log.iteration[index] == log.iteration[root]
                         and index != root)
            assert 0.98 * log.duration(root) <= inside <= log.duration(root)
    assert {"fbs", "matvec", "s2c", "giant_step_batch", "rotate_keyswitch"} <= set(log.name)


def test_verdicts():
    def m(value, q1, q3):
        return {"value": value, "q1": q1, "q3": q3}

    assert compare.verdict(m(10, 9.9, 10.1), m(10.5, 10.4, 10.6), "lower", 0.1)[1] == "within"
    assert compare.verdict(m(10, 9.9, 10.1), m(11.5, 11.4, 11.6), "lower", 0.1)[1] == "worse"
    assert compare.verdict(m(10, 9.9, 10.1), m(11.5, 11.4, 11.6), "higher", 0.1)[1] == "better"
    assert compare.verdict(m(10, 8, 12), m(11.5, 9, 13), "lower", 0.1)[1] == "unresolved"


# -- on top of ``run.py --smoke`` -------------------------------------------------


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    runs = []
    for tag in ("a", "b"):
        path = out / f"{tag}.json"
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "7",
             "--out", str(path)],
            check=True, stdout=subprocess.DEVNULL, timeout=600,
        )
        runs.append(json.loads(path.read_text()))
    return out, runs


def test_smoke_reports_every_metric(smoke_runs):
    _, (run, _) = smoke_runs
    assert list(run["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, record in run["workloads"].items():
        untraced, traced = record["end_to_end"], record["per_layer"]
        assert list(untraced["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
        assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
        assert all(m["value"] > 0 for m in untraced["metrics"].values()), name
        for which in (untraced, traced):
            assert which["attempted"] >= 2 and which["failed"] == 0, name
        layers = {k: m["value"] for k, m in traced["metrics"].items()}
        # Backend span self-times account for the traced wall within 2 %.
        assert 0 <= layers["trace.unattributed_share"] < 0.02, name
        assert layers["fhe.backend.count.mod_mul"] > 0, name


def test_smoke_shows_the_two_contrasts(smoke_runs):
    _, (run, _) = smoke_runs

    def layers(name):
        return {k: m["value"]
                for k, m in run["workloads"][name]["per_layer"]["metrics"].items()}

    wide, narrow = layers("infer_wide"), layers("infer_narrow")
    assert wide["share.fbs"] > 0.6
    assert narrow["share.pack"] + narrow["share.s2c"] > 0.5
    assert layers("serve_packed")["serve.batching.occupancy"] > 0.5


def test_smoke_counts_and_digests_repeat(smoke_runs, capsys):
    out, (a, b) = smoke_runs
    for name in a["workloads"]:
        for which in ("end_to_end", "per_layer"):
            assert (a["workloads"][name][which]["digest"]
                    == b["workloads"][name][which]["digest"]), (name, which)
        for metric, m in a["workloads"][name]["per_layer"]["metrics"].items():
            if metric.startswith(compare.EXACT_PREFIX):
                assert m == b["workloads"][name]["per_layer"]["metrics"][metric]
    # A run agrees with itself; the table has a row for every pairing.
    assert compare.check(out / "a.json", out / "a.json", SPEC) == 0
    table = capsys.readouterr().out
    for workload in a["workloads"]:
        for metric in SPEC["end_to_end"]:
            assert f"{workload:<14}{metric['name']:<16}" in table
