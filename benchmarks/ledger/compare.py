"""``run.py --check A.json B.json``: do two result files agree?

One row per (workload, end-to-end metric): both values, the relative change
of B against A signed so that positive is worse, the metric's bound from
BENCHMARK.json, and a verdict:

* ``unresolved`` — the two runs' own quartile ranges overlap by more than
  the bound, so a change of that size cannot be told from their spread;
* ``worse`` / ``better`` — B is beyond the bound on that side;
* ``within`` — neither.

Exact-count metrics and output digests must be *equal* when the seeds match.
The exit code is non-zero on any ``worse`` row, any such inequality, or a
larger failed share in B.
"""

from __future__ import annotations

import json
from pathlib import Path

EXACT_PREFIX = "fhe.backend.count."


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """Relative worsening of ``b`` against ``a`` and what it amounts to."""
    change = (b["value"] - a["value"]) / a["value"]
    worse_by = change if better == "lower" else -change
    overlap = min(a["q3"], b["q3"]) - max(a["q1"], b["q1"])
    if overlap / a["value"] > bound:
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if worse_by < -bound:
        return worse_by, "better"
    return worse_by, "within"


def check(path_a: Path, path_b: Path, spec: dict) -> int:
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    same_seed = a["seed"] == b["seed"]
    bad = 0
    print(f"{'workload':<14}{'metric':<16}{'A':>12}{'B':>12}{'worse by':>10}"
          f"{'bound':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for m in spec["end_to_end"]:
            ma = wa["end_to_end"]["metrics"][m["name"]]
            mb = wb["end_to_end"]["metrics"][m["name"]]
            worse_by, word = verdict(ma, mb, m["better"], m["bound"])
            bad += word == "worse"
            print(f"{workload:<14}{m['name']:<16}{ma['value']:>12.5g}"
                  f"{mb['value']:>12.5g}{worse_by:>+10.1%}{m['bound']:>7.2f}  {word}")
        for which in ("end_to_end", "per_layer"):
            ra, rb = wa[which], wb[which]
            share_a = ra["failed"] / ra["attempted"]
            share_b = rb["failed"] / rb["attempted"]
            if share_b > share_a:
                bad += 1
                print(f"{workload:<14}{which}: failed share rose "
                      f"{share_a:.3f} -> {share_b:.3f}")
            if same_seed and ra["digest"] != rb["digest"]:
                bad += 1
                print(f"{workload:<14}{which}: output digests differ")
        if same_seed:
            for name, ma in wa["per_layer"]["metrics"].items():
                mb = wb["per_layer"]["metrics"][name]
                if name.startswith(EXACT_PREFIX) and ma["value"] != mb["value"]:
                    bad += 1
                    print(f"{workload:<14}{name}: {ma['value']} != {mb['value']}")
    if not same_seed:
        print("seeds differ: exact counts and output digests not compared")
    print("agree" if not bad else f"{bad} disagreement(s)")
    return 1 if bad else 0
