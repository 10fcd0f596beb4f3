"""What a one-implementation refactor deleted stays deleted.

Each case is a grep over the tree for the names a refactor replaced — a
twin body, a switch, a registry — and fails on any match. A case reads
``(rule, pattern, paths)``: ``pattern`` is an extended regular expression
(``re.escape`` of a literal string), ``paths`` are files or directories from
the repository root, and a ``:!path`` entry excludes that path. One more
case reads a class's own definitions, where a grep cannot tell two classes
of one file apart.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STAYS_DELETED = [
    # One keyswitch (the base-2^w gadget stays deleted).
    ("one-keyswitch",
     r"decomp_bits|gadget_digit_rows|gadget_decompose|base_bits",
     "src/repro/fhe/keys.py src/repro/fhe/backend.py src/repro/fhe/params.py "
     "src/repro/fhe/packing.py src/repro/fhe/bfv.py src/repro/core/keyinventory.py"),
    # One keyswitch digit path (grouped digits over Q u P, no per-limb digits beside them).
    ("one-digit-path",
     r"_digit_rows|_digit_residues|_special_inverse|special_prime",
     "src/repro"),
    # One stacked NTT (the GEMM kernel, no radix-2 stage loop or switch beside it).
    ("one-stacked-ntt",
     r"_lazy_mul|_MIN_ROW|_rns_tables|_radix2|REPRO_NTT",
     "src/repro/fhe/ntt.py"),
    # FBS dispatches stacked ops only (a ladder level is one cmult_batch, the baby
    # steps one lincomb).
    ("fbs-stacked-ops",
     r"ctx\.(cmult|smult)\(",
     "src/repro/fhe/fbs.py"),
    # Counting records where the kernels run (no billing formulas beside them, no
    # per-instance chunk cap).
    ("counting-reference-bodies",
     r"_keyswitch_units|_rotate_units|_cmult_units|def inv_scalar|giant_batch_elems",
     "src/repro"),
    # One integer walker, one max-tree (the simulated engine only overrides
    # PlainIntExecutor's hooks).
    ("one-integer-walker",
     r"def max_tree_plain|_SimulatedExecutor\(ProgramExecutor\)|\.max\(axis=-1\)",
     "src/repro/core"),
    # One calibration walker (quantize_model threads no integer forward of its own).
    ("one-calibration-walker",
     r"_forward_int|def _correct_bias|x_q=None|mac_nodes",
     "src/repro/quant"),
    # One backend pin (no ParallelMap, no executor environment knobs).
    ("one-backend-pin",
     r"_dispatch\(\)|ParallelMap|from_env|REPRO_EXECUTOR|REPRO_WORKERS",
     "src/repro/core src/repro/perf src/repro/eval"),
    # One backend pin (only a session pins the engine, not a tenant).
    ("one-backend-pin-tenant",
     re.escape("backend"),
     "src/repro/serve/tenant.py"),
    # One batch former (the scheduler forms lane batches; no assembler, no max_batch,
    # one LWE gadget base).
    ("one-batch-former",
     r"BatchAssembler|RequestBatch|take_matching|wait_for_activity|next_request\(|"
     r"max_batch|ks_base_bits",
     "src/repro"),
    # No radix-2 transform on the slot path (slot encode / decode run the stacked
    # kernel over (t,)).
    ("slot-path-stacked",
     r"\bntt_(forward|inverse)\(",
     "src/repro/fhe/slots.py"),
    # Derived plans have one owner (no registry, no baby-step option).
    ("derived-plans-one-owner",
     r"register_interpolation|_INTERP_CACHE|_interpolate_cached|_fbs_plan|_s2c_plan|"
     r"_mac_relu_lut|baby_steps: int \| None|FbsLut\.from_coeffs",
     "src/repro"),
    # Derived plans have one owner (no FBS / S2C entry point takes a plan).
    ("no-plan-argument",
     r"(fbs_evaluate|slot_to_coeff|\.fbs|\.s2c|bootstrap|to_coeffs)\(.*plan=",
     "src tests benchmarks examples"),
    # A plan runs by itself (the ciphertext engine walks the plan, no step-id map).
    ("plan-runs-by-itself",
     r"_index_steps|_artifacts|class S2CPlan|def compile\(self",
     "src/repro"),
    # A plan runs by itself (bind runs only where a plan meets a model).
    ("bind-where-plan-meets-model",
     r"\.bind\(",
     "src/repro :!src/repro/core/plan.py :!src/repro/serve/session.py "
     ":!src/repro/serve/cache.py"),
    # One is a batch of one (a single image runs the lane path).
    ("batch-of-one-lanes",
     r"if self\.lanes > 1 else None|_encode_lanes|len\(xs\) == 1",
     "src/repro/core/framework.py"),
    # One is a batch of one (a single worker runs the thread pool).
    ("batch-of-one-pool",
     re.escape('"serial"'),
     "src/repro/perf/parallel.py"),
    # One is a batch of one (no serial executor mode).
    ("batch-of-one-serve",
     re.escape('mode == "serial"'),
     "src/repro/serve"),
    # The wire carries plans only (no ciphertext, LWE-batch or secret-key codec; no
    # test-only scheduler wrapper or budget error).
    ("wire-carries-plans-only",
     r"dump_ciphertext|load_ciphertext|dump_lwe_batch|load_lwe_batch|secret_key\(|"
     r"allow_secret|KIND_(CIPHERTEXT|LWE_BATCH|SECRET_KEY)|schedule_executed|"
     r"NoiseBudgetExhausted",
     "src benchmarks examples"),
    # The CMult reduces once (one base-extension body, no reduced/unreduced twin).
    ("cmult-reduces-once",
     r"base_extend_(raw|lazy)|_raw\(|reduce=(True|False)",
     "src/repro/fhe"),
    # A base extension is one split and two BLAS products (the overflow estimate is a
    # row, the v * Q and shift corrections are weight columns; no side passes).
    ("base-extend-one-product",
     r"recip|q_mod|shift_mod|sum\(axis=-2\)",
     "src/repro/fhe/rns.py"),
    # An FBS plan is its coefficient matrix (no group tuples, no rebuilt baby matrix,
    # no constant plaintexts or their encode pass).
    ("fbs-plan-is-its-matrix",
     r"baby_terms|const_plaintext|_const_pts|def materialize",
     "src/repro/fhe/fbs.py"),
    # A plan is complete when it is built (its constructor derives every lane layout;
    # no lazy per-lane-count build, no out stride annotated on a step).
    ("plan-is-complete-when-built",
     r"_lane_layouts|lane_out_stride|def lane_layout",
     "src"),
    # A plan is complete when it is built (a loaded plan derives nothing beside the
    # constructor: no lane chain, no S2C plan of its own).
    ("plan-is-complete-when-loaded",
     r"_annotate_lanes|s2c_plan",
     "src/repro/fhe/serialize.py"),
    # One RNS body for the element-wise ops (no per-limb reference loop beside the
    # stacked pass: add / sub / neg's in-place %, scalar_mul's per-prime scalar,
    # automorphism's per-limb scatter, shift's per-limb roll).
    ("one-elementwise-rns-body",
     r"\]\s*%= p\b|\(value % p\)|i, dest\]|limb = a\[",
     "src/repro/fhe/backend.py"),
    # One executed stream (the recorder is the batched engine: no name for the
    # arithmetic beside the engine's own, no inner engine it delegates to).
    ("one-executed-stream-name",
     re.escape("rns_name"),
     "src/repro"),
    ("one-executed-stream-delegate",
     re.escape("self.inner."),
     "src/repro/fhe/backend.py"),
    # One engine switch (REPRO_BACKEND; no CLI flag beside it).
    ("one-engine-switch",
     re.escape('"--backend"'),
     "src/repro/cli.py"),
    # One CMult entry point (a single CMult is a one-pair cmult_batch).
    ("one-cmult-entry",
     re.escape("def cmult("),
     "src/repro/fhe/bfv.py"),
    # One memory policy (the allocator keeps freed pages; no kernel scratch buffer).
    ("one-memory-policy",
     r"_SCRATCH|def scratch|scratch\(",
     "src/repro/fhe"),
]

#: The element-wise RNS ops, one body on every engine (Backend's).
ONE_RNS_BODY = {"add", "sub", "neg", "scalar_mul", "automorphism", "shift"}


def _generated(path: Path) -> bool:
    """Build, test and run output that is not part of the tree."""
    rel = path.relative_to(ROOT)
    return (any(part in ("__pycache__", ".hypothesis", ".benchmarks")
                or part.endswith(".egg-info") for part in rel.parts)
            or rel.parts[:3] == ("benchmarks", "ledger", "out"))


def grep(pattern: str, paths: str) -> list[str]:
    """``file:line: text`` of every line under ``paths`` that ``pattern``
    matches."""
    regex = re.compile(pattern)
    specs = paths.split()
    excluded = {ROOT / spec[2:] for spec in specs if spec.startswith(":!")}
    hits = []
    for spec in specs:
        if spec.startswith(":!"):
            continue
        base = ROOT / spec
        assert base.exists(), f"{spec} is gone: point the rule at its new home"
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            if path in excluded or _generated(path):
                continue
            for number, line in enumerate(path.read_text(errors="replace").splitlines(), 1):
                if regex.search(line):
                    hits.append(f"{path.relative_to(ROOT)}:{number}: {line.strip()}")
    return hits


@pytest.mark.parametrize("pattern, paths", [
    pytest.param(pattern, paths, id=rule) for rule, pattern, paths in STAYS_DELETED])
def test_stays_deleted(pattern, paths):
    assert grep(pattern, paths) == []


def test_the_fast_engine_defines_no_elementwise_rns_op():
    """Both engines live in one file, where a grep cannot tell their
    methods apart: the fast engine's own definitions are read instead."""
    from repro.fhe.backend import BatchedBackend

    assert ONE_RNS_BODY & set(vars(BatchedBackend)) == set()
