"""The execution census: every function in ``src/repro`` that no production
run enters has a one-line reason, and no reason is stale.

The bare-name definition guard (``tests/test_imports.py``) counts a name as
called when anything refers to it, so a dead method survives behind a live
one of the same name. The census runs what CI runs outside the tests — the
CLI and example smokes on both engine legs, every paper bench and the perf
ledger's smoke — each in a fresh process with a ``sitecustomize.py`` on
``PYTHONPATH`` that records every ``(co_filename, co_firstlineno, co_name)``
entered, threads and subprocesses included. Each record maps to its ``def``
(a decorated one starts at its first decorator; a lambda or comprehension on
that line does not count). A function no run enters needs a reason in
``tests/test_imports.py::KEPT``, keyed by qualified name; a reason for a
function that is entered, or no longer exists, fails too.

Whether a bench passes is not the census's verdict, so its exit status is
ignored; a smoke that fails would hide what it enters, so it fails the
census. Run alone, never in one process with the tests (a test that swaps
the profiler or tracer would hide what follows it)::

    PYTHONPATH=src python -m pytest -q -s benchmarks/test_census.py

About 7 minutes on two cores, most of it Table 5 training the zoo into a
fresh artifacts directory. ``pytest benchmarks --benchmark-only`` skips it:
it takes no ``benchmark`` fixture.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Installed as ``sitecustomize`` in every census process: a trace function
#: that sees only ``call`` events (it returns None, so no line events) and
#: writes what it saw at exit. Pool children that leave through ``os._exit``
#: write nothing.
HOOK = '''
import atexit, os, sys, threading, uuid

_PREFIX = os.environ["CENSUS_PREFIX"]
_SEEN = set()


def _hook(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(_PREFIX):
        _SEEN.add((code.co_filename, code.co_firstlineno, code.co_name))


def _dump():
    sys.settrace(None)
    out = os.path.join(os.environ["CENSUS_OUT"], f"{os.getpid()}-{uuid.uuid4().hex}")
    with open(out, "w") as fh:
        fh.writelines(f"{path}\\t{line}\\t{name}\\n" for path, line, name in _SEEN)


sys.settrace(_hook)
threading.settrace(_hook)
atexit.register(_dump)
'''

#: What CI runs outside the tests, per engine leg: each argv as a line of
#: ``.github/workflows/ci.yml`` spells it.
SMOKES = [
    "python -m repro params",
    "python -m repro experiment table3",
    "python -m repro ablation --model mnist_cnn",
    "python -m repro trace --json",
    "python -m repro allocate --json",
    "python -m repro allocate --seed 3 --config-out a.json",
    "python -m repro compile --model mp_cnn --mp a.json --out a.plan",
    "python -m repro trace --executed --json",
    "python -m repro serve --model pack --shared-keys --requests 4 --json",
    "python -m repro compile --model mnist_cnn --out ci.plan",
    "python -m repro infer mnist_cnn --plan ci.plan --count 1",
    "python -m repro compile --model resnet20_block --out block.plan",
    "python -m repro compile --model serve_micro --out micro.plan",
    "python examples/quickstart.py",
    "python examples/custom_activation.py",
    "python examples/accelerator_comparison.py",
    "python examples/encrypted_conv_loop.py",
    "python examples/new_model.py",
]
LEGS = ("batched", "serial")

#: Every paper bench once, with its body run rather than timed: the
#: benchmark timer suspends any profiler around the timed call.
BENCHES = ("python -m pytest benchmarks --benchmark-disable -q -p no:cacheprovider"
           " --ignore=benchmarks/ledger --ignore=benchmarks/test_census.py")

#: After the benches, against the zoo they trained.
AFTER_BENCHES = ["python -m repro train mnist_cnn"]

LEDGER = "python benchmarks/ledger/run.py --smoke --out {tmp}/ledger_smoke.json"


def _kept() -> dict[str, str]:
    spec = importlib.util.spec_from_file_location("_census_kept", ROOT / "tests/test_imports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.KEPT


def definitions() -> dict[tuple[str, int, str], tuple[str, int]]:
    """Every ``def`` in ``src/repro``: ``(file, first line, name)`` ->
    (qualified name, lines from ``def`` to end). The first line is the first
    decorator's, as in ``co_firstlineno``; a nested ``def`` is named through
    its parents."""
    out: dict[tuple[str, int, str], tuple[str, int]] = {}

    def walk(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    out[path, first, child.name] = (name, child.end_lineno - child.lineno + 1)
                walk(child, name, path)
            else:
                walk(child, prefix, path)

    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        walk(ast.parse(path.read_text(), filename=str(path)), module, str(path))
    return out


def unexplained(defs: dict[tuple[str, int, str], tuple[str, int]],
                entered: set[tuple[str, int, str]],
                kept: dict[str, str]) -> tuple[list[str], list[str]]:
    """The census's two verdicts: never-entered functions without a reason,
    and reasons naming a function that is entered or does not exist."""
    never = {name for key, (name, _) in defs.items() if key not in entered}
    return sorted(never - set(kept)), sorted(set(kept) - never)


def _run(cmd: str, env: dict, cwd: Path, log: list[str]) -> int:
    start = time.perf_counter()
    argv = [sys.executable if word == "python" else word for word in cmd.split()]
    done = subprocess.run(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    log.append(f"{time.perf_counter() - start:7.1f} s  exit {done.returncode}  "
               f"{env.get('REPRO_BACKEND', '')} {cmd}")
    if done.returncode:
        log.append(done.stdout[-2000:])
    return done.returncode


def collect(tmp: Path) -> tuple[set[tuple[str, int, str]], list[str], list[str]]:
    """Run every census command; return what they entered, the log and the
    commands that should have passed but did not."""
    hook, records, work = tmp / "hook", tmp / "records", tmp / "work"
    for d in (hook, records, work):
        d.mkdir()
    (hook / "sitecustomize.py").write_text(HOOK)
    # The smokes write their outputs into a scratch directory; the benches and
    # the ledger run from the repository root, as CI runs them.
    (work / "examples").symlink_to(ROOT / "examples")
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BACKEND"}
    env.update(PYTHONPATH=os.pathsep.join([str(hook), str(SRC)]),
               CENSUS_PREFIX=str(PACKAGE), CENSUS_OUT=str(records),
               REPRO_ARTIFACTS=str(tmp / "artifacts"))
    log: list[str] = []
    failed = [f"{leg} {cmd}" for leg in LEGS for cmd in SMOKES
              if _run(cmd, {**env, "REPRO_BACKEND": leg}, work, log)]
    _run(BENCHES, env, ROOT, log)
    failed += [cmd for cmd in AFTER_BENCHES if _run(cmd, env, work, log)]
    ledger = LEDGER.format(tmp=tmp)
    failed += [ledger] if _run(ledger, env, ROOT, log) else []
    entered = set()
    for record in records.iterdir():
        for line in record.read_text().splitlines():
            path, first, name = line.split("\t")
            entered.add((str(Path(path).resolve()), int(first), name))
    return entered, log, failed


def test_every_smoke_is_a_ci_step():
    """The census runs what CI runs: each smoke is a line of the workflow."""
    ci = (ROOT / ".github/workflows/ci.yml").read_text()
    assert [cmd for cmd in SMOKES if cmd not in ci] == []


def test_every_function_no_run_enters_has_a_reason(tmp_path):
    start = time.perf_counter()
    entered, log, failed = collect(tmp_path)
    defs = definitions()
    kept = _kept()
    missing, stale = unexplained(defs, entered, kept)
    never = [(name, lines) for key, (name, lines) in defs.items() if key not in entered]
    print("\n".join(log))
    print("\n".join(f"never entered: {name} ({lines} lines): {kept.get(name, 'NO REASON')}"
                    for name, lines in sorted(never)))
    print(f"census: {len(never)} of {len(defs)} functions never entered, "
          f"{sum(n for _, n in never)} of {sum(n for _, n in defs.values())} lines; "
          f"{time.perf_counter() - start:.0f} s")
    assert failed == []
    assert {"no reason": missing, "stale reason": stale} == {"no reason": [], "stale reason": []}
