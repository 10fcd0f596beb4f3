"""Every library module, and every definition in one, has a caller outside
the tests.

A module or function that only ``tests/`` reaches is test-only code: it
ships, is maintained and is counted as library, yet no user path runs it.
The module check walks the import statements of ``src/``, ``benchmarks/``
and ``examples/``; the definition check counts the identifiers of the same
trees.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Run as ``python -m repro``, imported by nobody.
ENTRY_POINTS = {"repro.__main__"}


#: Definitions kept without a caller outside the tests, each for a reason.
KEPT = {
    # Reference oracles that tests compare production against.
    "rotate_slots": "one keyswitched slot rotation, against the hoisted and fused ones",
    "row_swap": "the row-swap automorphism, the fused rotations' second-row reference",
    "keyswitch_bounds": "the keyswitch's overflow bounds, checked on every preset",
    "lwe_decrypt": "LWE decryption, the oracle for extraction, switching and packing",
    "mul_exact_then_reduce": "the exact-integer product, against the NTT multiply",
    "to_int_coeffs": "a polynomial's exact integer lift, the noise and RNS tests' oracle",
    "crt_combine": "scalar CRT reconstruction, the modular-arithmetic tests' oracle",
    # Views and seams that tests read.
    "runtime_for": "a worker pool's warm session, read by the service replay test",
    "lut_steps": "a program's LUT-bearing steps, read by the lowering and allocation tests",
    "total_lut_evals": "an inference's FBS count, read by the engine tests",
    "max_error_ratio": "an inference's worst noise margin, read by the engine tests",
    # The paper's softmax (section 3.2.3).
    "infer_probs": "encrypted-domain class probabilities through the softmax LUTs",
    "softmax_plain": "the plaintext softmax those LUTs are checked against",
}


def _curated_names() -> set[str]:
    """The curated ``__all__`` of ``repro``, ``repro.fhe`` and ``repro.core``
    (DESIGN section 9): public by promise, whoever calls them."""
    import repro
    import repro.core
    import repro.fhe

    return {*repro.__all__, *repro.fhe.__all__, *repro.core.__all__}


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _imported_names(path: Path) -> set[str]:
    """Every dotted name an import statement of ``path`` could resolve to:
    ``from a.b import c`` yields both ``a.b`` and ``a.b.c``."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_every_module_has_an_importer_outside_tests():
    modules = {
        _module_name(path) for path in SRC.rglob("*.py")
        if path.name != "__init__.py"
    } - ENTRY_POINTS
    imported = set().union(*(
        _imported_names(path)
        for tree in ("src", "benchmarks", "examples")
        for path in (ROOT / tree).rglob("*.py")
    ))
    assert sorted(modules - imported) == []


def test_every_definition_has_a_caller_outside_tests():
    """Every function, class and method in ``src/repro`` is named somewhere
    in ``src/``, ``benchmarks/`` or ``examples/`` beyond its own ``def`` /
    ``class`` lines. ``__init__.py`` re-exports are not callers. Matching is
    by name, so a false result can only be a miss, never a false alarm."""
    mentions: Counter[str] = Counter()
    defined: dict[str, list[str]] = {}
    for tree in ("src", "benchmarks", "examples"):
        for path in (ROOT / tree).rglob("*.py"):
            text = path.read_text()
            if path.name != "__init__.py":
                mentions.update(re.findall(r"\w+", text))
            for node in ast.walk(ast.parse(text, filename=str(path))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    defined.setdefault(node.name, []).append(
                        f"{path.relative_to(ROOT)}:{node.lineno}")
    exempt = _curated_names() | set(KEPT)
    uncalled = {
        name: where for name, where in defined.items()
        if any(w.startswith("src/repro/") for w in where)
        and mentions[name] <= len(where)
        and not (name.startswith("__") and name.endswith("__"))
        and name not in exempt
    }
    assert uncalled == {}
