"""Every library module has a caller outside the tests.

A module that only ``tests/`` imports is test-only code: it ships, is
maintained and is counted as library, yet no user path runs it. The check
walks the import statements of ``src/``, ``benchmarks/`` and ``examples/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Run as ``python -m repro``, imported by nobody.
ENTRY_POINTS = {"repro.__main__"}


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
