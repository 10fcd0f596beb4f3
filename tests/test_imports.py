"""Every library module, and every definition in one, has a caller outside
the tests, and every defaulted parameter has a caller that sets it.

A module or function that only ``tests/`` reaches is test-only code: it
ships, is maintained and is counted as library, yet no user path runs it.
The module check walks the import statements of ``src/``, ``benchmarks/``
and ``examples/``; the definition check counts the references of the same
trees. A defaulted parameter or dataclass field that no call outside the
tests sets is a configuration nothing runs: the parameter check reads every
call of the same trees.
"""

import ast
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Run as ``python -m repro``, imported by nobody.
ENTRY_POINTS = {"repro.__main__"}


#: Functions no production run enters, kept each for a reason, keyed by
#: qualified name. Read by the definition guard below and by the execution
#: census (benchmarks/test_census.py), which fails on a never-entered
#: function missing here and on an entry that is entered or gone. What no
#: production run enters and has none of these reasons is deleted, with the
#: tests that test only it.
KEPT = {
    # Oracles that tests compare production against.
    "repro.fhe.fbs.evaluate_poly_plain": "a polynomial over Z_t in the clear, the FBS evaluation's oracle",
    "repro.fhe.bfv.cmult_bounds": "the CMult tensor's overflow bounds, checked on every preset",
    "repro.fhe.keys.keyswitch_bounds": "the keyswitch's overflow bounds, checked on every preset",
    "repro.fhe.rns.overflow_estimate_error": "the base extension's float64 error bound, in cmult_bounds and its tests",
    "repro.fhe.bfv.BfvContext.true_noise_bits": "a ciphertext's measured noise, the oracle the noise tests read",
    "repro.fhe.bfv.BfvContext.rotate_slots": "one keyswitched slot rotation, against the hoisted and fused ones",
    "repro.fhe.bfv.BfvContext.row_swap": "the row-swap automorphism, the fused rotations' second-row reference",
    "repro.fhe.bfv.BfvContext.apply_galois": "one keyswitched automorphism, the body of the two rotation oracles",
    "repro.fhe.lwe.lwe_decrypt": "LWE decryption, the oracle for extraction, switching and packing",
    "repro.fhe.lwe.LweBatch.phase": "b + <a, s> mod q, the body of lwe_decrypt",
    "repro.fhe.poly.RnsPoly.mul_exact_then_reduce": "the exact-integer product, against the NTT multiply",
    "repro.fhe.poly.RnsPoly.to_int_coeffs": "a polynomial's exact integer lift, the noise and RNS tests' oracle",
    "repro.fhe.rns.from_rns": "the big-int CRT lift to [0, Q), to_int_coeffs' body and the RNS tests' oracle",
    "repro.utils.modmath.crt_combine": "scalar CRT reconstruction, the modular-arithmetic tests' oracle",
    "repro.utils.modmath.centered": "the scalar centred residue, centered_array's oracle",
    "repro.core.lut.softmax_plain": "the plaintext softmax the softmax LUTs are checked against",
    # Safety code: runs only on bad input or inside the V_AMBIGUITY band.
    "repro.errors.UnsupportedLayer.__init__": "raised on a layer lowering cannot map",
    "repro.errors.TensorOverflow.__init__": "raised on a CMult sum longer than its auxiliary basis holds",
    "repro.errors.ServiceOverloaded.__init__": "raised when a tenant's queue is full or the scheduler closed",
    "repro.fhe.rns._exact_overflow": "the exact overflow count for a coefficient inside the V_AMBIGUITY band",
    "repro.fhe.bfv.BfvContext.encrypt_zero": "the transparent zero an all-zero LUT or mat-vec answers",
    # Size-dependent branches no CI size reaches.
    "repro.fhe.ntt._gemm_tables.twist": "the twist between digit steps, for an N of three or more factors",
    "repro.fhe.fbs._interpolate_dense": "LUT interpolation for a t whose t - 1 is no power of two",
    # The ciphertext pool path: only tests run a pooled plan on ciphertexts (ROADMAP item 7).
    "repro.core.plan._compile_pool": "compiles a standalone pool step",
    "repro.core.plan._compile_remap": "compiles a bare LUT round after a pool",
    "repro.core.plan._pool_tree": "the max tree's levels of a standalone pool",
    "repro.core.plan._pool_tree.positions_for": "a max-tree level's kept cells",
    "repro.core.framework.CiphertextExecutor.pool": "runs a standalone pool on ciphertexts",
    "repro.core.framework.CiphertextExecutor.remap": "runs a bare LUT round on ciphertexts",
    "repro.core.framework.CiphertextExecutor._max_round": "one max-tree level: shift, subtract, ReLU refresh",
    "repro.fhe.bfv.BfvContext.sub": "the max tree's ciphertext subtraction",
    "repro.fhe.poly.RnsPoly.__sub__": "the max tree's ring subtraction",
    "repro.fhe.poly.RnsPoly.negacyclic_shift": "the max tree's exact monomial product",
    "repro.fhe.backend.Backend.shift": "the max tree's monomial product, on residue stacks",
    "repro.fhe.backend.Backend.sub": "the max tree's subtraction, on residue stacks",
    # Process workers: no run selects process mode (ROADMAP item 13).
    "repro.serve.workers._process_init": "a worker process's initializer",
    "repro.serve.workers._process_run_batch": "one batch inside a worker process",
    "repro.serve.workers._process_pid": "the process pool's warm-up probe",
    # The public lazy top level (PEP 562).
    "repro.__getattr__": "imports a curated name on first touch",
    "repro.__dir__": "lists the curated names beside the loaded ones",
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


def _references(tree: ast.AST) -> Iterator[str]:
    """Every name ``tree`` refers to: names, attributes, import aliases and
    identifier-valued strings (``getattr`` targets, dispatch names). A
    docstring, an ``__all__`` list and a dict literal's keys name nothing:
    they are prose, re-exports and labels."""
    labels: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            labels.add(id(node.body[0].value))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            labels.update(id(n) for n in ast.walk(node.value))
        elif isinstance(node, ast.Dict):
            labels.update(id(k) for k in node.keys if k is not None)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in labels):
            yield node.value


def _definitions(node: ast.AST, prefix: str) -> Iterator[tuple[str, ast.AST]]:
    """Every function, class and method under ``node``, each with its
    qualified name: ``prefix``, then its enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            yield name, child
            yield from _definitions(child, name)
        else:
            yield from _definitions(child, prefix)


def test_every_definition_has_a_caller_outside_tests():
    """Every function, class and method in ``src/repro`` is referred to
    somewhere in ``src/``, ``benchmarks/`` or ``examples/``, or is kept by its
    qualified name in ``KEPT``. ``__init__.py`` re-exports are not callers,
    and neither is a ``def`` / ``class`` line. Matching is by name, so a false
    result can only be a miss, never a false alarm."""
    references: Counter[str] = Counter()
    for tree in ("src", "benchmarks", "examples"):
        for path in (ROOT / tree).rglob("*.py"):
            if path.name != "__init__.py":
                references.update(_references(ast.parse(path.read_text(), filename=str(path))))
    curated = _curated_names()
    uncalled: dict[str, list[str]] = {}
    for path in (SRC / "repro").rglob("*.py"):
        module = _module_name(path).removesuffix(".__init__")
        for qualname, node in _definitions(ast.parse(path.read_text(), filename=str(path)), module):
            name = node.name
            if not (references[name] or qualname in KEPT or name in curated
                    or (name.startswith("__") and name.endswith("__"))):
                uncalled.setdefault(qualname, []).append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert uncalled == {}


#: Settable values kept although no call outside the tests sets them, each for
#: a reason, keyed ``"function.parameter"`` (``"Class.method.parameter"`` for a
#: method, ``"Class.field"`` for a dataclass field).
KEPT_PARAMS = {
    # Oracles: the tests sweep what production fixes.
    "conv_via_coefficients.stride": "the plaintext Eq. 1 reference, checked at every stride",
    "conv_via_coefficients.pad": "the plaintext Eq. 1 reference, checked at every padding",
    "conv_via_coefficients.modulus": "the plaintext Eq. 1 reference, checked over Z_t and Z",
    "lwe_decrypt.delta": "the LWE decryption oracle's message scale",
    "lwe_decrypt.t": "the LWE decryption oracle's message modulus",
    "RnsPoly.to_int_coeffs.centered": "the exact-lift oracle's residue convention",
    "baby_giant_amounts.baby": "the BSGS rotation set at a split production never picks",
    # Seams.
    "AthenaNoiseModel.enabled": "the noise-free model behind engine == forward_int",
    "AthenaNoiseModel.secret_norm_sq": "the secret norm the e_ms scaling test sweeps",
    "SimulatedAthenaEngine.__init__.noise": "where the engine tests hand in either model above",
    # Carried until their ROADMAP item lands.
    "KeyInventory.galois_key_bytes.seed_compressed": "uncompressed key sizes; item 12 deletes it",
    "KeyInventory.lwe_ksk_bytes.seed_compressed": "uncompressed key sizes; item 12 deletes it",
    "TuningResult.tuning": "the ledger reads it until item 1 drops the tune stage",
}


def _name(node: ast.AST) -> str | None:
    return getattr(node, "id", getattr(node, "attr", None))


def _defaulted(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, int | None]:
    """A function's defaulted parameters: each with its position, counted
    without ``self`` / ``cls``, or ``None`` when keyword-only."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if positional[:1] in (["self"], ["cls"]):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    out: dict[str, int | None] = {
        name: i for i, name in enumerate(positional) if i >= first}
    out.update((a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None)
    return out


def _defaulted_fields(cls: ast.ClassDef) -> dict[str, int]:
    """A dataclass's defaulted ``__init__`` fields, each with its position
    (none when ``cls`` is no dataclass). A ``ClassVar`` is no field and an
    ``init=False`` field is no argument."""
    out: dict[str, int] = {}
    if not any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list):
        return out
    position = 0
    for item in cls.body:
        if not isinstance(item, ast.AnnAssign):
            continue
        kind = item.annotation
        if _name(kind.value if isinstance(kind, ast.Subscript) else kind) == "ClassVar":
            continue
        value = item.value
        if isinstance(value, ast.Call) and _name(value.func) == "field":
            options = {k.arg: k.value for k in value.keywords}
            if getattr(options.get("init"), "value", True) is False:
                continue
            defaulted = "default" in options or "default_factory" in options
        else:
            defaulted = value is not None
        if defaulted:
            out[item.target.id] = position
        position += 1
    return out


def _calls(modules: list[ast.Module]) -> tuple[dict[str, set[str]], Counter[str], set[str]]:
    """What ``modules`` pass: per callee name, the keywords seen and the most
    positional arguments seen, plus the opaque names — used as a value (a
    dispatch table, ``once(f)``, ``default_factory=C``) or called with
    ``*args`` / ``**kwargs``. A ``cls(...)`` is a call of its class, a
    ``super().__init__(...)`` one of the enclosing class's first base, and a
    ``replace(C(...), f=...)`` sets the keywords of ``C`` (a ``replace`` of
    anything else stays pooled under ``replace``). An annotation, an
    ``isinstance`` test or the ``C`` of ``C.attr`` reads a name without
    using it as a value."""
    keywords: dict[str, set[str]] = {}
    positions: Counter[str] = Counter()
    opaque: set[str] = set()
    for module in modules:
        # Resolved callees by call node; ast.walk is breadth-first, so an
        # inner class's resolution overwrites its outer class's.
        owners: dict[int, str] = {}
        for node in ast.walk(module):
            if not isinstance(node, ast.ClassDef):
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                if _name(call.func) == "cls":
                    owners[id(call)] = node.name
                elif (node.bases and _name(call.func) == "__init__"
                      and isinstance(call.func.value, ast.Call)
                      and _name(call.func.value.func) == "super"):
                    owners[id(call)] = _name(node.bases[0])
        replaced = {id(call): _name(call.args[0].func) for call in ast.walk(module)
                    if isinstance(call, ast.Call) and _name(call.func) == "replace"
                    and call.args and isinstance(call.args[0], ast.Call)}
        owners.update(replaced)
        reads: set[int] = set()
        for node in ast.walk(module):
            if isinstance(node, ast.Attribute):
                reads.add(id(node.value))
            elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
                reads.update(id(n) for n in ast.walk(node.annotation))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
                reads.update(id(n) for n in ast.walk(node.returns))
            elif isinstance(node, ast.Call):
                reads.add(id(node.func))
                if _name(node.func) in ("isinstance", "issubclass") and len(node.args) == 2:
                    reads.update(id(n) for n in ast.walk(node.args[1]))
                name = owners.get(id(node), _name(node.func))
                if name is None:
                    continue
                if (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords)):
                    opaque.add(name)
                keywords.setdefault(name, set()).update(
                    k.arg for k in node.keywords if k.arg)
                if id(node) not in replaced:  # replace's one positional is the object
                    positions[name] = max(positions[name], len(node.args))
        opaque.update(
            _name(node) for node in ast.walk(module)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load) and id(node) not in reads)
    return keywords, positions, opaque


def _unset(defining: dict[str, ast.Module], callers: list[ast.Module]) -> dict[str, str]:
    """Every defaulted parameter and defaulted dataclass field declared in
    ``defining`` (display path -> module) that no call in ``callers`` sets,
    with where it is declared."""
    keywords, positions, opaque = _calls(callers)
    unset: dict[str, str] = {}
    for where, module in defining.items():
        owners = {id(item): node.name for node in ast.walk(module)
                  if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(module):
            if isinstance(node, ast.ClassDef):
                fields = _defaulted_fields(node)
                if not fields or node.name in opaque or "replace" in opaque:
                    continue
                called_with = keywords.get(node.name, set()) | keywords.get("replace", set())
                for field, position in fields.items():
                    if field not in called_with and position >= positions[node.name]:
                        unset[f"{node.name}.{field}"] = f"{where}:{node.lineno}"
                continue
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or node.name.startswith("__") and node.name != "__init__"):
                continue
            owner = owners.get(id(node), "")
            names = {owner} if node.name == "__init__" else {node.name}
            if names & opaque:
                continue
            called_with = set().union(*(keywords.get(n, set()) for n in names))
            reach = max(positions[n] for n in names)
            qualified = f"{owner}.{node.name}" if owner else node.name
            for param, position in _defaulted(node).items():
                if param not in called_with and (position is None or position >= reach):
                    unset[f"{qualified}.{param}"] = f"{where}:{node.lineno}"
    return unset


def _parsed(*trees: str) -> dict[str, ast.Module]:
    return {str(path.relative_to(ROOT)): ast.parse(path.read_text(), filename=str(path))
            for tree in trees for path in sorted((ROOT / tree).rglob("*.py"))}


def test_every_parameter_is_set_by_a_caller():
    """Some call in ``src/``, ``benchmarks/`` or ``examples/`` — the trees the
    definition check reads; a test sets nothing — passes every defaulted
    parameter of every function, method and ``__init__`` in ``src/repro``,
    and every defaulted ``__init__`` field of every dataclass there, by
    keyword or by position. A call ``f(...)`` or ``x.f(...)`` is matched by
    name: ``C(...)``, a ``cls(...)`` inside ``C`` and a ``super().__init__(...)``
    in a subclass of ``C`` set ``C.__init__`` or ``C``'s fields;
    ``replace(C(...), f=...)`` sets ``C``'s field ``f`` and ``replace(x, f=...)``
    every field ``f``. A name also
    used as a value, or called with ``*args`` or ``**kwargs``, counts as
    fully set, so the check can miss a value but never flags one wrongly.
    Other dunders are called implicitly and are not checked. State a
    dataclass computes or caches is ``field(init=False)``, not an argument."""
    callers = _parsed("src", "benchmarks", "examples")
    defining = {where: module for where, module in callers.items()
                if where.startswith("src/repro/")}
    unset = _unset(defining, list(callers.values()))
    assert {k: v for k, v in unset.items() if k not in KEPT_PARAMS} == {}
    assert sorted(set(KEPT_PARAMS) - set(unset)) == []


#: A module with a parameter only a test sets and a field nothing sets.
PLANTED = '''
from dataclasses import dataclass, field


def knob(x, scale=2):
    return x * scale


@dataclass
class Stat:
    name: str
    peak: int = 0
    cache: dict = field(init=False, default_factory=dict)

    @classmethod
    def named(cls, name):
        return cls(name)


def run():
    return knob(1), Stat.named("a")
'''


def test_the_parameter_guard_sees_through_tests_and_into_fields():
    """Fed the planted module alone — as the real check is fed no test — the
    guard flags the parameter only a test would set and the defaulted field
    nothing sets, but not ``init=False`` state. Outside the tests, a keyword,
    a position or a ``replace`` sets either one."""
    planted = ast.parse(PLANTED)
    assert _unset({"planted.py": planted}, [planted]) == {
        "knob.scale": "planted.py:5", "Stat.peak": "planted.py:10"}
    for setter in ('knob(1, scale=3)\nStat("a", peak=4)\n',
                   'knob(1, 3)\nStat("a", 4)\n',
                   'knob(1, 3)\nreplace(Stat("a"), peak=4)\n'):
        assert _unset({"planted.py": planted}, [planted, ast.parse(setter)]) == {}


#: Calls the guard used to pool: a ``super().__init__`` and a ``replace`` of a
#: constructor call, each of which sets one class only.
PLANTED_RESOLVED = '''
from dataclasses import dataclass, replace


class Base:
    def __init__(self, name, scale=2):
        self.name, self.scale = name, scale


class Child(Base):
    def __init__(self, name, width=3):
        super().__init__(name, 4)
        self.width = width


class Other:
    def __init__(self, name, depth=1):
        self.name, self.depth = name, depth


@dataclass
class Stat:
    name: str
    peak: int = 0


@dataclass
class Tally:
    name: str
    peak: int = 0


def run():
    return Child("a"), Other("b"), Stat("s"), replace(Tally("t"), peak=1)
'''


def test_the_parameter_guard_resolves_super_and_replace():
    """``super().__init__(name, 4)`` sets ``Base``'s ``scale`` and no
    other class's ``__init__`` (it used to pool under ``__init__``, setting
    ``Child``'s ``width`` and ``Other``'s ``depth`` by position), and
    ``replace(Tally(...), peak=1)`` sets ``Tally.peak`` only (it used to set
    every dataclass's ``peak``). A ``replace`` of a plain name still sets
    every field of that name: the guard cannot tell its class."""
    planted = ast.parse(PLANTED_RESOLVED)
    assert _unset({"planted.py": planted}, [planted]) == {
        "Child.__init__.width": "planted.py:11",
        "Other.__init__.depth": "planted.py:17",
        "Stat.peak": "planted.py:22",
    }
    pooled = ast.parse("replace(stat, peak=2)\nChild('a', 5)\nOther('b', depth=2)\n")
    assert _unset({"planted.py": planted}, [planted, pooled]) == {}
