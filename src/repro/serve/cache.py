"""The compiled-plan cache keyed by (model hash, params hash).

Artifacts are sharded into subdirectories by ``program_fingerprint``
prefix (so one deployment directory scales past a few thousand models),
written crash-safe (a temp file in the destination directory published
with :func:`os.replace`, so a concurrent reader can never load a truncated
``.plan``), and memoized in memory keyed by the full ``(model hash, params
hash)`` pair — tenants sharing a model under the same parameters share one
compiled artifact *object*, which is safe because plans hold no key
material and are read-only at run time.
"""

from __future__ import annotations

import os
import tempfile
import threading
from pathlib import Path

from repro.core.plan import CompiledProgram, compile_program, program_fingerprint
from repro.errors import ReproError
from repro.fhe.params import FheParams
from repro.fhe.serialize import dump_plan, load_plan, params_fingerprint

#: Leading hex digits of the model fingerprint that name a plan's shard.
SHARD_CHARS = 2


class ShardedPlanCache:
    """Persist :class:`CompiledProgram` artifacts across processes.

    The cache key is the pair of fingerprints that fully determine a plan —
    the lowered model (structure + weights + quantization config) and the
    parameter set. Artifacts contain no key material, so a shared cache
    directory is safe. Disk layout:
    ``<root>/<hash[:2]>/<hash[:16]>-<params>.plan``.

    ``root=None`` builds a memory-only cache (nothing touches disk) — the
    default for an :class:`repro.serve.AthenaService` that was not given a
    persistent cache directory, so co-located tenants still share one
    compiled plan per model.

    Writes are atomic: the artifact is staged as a ``*.tmp`` file in the
    destination directory and published with :func:`os.replace`, so every
    path carrying the ``.plan`` suffix is a complete artifact — a writer
    crashing mid-dump leaves at worst a stray temp file, never a truncated
    plan a concurrent :meth:`get` could load.

    ``hits`` / ``misses`` count lookups (a miss is a compile);
    :meth:`stats` reports them with the derived hit rate. Counter updates
    are lock-protected so concurrent serving threads never lose one.
    """

    SUFFIX = ".plan"

    def __init__(self, root: str | Path | None):
        self.root = None if root is None else Path(root)
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._memory: dict[tuple[str, str], CompiledProgram] = {}

    def path_for(self, model_hash: str, params: FheParams) -> Path:
        name = f"{model_hash[:16]}-{params_fingerprint(params).hex()}{self.SUFFIX}"
        return self.root / model_hash[:SHARD_CHARS] / name

    def _record(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def stats(self) -> dict:
        """JSON-ready lookup accounting."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": round(self.hits / total, 4) if total else None,
            }

    def get(self, program, params: FheParams) -> CompiledProgram:
        """The program's plan: from memory, else from disk, else compiled
        (and saved).

        A cached artifact that no longer loads — a stale wire version left
        behind by an older build, a truncated file, a flipped bit — is
        treated as a miss and overwritten with a fresh compile, so cache
        directories survive format bumps and corruption without manual
        cleanup. A disk hit is :func:`load_plan` (plus the identity check of
        :meth:`CompiledProgram.bind`) and nothing else: the loaded plan is
        complete, so the serve path never compiles on a warm cache.
        """
        model_hash = program_fingerprint(program)
        key = (model_hash, params_fingerprint(params).hex())
        with self._lock:
            plan = self._memory.get(key)
        if plan is not None:
            self._record(hit=True)
            return plan
        plan = self._load_or_compile(program, params, model_hash)
        with self._lock:
            self._memory[key] = plan
        return plan

    def _load_or_compile(self, program, params: FheParams,
                         model_hash: str) -> CompiledProgram:
        path = None if self.root is None else self.path_for(model_hash, params)
        if path is not None and path.exists():
            try:
                plan = load_plan(path.read_bytes(), params).bind(program, params)
            except ReproError:
                pass  # stale or corrupt artifact: recompile below
            else:
                self._record(hit=True)
                return plan
        plan = compile_program(program, params)
        if path is not None:
            self._write_atomic(path, dump_plan(plan))
        self._record(hit=False)
        return plan

    def _write_atomic(self, path: Path, raw: bytes) -> None:
        """Stage ``raw`` beside ``path`` and publish it with one rename."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(raw)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
