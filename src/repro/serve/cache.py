"""On-disk compiled-plan caches keyed by (model hash, params hash).

Two flavours:

* :class:`PlanCache` — the flat single-directory cache of PR 3, now with
  crash-safe persistence (plans are written to a temp file in the cache
  directory and published with :func:`os.replace`, so a concurrent reader
  can never load a truncated ``.plan``) and hit/miss accounting.
* :class:`ShardedPlanCache` — the serving-layer cache: artifacts are
  sharded into subdirectories by ``program_fingerprint`` prefix (so one
  deployment directory scales past a few thousand models), and loaded
  plans are additionally memoized in memory keyed by the full
  ``(model hash, params hash)`` pair — tenants sharing a model
  under the same parameters share one compiled artifact *object*, which is
  safe because plans hold no key material and are read-only at run time.
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


class PlanCache:
    """Persist :class:`CompiledProgram` artifacts across processes.

    The cache key is the pair of fingerprints that fully determine a plan —
    the lowered model (structure + weights + quantization config) and the
    parameter set. Artifacts contain no key material, so a shared cache
    directory is safe.

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
        #: ``None`` = nothing touches disk: every :meth:`get` compiles.
        self.root = None if root is None else Path(root)
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    @classmethod
    def file_name(cls, model_hash: str, params: FheParams) -> str:
        """``<hash16>-<params>.plan``."""
        return f"{model_hash[:16]}-{params_fingerprint(params).hex()}{cls.SUFFIX}"

    def path_for(self, model_hash: str, params: FheParams) -> Path:
        return self.root / self.file_name(model_hash, params)

    def _record(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    @property
    def hit_rate(self) -> float | None:
        """Fraction of lookups served without a compile (None before any)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else None

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
        """Load the program's plan from disk, compiling (and saving) on miss.

        A cached artifact that no longer loads — a stale wire version left
        behind by an older build, a truncated file, a flipped bit — is
        treated as a miss and overwritten with a fresh compile, so cache
        directories survive format bumps and corruption without manual
        cleanup. A hit is :func:`load_plan` (plus the identity check of
        :meth:`CompiledProgram.bind`) and nothing else: the loaded plan is
        complete, so the serve path never compiles on a warm cache.
        """
        path = None if self.root is None else self.path_for(
            program_fingerprint(program), params
        )
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


class ShardedPlanCache(PlanCache):
    """Fingerprint-sharded plan cache with an in-memory layer.

    ``root=None`` builds a memory-only cache (nothing touches disk) — the
    default for an :class:`repro.serve.AthenaService` that was not given a
    persistent cache directory, so co-located tenants still share one
    compiled plan per model.

    Disk layout shards by the leading ``shard_chars`` hex digits of the
    model fingerprint: ``<root>/<hash[:2]>/<hash[:16]>-<params>.plan``.
    """

    def __init__(self, root: str | Path | None, shard_chars: int = 2):
        super().__init__(root)
        self.shard_chars = shard_chars
        self._memory: dict[tuple[str, str], CompiledProgram] = {}

    def path_for(self, model_hash: str, params: FheParams) -> Path:
        return (self.root / model_hash[: self.shard_chars]
                / self.file_name(model_hash, params))

    def get(self, program, params: FheParams) -> CompiledProgram:
        """Memory, then :meth:`PlanCache.get` (sharded disk, then compile)."""
        key = (program_fingerprint(program), params_fingerprint(params).hex())
        with self._lock:
            plan = self._memory.get(key)
        if plan is not None:
            self._record(hit=True)
            return plan
        plan = super().get(program, params)
        with self._lock:
            self._memory[key] = plan
        return plan
