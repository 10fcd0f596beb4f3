"""The layered serving stack: tenants, scheduler, batching, workers, service.

Fast tests pin each layer's contract in isolation — admission control and
fair dequeue (pure asyncio, no ciphertexts), batch assembly and the
shared-key fast path, crash-safe plan persistence, the sharded/in-memory
cache, the picklable session core, the typed request/response dataclasses,
and the service's registration/validation rules. The ``slow``-marked tests
drive real ciphertext inference through the full stack on the TEST_FBS
micro models: multi-tenant isolation, queue-full shedding against a live
service, the process worker pool, cross-request ciphertext batching, and
the headline guarantee that service outputs are bit-identical to direct
:class:`InferenceSession` runs.
"""

from __future__ import annotations

import asyncio
import pickle

import numpy as np
import pytest

import repro.serve.cache as cache_mod
from repro.errors import ParameterError, ServiceOverloaded
from repro.fhe.params import TEST_FBS, TEST_LOOP
from repro.perf import ExecConfig
from repro.serve import (
    AthenaService,
    BatchAssembler,
    FairScheduler,
    InferenceRequest,
    InferenceResult,
    InferenceSession,
    LayerStats,
    PlanCache,
    SessionCore,
    ShardedPlanCache,
    Tenant,
    TenantRegistry,
)
from repro.quant.subjects import pack_cnn, resnet_block_micro, serve_micro_cnn
from repro.serve.session import LATENCY_WINDOW
from tests.conftest import refresh_noise_bound


def _request(tenant_id: str, model: str = "m") -> InferenceRequest:
    return InferenceRequest(
        tenant_id=tenant_id, model=model, x_q=np.zeros(1, dtype=np.int64)
    )


def _micro_model():
    return serve_micro_cnn(np.random.default_rng(5))


def _micro_input(rng: np.random.Generator) -> np.ndarray:
    return rng.integers(-2, 3, (1, 4, 4)).astype(np.int64)


# -- tenant layer ------------------------------------------------------------


class TestTenantLayer:
    def test_registry_rejects_duplicates_and_unknowns(self):
        registry = TenantRegistry([Tenant("alice", TEST_FBS)])
        with pytest.raises(ParameterError):
            registry.add(Tenant("alice", TEST_FBS, seed=9))
        with pytest.raises(ParameterError):
            registry.get("mallory")
        assert "alice" in registry and "mallory" not in registry

    def test_empty_tenant_id_rejected(self):
        with pytest.raises(ParameterError):
            Tenant("", TEST_FBS)

    def test_key_sizing_from_params(self):
        alice = Tenant("alice", TEST_FBS, seed=1)
        bob = Tenant("bob", TEST_LOOP, seed=2)
        assert alice.key_material_bytes() > 0
        # A bigger parameter set implies more evaluation-key storage.
        assert bob.key_material_bytes() > alice.key_material_bytes()
        registry = TenantRegistry([alice, bob])
        assert registry.total_key_material_bytes() == (
            alice.key_material_bytes() + bob.key_material_bytes()
        )
        assert "MiB" in alice.describe()

    def test_ids_keep_registration_order(self):
        registry = TenantRegistry(
            [Tenant("z", TEST_FBS), Tenant("a", TEST_FBS)]
        )
        assert registry.ids() == ["z", "a"]

    def test_key_domain_shared_iff_params_seed_backend_match(self):
        base = Tenant("a", TEST_FBS, seed=7)
        assert base.key_domain() == Tenant("b", TEST_FBS, seed=7).key_domain()
        assert base.key_domain() != Tenant("c", TEST_FBS, seed=8).key_domain()
        assert base.key_domain() != Tenant("d", TEST_LOOP, seed=7).key_domain()
        assert base.key_domain() != (
            Tenant("e", TEST_FBS, seed=7, backend="serial").key_domain()
        )


# -- typed request/response API ----------------------------------------------


class TestTypedApi:
    def test_request_ids_are_unique_and_auto_assigned(self):
        a = InferenceRequest("t", "m", np.zeros(1, dtype=np.int64))
        b = InferenceRequest("t", "m", np.zeros(1, dtype=np.int64))
        assert a.request_id != b.request_id
        assert a.request_id.startswith("req-")
        assert a.enqueued_at > 0 and a.dequeued_at is None

    def test_result_defaults_describe_a_solo_run(self):
        result = InferenceResult(
            request_id="req-000001", tenant_id="t", model="m",
            output=np.zeros(1, dtype=np.int64),
        )
        assert result.lane == 0 and result.batch_size == 1
        assert result.batch_id == "" and result.timings == {}

    def test_layer_stats_to_dict_schema(self):
        stats = LayerStats(
            layer="demo", requests=3,
            counters={"runs": 2},
            timings={"run_s": 1.23456789, "missing": None},
            detail={"nested": True},
        )
        d = stats.to_dict()
        assert d["schema_version"] == 1
        assert d["layer"] == "demo" and d["requests"] == 3
        assert d["counters"] == {"runs": 2}
        assert d["timings"] == {"run_s": 1.234568, "missing": None}
        assert d["detail"] == {"nested": True}


# -- scheduler layer ---------------------------------------------------------


class TestFairScheduler:
    def test_per_tenant_bound_isolates_tenants(self):
        sched = FairScheduler(["a", "b"], capacity=2)
        sched.submit(_request("a"))
        sched.submit(_request("a"))
        with pytest.raises(ServiceOverloaded) as excinfo:
            sched.submit(_request("a"))
        # The shed exception carries the payload a client needs to back off.
        assert excinfo.value.tenant_id == "a"
        assert excinfo.value.depth == 2
        assert excinfo.value.capacity == 2
        # Tenant a flooding its queue must not shed tenant b.
        sched.submit(_request("b"))
        assert sched.depth("a") == 2 and sched.depth("b") == 1
        assert sched.accepted == 3 and sched.rejected == 1

    def test_round_robin_dequeue_prevents_starvation(self):
        sched = FairScheduler(["a", "b"], capacity=8)
        for tid in ["a", "a", "a", "b"]:
            sched.submit(_request(tid))
        sched.close()

        async def drain() -> list[str]:
            order = []
            while (req := await sched.next_request()) is not None:
                order.append(req.tenant_id)
            return order

        # b's lone request is served second despite arriving last.
        assert asyncio.run(drain()) == ["a", "b", "a", "a"]
        stats = sched.stats()
        assert stats.counters["accepted"] == 4
        assert stats.timings["queue_wait_s"] >= 0

    def test_waiter_wakes_on_submit_and_drains_on_close(self):
        async def scenario():
            sched = FairScheduler(["a"], capacity=1)

            async def waiter():
                first = await sched.next_request()
                second = await sched.next_request()
                return first, second

            task = asyncio.create_task(waiter())
            await asyncio.sleep(0)  # park the waiter on the wakeup event
            sched.submit(_request("a"))
            await asyncio.sleep(0)
            sched.close()
            return await task

        first, second = asyncio.run(scenario())
        assert first.tenant_id == "a" and second is None

    def test_closed_scheduler_sheds(self):
        sched = FairScheduler(["a"])
        sched.close()
        with pytest.raises(ServiceOverloaded):
            sched.submit(_request("a"))

    def test_unknown_tenant_is_a_usage_error(self):
        sched = FairScheduler(["a"])
        with pytest.raises(ParameterError):
            sched.submit(_request("intruder"))

    def test_bad_construction_rejected(self):
        with pytest.raises(ParameterError):
            FairScheduler([])
        with pytest.raises(ParameterError):
            FairScheduler(["a"], capacity=0)

    def test_stats_shape(self):
        sched = FairScheduler(["a", "b"], capacity=3)
        sched.submit(_request("a"))
        stats = sched.stats()
        assert isinstance(stats, LayerStats) and stats.layer == "scheduler"
        assert stats.requests == 1
        counters = stats.counters
        assert counters["queue_depth"] == counters["queue_depth_max"] == 1
        assert stats.detail["capacity_per_tenant"] == 3
        assert stats.detail["per_tenant_depth"] == {"a": 1, "b": 0}
        assert stats.to_dict()["schema_version"] == 1

    def test_take_matching_pops_only_matching_heads(self):
        sched = FairScheduler(["a", "b"], capacity=8)
        first_a, second_a = _request("a"), _request("a")
        first_b = _request("b", model="other")
        for req in (first_a, second_a, first_b):
            sched.submit(req)
        taken = sched.take_matching(lambda r: r.model == "m", limit=8)
        # Both of a's queued requests match; b's head does not, and
        # take_matching never digs past a non-matching head (FIFO per
        # tenant is preserved).
        assert taken == [first_a, second_a]
        assert all(r.dequeued_at is not None for r in taken)
        assert sched.depth("a") == 0 and sched.depth("b") == 1


# -- batch assembly ----------------------------------------------------------


def _assembler(sched, capacity, window_s=0.0):
    return BatchAssembler(
        sched,
        capacity_for=lambda request: capacity,
        group_key=lambda request: (request.tenant_id, request.model),
        window_s=window_s,
    )


class TestBatchAssembler:
    def test_groups_compatible_queued_requests_up_to_capacity(self):
        sched = FairScheduler(["a"], capacity=8)
        reqs = [_request("a") for _ in range(3)]
        for req in reqs:
            sched.submit(req)
        sched.close()

        async def drain():
            assembler = _assembler(sched, capacity=2)
            batches = []
            while (batch := await assembler.next_batch()) is not None:
                batches.append(batch)
            return assembler, batches

        assembler, batches = asyncio.run(drain())
        assert [b.size for b in batches] == [2, 1]
        assert batches[0].requests == reqs[:2]
        assert batches[0].batch_id != batches[1].batch_id
        assert assembler.occupancy_mean == 1.5
        stats = assembler.stats()
        assert stats.layer == "batcher" and stats.requests == 3
        assert stats.counters["batches"] == 2
        assert stats.counters["occupancy_max"] == 2

    def test_incompatible_requests_never_share_a_batch(self):
        sched = FairScheduler(["a", "b"], capacity=8)
        sched.submit(_request("a"))
        sched.submit(_request("b"))
        sched.close()

        async def drain():
            assembler = _assembler(sched, capacity=4)
            batches = []
            while (batch := await assembler.next_batch()) is not None:
                batches.append(batch)
            return batches

        batches = asyncio.run(drain())
        # Distinct group keys (different tenants here): solo batches.
        assert [b.size for b in batches] == [1, 1]

    def test_window_admits_late_co_riders(self):
        async def scenario():
            sched = FairScheduler(["a"], capacity=8)
            assembler = _assembler(sched, capacity=2, window_s=5.0)
            sched.submit(_request("a"))
            task = asyncio.create_task(assembler.next_batch())
            await asyncio.sleep(0)  # leader dequeued, window open
            sched.submit(_request("a"))
            batch = await asyncio.wait_for(task, timeout=2.0)
            return batch

        batch = asyncio.run(scenario())
        # The second request arrived after the leader was dequeued but
        # inside the window: it rides along instead of paying its own run.
        assert batch.size == 2

    def test_capacity_one_skips_the_window(self):
        async def scenario():
            sched = FairScheduler(["a"], capacity=8)
            assembler = _assembler(sched, capacity=1, window_s=60.0)
            sched.submit(_request("a"))
            batch = await asyncio.wait_for(
                assembler.next_batch(), timeout=2.0
            )
            return assembler, batch

        assembler, batch = asyncio.run(scenario())
        assert batch.size == 1
        assert assembler.window_waits == 0

    def test_close_cuts_the_window_short(self):
        async def scenario():
            sched = FairScheduler(["a"], capacity=8)
            assembler = _assembler(sched, capacity=2, window_s=60.0)
            sched.submit(_request("a"))
            task = asyncio.create_task(assembler.next_batch())
            await asyncio.sleep(0)
            sched.close()
            return await asyncio.wait_for(task, timeout=2.0)

        batch = asyncio.run(scenario())
        # A closed scheduler will never supply co-riders: dispatch solo now.
        assert batch.size == 1


# -- crash-safe plan persistence --------------------------------------------


def _loop_program():
    from repro.core.program import lower
    from repro.quant.subjects import mnist_cnn_micro

    return lower(mnist_cnn_micro(np.random.default_rng(5)), TEST_LOOP)


class TestCrashSafePersistence:
    def test_crash_mid_write_leaves_no_partial_plan(self, tmp_path, monkeypatch):
        program = _loop_program()
        cache = PlanCache(tmp_path)

        def crash(src, dst):
            raise OSError("simulated crash before publish")

        monkeypatch.setattr(cache_mod.os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            cache.get(program, TEST_LOOP)
        # Nothing published, nothing leaked: a concurrent reader can never
        # observe a truncated artifact, and the staging file is cleaned up.
        assert list(tmp_path.rglob(f"*{PlanCache.SUFFIX}")) == []
        assert list(tmp_path.rglob("*.tmp")) == []
        monkeypatch.undo()
        # The retry compiles again and persists normally.
        plan = cache.get(program, TEST_LOOP)
        path = cache.path_for(plan.model_hash, TEST_LOOP)
        assert path.exists()
        assert PlanCache(tmp_path).get(program, TEST_LOOP).model_hash == plan.model_hash

    def test_hit_miss_accounting(self, tmp_path):
        program = _loop_program()
        cache = PlanCache(tmp_path)
        assert cache.hit_rate is None
        cache.get(program, TEST_LOOP)
        cache.get(program, TEST_LOOP)
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5
        assert cache.stats() == {"hits": 1, "misses": 1, "hit_rate": 0.5}

    def test_truncated_artifact_self_heals(self, tmp_path):
        program = _loop_program()
        cache = PlanCache(tmp_path)
        plan = cache.get(program, TEST_LOOP)
        path = cache.path_for(plan.model_hash, TEST_LOOP)
        whole = path.read_bytes()
        path.write_bytes(whole[:30])
        assert cache.get(program, TEST_LOOP).model_hash == plan.model_hash
        assert (cache.hits, cache.misses) == (0, 2)
        assert path.read_bytes() == whole


class TestShardedPlanCache:
    def test_disk_layout_shards_by_fingerprint_prefix(self, tmp_path):
        program = _loop_program()
        cache = ShardedPlanCache(tmp_path)
        plan = cache.get(program, TEST_LOOP)
        path = cache.path_for(plan.model_hash, TEST_LOOP)
        assert path.parent == tmp_path / plan.model_hash[:2]
        assert path.exists()

    def test_memory_layer_shares_one_plan_object(self, tmp_path, monkeypatch):
        program = _loop_program()
        cache = ShardedPlanCache(tmp_path)
        first = cache.get(program, TEST_LOOP)

        def boom(*a, **k):  # pragma: no cover - fails the test if reached
            raise AssertionError("memoized lookup must not touch disk/compile")

        monkeypatch.setattr(cache_mod, "compile_program", boom)
        monkeypatch.setattr(cache_mod, "load_plan", boom)
        assert cache.get(program, TEST_LOOP) is first
        assert (cache.hits, cache.misses) == (1, 1)

    def test_memory_only_mode_never_touches_disk(self, monkeypatch):
        program = _loop_program()
        cache = ShardedPlanCache(None)

        def boom(*a, **k):  # pragma: no cover - fails the test if reached
            raise AssertionError("memory-only cache must not write plans")

        monkeypatch.setattr(cache_mod, "dump_plan", boom)
        first = cache.get(program, TEST_LOOP)
        assert cache.get(program, TEST_LOOP) is first
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.root is None

    def test_the_ledgers_build_call_hits_disk_without_compiling(
            self, tmp_path, monkeypatch):
        """``SessionCore.build(..., cache=..., tuning=None)`` — the call
        ``benchmarks/ledger/tracing.py`` times as ``hit_build_s``."""
        program = _loop_program()
        cold = SessionCore.build(program, TEST_LOOP, tuning=None,
                                 cache=ShardedPlanCache(tmp_path))

        def boom(*a, **k):  # pragma: no cover - fails the test if reached
            raise AssertionError("a disk hit must not compile")

        monkeypatch.setattr(cache_mod, "compile_program", boom)
        monkeypatch.setattr("repro.serve.session.compile_program", boom)
        cache = ShardedPlanCache(tmp_path)  # a restart: nothing in memory
        warm = SessionCore.build(program, TEST_LOOP, tuning=None, cache=cache)
        assert (cache.hits, cache.misses) == (1, 0)
        assert warm.fingerprint == cold.fingerprint

    @pytest.mark.slow
    def test_a_disk_hit_never_compiles(self, tmp_path, monkeypatch):
        """A restart on a warm cache is ``load_plan`` and nothing else: the
        compiler is poisoned *before* the warm session is built."""
        rng = np.random.default_rng(5)
        qm = resnet_block_micro(rng)
        x = rng.integers(-2, 3, (1, 6, 6))
        cold = InferenceSession(qm, TEST_LOOP, seed=7, backend="batched",
                                cache=ShardedPlanCache(tmp_path))
        want = cold.run(x)

        def boom(*a, **k):  # pragma: no cover - fails the test if reached
            raise AssertionError("a disk hit must not compile")

        for mod in ("core.plan", "core.framework", "serve.cache",
                    "serve.session"):
            monkeypatch.setattr(f"repro.{mod}.compile_program", boom)
        cache = ShardedPlanCache(tmp_path)  # a restart: nothing in memory
        warm = InferenceSession(qm, TEST_LOOP, seed=7, backend="batched", cache=cache)
        assert (cache.hits, cache.misses) == (1, 0)
        assert [type(s) for s in warm.plan.steps] == [
            type(s) for s in cold.plan.steps]
        assert warm.runtime.batch_capacity == cold.runtime.batch_capacity
        assert np.array_equal(warm.run(x), want)  # a fresh executor per request


# -- session core / runtime split --------------------------------------------


class TestSessionCore:
    def test_build_compiles_and_fingerprints(self):
        core = SessionCore.build(_micro_model(), TEST_FBS, seed=3)
        assert core.fingerprint == core.plan.model_hash
        assert core.compile_s > 0
        assert core.seed == 3

    def test_core_pickles_across_process_boundaries(self):
        core = SessionCore.build(
            _micro_model(), TEST_FBS, seed=3, backend="serial"
        )
        clone = pickle.loads(pickle.dumps(core))
        assert clone.fingerprint == core.fingerprint
        assert clone.program.name == core.program.name
        assert clone.seed == core.seed and clone.backend == "serial"

    def test_facade_composes_core_and_runtime(self):
        session = InferenceSession(_micro_model(), TEST_FBS, seed=3)
        assert session.core.plan is session.plan
        assert session.runtime.pipeline is session.pipeline
        assert session.requests == 0 and len(session.latencies) == 0
        # The percentile log is a bounded window, not a per-run leak.
        assert session.latencies.maxlen == LATENCY_WINDOW


# -- service façade: registration and validation (no ciphertext runs) --------


class TestServiceValidation:
    def test_needs_tenants_and_sane_transport(self):
        with pytest.raises(ParameterError):
            AthenaService([])
        with pytest.raises(ParameterError):
            AthenaService([Tenant("a", TEST_FBS)], transport_s=-1.0)

    def test_registration_shares_plans_across_tenants(self):
        service = AthenaService(
            [Tenant("a", TEST_FBS, seed=1), Tenant("b", TEST_FBS, seed=2)]
        )
        fingerprint = service.register_model("micro", _micro_model())
        assert service.models == {"micro": fingerprint}
        # First tenant compiles (miss), the second shares the plan (hit).
        assert service.cache.stats() == {
            "hits": 1, "misses": 1, "hit_rate": 0.5,
        }
        with pytest.raises(ParameterError):
            service.register_model("micro", _micro_model())

    def test_prelowered_program_must_match_tenant_params(self):
        from repro.core.program import lower

        program = lower(_micro_model(), TEST_FBS)
        service = AthenaService([Tenant("a", TEST_LOOP)])
        with pytest.raises(ParameterError):
            service.register_model("micro", program)

    def test_submit_requires_started_service(self):
        service = AthenaService([Tenant("a", TEST_FBS)])
        with pytest.raises(ParameterError):
            service.submit_nowait(
                InferenceRequest("a", "micro", np.zeros((1, 4, 4)))
            )

    def test_positional_triple_rejected(self):
        """The tuple-era positional API is gone: typed requests only."""
        service = AthenaService([Tenant("a", TEST_FBS)])
        with pytest.raises(ParameterError, match="InferenceRequest"):
            service.submit_nowait(("a", "micro", np.zeros((1, 4, 4))))


# -- full-stack, real ciphertexts --------------------------------------------


@pytest.mark.slow
class TestServiceEndToEnd:
    def test_outputs_bit_identical_to_direct_sessions(self):
        """The headline guarantee: the service adds layers, not noise."""
        qm = _micro_model()
        rng = np.random.default_rng(11)
        # bob pins the serial dispatch backend; alice inherits the default.
        # Backend selection is per-runtime and context-local, so the pin
        # must never leak into alice's runs (asserted below), and since
        # backends are bit-identical it must not change bob's outputs.
        tenants = [
            Tenant("alice", TEST_FBS, seed=7),
            Tenant("bob", TEST_FBS, seed=8, backend="serial"),
        ]
        service = AthenaService(
            tenants, exec_config=ExecConfig("serial"), queue_capacity=4
        )
        service.register_model("micro", qm)
        batch = [
            InferenceRequest(tid, "micro", _micro_input(rng))
            for tid in ("alice", "bob", "alice", "bob")
        ]
        results = service.serve_batch(batch)

        # Replay each tenant's request stream through a direct session with
        # the same seed: same keys, same encryption-randomness stream, so
        # the service path must reproduce every output bit for bit.
        alice_rt = service.pool.runtime_for(("alice", "micro"))
        bob_rt = service.pool.runtime_for(("bob", "micro"))
        assert alice_rt.backend is None  # bob's pin stayed bob's
        assert bob_rt.backend.name == "serial"

        for tenant in tenants:
            session = InferenceSession(
                qm, TEST_FBS, seed=tenant.seed, backend=tenant.backend
            )
            for result, request in zip(results, batch):
                if result.tenant_id != tenant.tenant_id:
                    continue
                assert result.request_id == request.request_id
                assert result.model == "micro"
                # micro's plan cannot lane-pack (span > n/2): solo batches.
                assert result.batch_size == 1 and result.lane == 0
                assert result.timings["total_s"] >= result.timings["run_s"]
                direct = session.run(request.x_q)
                assert np.array_equal(result.output, direct)
                want = qm.forward_int(request.x_q[None])[0]
                assert np.abs(direct - want).max() <= refresh_noise_bound(qm, TEST_FBS)
            # Satellite guarantee: per-request latency percentiles exist.
            stats = session.stats()
            assert stats.requests == 2
            assert 0 < stats.timings["run_p50_s"] <= stats.timings["run_p99_s"]
            assert len(session.latencies) == 2

        stats = service.stats()
        assert isinstance(stats, LayerStats) and stats.layer == "service"
        assert stats.requests == 4
        detail = stats.detail
        assert detail["tenants"]["alice"]["requests"] == 2
        assert detail["tenants"]["bob"]["requests"] == 2
        assert detail["scheduler"]["counters"]["rejected"] == 0
        # Every layer reports through the same schema version.
        nested = [detail["scheduler"], detail["batcher"], detail["workers"]]
        assert {layer["schema_version"] for layer in nested} == {1}
        # Both tenants run the same model under the same params: one
        # compile, one shared plan.
        assert detail["plan_cache"] == {
            "hits": 1, "misses": 1, "hit_rate": 0.5,
        }

    def test_batched_outputs_bit_identical_to_single_runs(self):
        """Cross-tenant lane packing changes cost, never bits.

        The pack model fits two lanes per TEST_FBS ciphertext and its
        weights keep every LUT input a full quantization step from a
        rounding boundary, so plain integer inference, direct single-image
        sessions, and the batched service path must agree exactly.
        """
        qm = pack_cnn(np.random.default_rng(5))
        rng = np.random.default_rng(23)
        # One key domain: same params, same seed => cross-tenant batches.
        tenants = [
            Tenant("alice", TEST_FBS, seed=9), Tenant("bob", TEST_FBS, seed=9)
        ]
        service = AthenaService(
            tenants,
            exec_config=ExecConfig("serial"),
            queue_capacity=4,
            batch_window_s=1.0,
        )
        service.register_model("pack", qm)
        xs = [
            rng.integers(-2, 3, (1, 3, 3)).astype(np.int64) for _ in range(4)
        ]
        batch = [
            InferenceRequest(tid, "pack", x)
            for tid, x in zip(("alice", "bob", "alice", "bob"), xs)
        ]
        results = service.serve_batch(batch)

        # serve_batch admits everything up front, so both 2-lane batches
        # fill straight from the queue.
        assert [r.batch_size for r in results] == [2, 2, 2, 2]
        assert [r.lane for r in results] == [0, 1, 0, 1]
        assert results[0].batch_id == results[1].batch_id
        assert results[2].batch_id == results[3].batch_id
        assert results[0].batch_id != results[2].batch_id

        singles = [
            InferenceSession(qm, TEST_FBS, seed=9).run(x) for x in xs
        ]
        for result, x, single in zip(results, xs, singles):
            want = qm.forward_int(x[None])[0]
            assert np.array_equal(single, want)
            assert np.array_equal(result.output, want)

        stats = service.stats()
        batcher = stats.detail["batcher"]
        assert batcher["counters"]["batches"] == 2
        assert batcher["counters"]["occupancy_max"] == 2
        assert batcher["detail"]["occupancy_mean"] == 2.0
        workers = stats.detail["workers"]
        assert workers["counters"]["runs"] == 2 and workers["requests"] == 4

    def test_batching_respects_distinct_key_domains(self):
        """Different seeds => different keys => no shared ciphertexts."""
        qm = pack_cnn(np.random.default_rng(5))
        rng = np.random.default_rng(29)
        service = AthenaService(
            [Tenant("alice", TEST_FBS, seed=1), Tenant("bob", TEST_FBS, seed=2)],
            exec_config=ExecConfig("serial"),
            queue_capacity=4,
            batch_window_s=0.05,
        )
        service.register_model("pack", qm)
        batch = [
            InferenceRequest(tid, "pack",
                             rng.integers(-2, 3, (1, 3, 3)).astype(np.int64))
            for tid in ("alice", "bob", "alice", "bob")
        ]
        results = service.serve_batch(batch)
        # Same-tenant requests may still pair; alice/bob never mix.
        for result, request in zip(results, batch):
            assert np.array_equal(
                result.output, qm.forward_int(request.x_q[None])[0]
            )
        by_batch: dict[str, set[str]] = {}
        for result in results:
            by_batch.setdefault(result.batch_id, set()).add(result.tenant_id)
        assert all(len(tids) == 1 for tids in by_batch.values())

    def test_serve_batch_rejects_tuple_era_requests(self):
        """The positional shim was removed: tuples fail fast, typed works."""
        qm = _micro_model()
        rng = np.random.default_rng(31)
        service = AthenaService(
            [Tenant("a", TEST_FBS, seed=1)],
            exec_config=ExecConfig("serial"),
            queue_capacity=2,
        )
        service.register_model("micro", qm)
        x_q = _micro_input(rng)
        with pytest.raises(ParameterError, match="InferenceRequest"):
            service.serve_batch([("a", "micro", x_q)])
        results = service.serve_batch([InferenceRequest("a", "micro", x_q)])
        assert np.array_equal(
            results[0].output, InferenceSession(qm, TEST_FBS, seed=1).run(x_q)
        )

    def test_queue_full_sheds_against_live_service(self):
        qm = _micro_model()
        rng = np.random.default_rng(13)
        service = AthenaService(
            [Tenant("a", TEST_FBS, seed=1)],
            exec_config=ExecConfig("thread", 1),
            queue_capacity=1,
        )
        service.register_model("micro", qm)

        def submit():
            return service.submit_nowait(
                InferenceRequest("a", "micro", _micro_input(rng))
            )

        async def scenario():
            await service.start()
            try:
                accepted = [submit()]
                shed = []
                for _ in range(3):
                    try:
                        accepted.append(submit())
                    except ServiceOverloaded as exc:
                        shed.append(exc)
                results = await asyncio.gather(*accepted)
                return shed, results
            finally:
                await service.stop()

        shed, results = asyncio.run(scenario())
        # All submits land synchronously before the dispatcher runs: the
        # first fills the depth-1 queue, the rest are shed at admission —
        # each rejection carrying the payload a client backs off on.
        assert len(shed) == 3 and len(results) == 1
        assert all(
            (exc.tenant_id, exc.depth, exc.capacity) == ("a", 1, 1)
            for exc in shed
        )
        assert service.scheduler.stats().counters["rejected"] == 3

    def test_process_pool_answers_warm(self):
        qm = _micro_model()
        rng = np.random.default_rng(17)
        service = AthenaService(
            [Tenant("a", TEST_FBS, seed=1), Tenant("b", TEST_FBS, seed=2)],
            exec_config=ExecConfig("process", 2),
            queue_capacity=2,
        )
        service.register_model("micro", qm)
        x_a, x_b = _micro_input(rng), _micro_input(rng)
        res_a, res_b = service.serve_batch(
            [
                InferenceRequest("a", "micro", x_a),
                InferenceRequest("b", "micro", x_b),
            ]
        )
        # Process workers derive the same keys from the tenant seeds, so
        # outputs match fresh same-seed sessions in the parent exactly.
        assert np.array_equal(
            res_a.output, InferenceSession(qm, TEST_FBS, seed=1).run(x_a)
        )
        assert np.array_equal(
            res_b.output, InferenceSession(qm, TEST_FBS, seed=2).run(x_b)
        )
        # Runtimes live in the worker processes, not the parent.
        with pytest.raises(ParameterError):
            service.pool.runtime_for(("a", "micro"))
