"""The layered serving stack: tenants, scheduler, batching, workers, service.

Fast tests pin each layer's contract in isolation — admission control,
fair dequeue and batch formation (pure asyncio, no ciphertexts), the
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
import dataclasses
import pickle

import numpy as np
import pytest

import repro.serve.cache as cache_mod
from repro.errors import ParameterError, ServiceOverloaded
from repro.fhe.params import TEST_FBS, TEST_LOOP
from repro.perf import ExecConfig
from repro.serve import (
    AthenaService,
    FairScheduler,
    InferenceRequest,
    InferenceResult,
    InferenceSession,
    LayerStats,
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
        assert registry.ids() == ["alice"]

    def test_empty_tenant_id_rejected(self):
        with pytest.raises(ParameterError):
            Tenant("", TEST_FBS)

    def test_key_sizing_from_params(self):
        alice = Tenant("alice", TEST_FBS, seed=1)
        bob = Tenant("bob", TEST_LOOP, seed=2)
        assert alice.key_material_bytes() > 0
        # A bigger parameter set implies more evaluation-key storage.
        assert bob.key_material_bytes() > alice.key_material_bytes()

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


def _scheduler(
    tenant_ids,
    capacity=8,
    lanes=1,
    window_s=0.0,
    group_key=lambda request: (request.tenant_id, request.model),
    ciphertexts=1,
):
    return FairScheduler(
        tenant_ids,
        capacity,
        group_key=group_key,
        shape=lambda request: (lanes, ciphertexts),
        window_s=window_s,
    )


async def _drain(sched) -> list[list[InferenceRequest]]:
    batches = []
    while (batch := await sched.next_batch()) is not None:
        batches.append(batch)
    return batches


class TestFairScheduler:
    def test_per_tenant_bound_isolates_tenants(self):
        sched = _scheduler(["a", "b"], capacity=2)
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
        sched = _scheduler(["a", "b"])
        for tid in ["a", "a", "a", "b"]:
            sched.submit(_request(tid))
        sched.close()

        batches = asyncio.run(_drain(sched))
        # b's lone request is served second despite arriving last.
        assert [batch[0].tenant_id for batch in batches] == ["a", "b", "a", "a"]
        assert all(len(batch) == 1 for batch in batches)
        stats = sched.stats()
        assert stats.counters["accepted"] == 4
        assert stats.timings["queue_wait_s"] >= 0

    def test_waiter_wakes_on_submit_and_drains_on_close(self):
        async def scenario():
            sched = _scheduler(["a"], capacity=1)

            async def waiter():
                first = await sched.next_batch()
                second = await sched.next_batch()
                return first, second

            task = asyncio.create_task(waiter())
            await asyncio.sleep(0)  # park the waiter on the wakeup event
            sched.submit(_request("a"))
            await asyncio.sleep(0)
            sched.close()
            return await task

        first, second = asyncio.run(scenario())
        assert [r.tenant_id for r in first] == ["a"] and second is None

    def test_closed_scheduler_sheds(self):
        sched = _scheduler(["a"])
        sched.close()
        with pytest.raises(ServiceOverloaded):
            sched.submit(_request("a"))

    def test_unknown_tenant_is_a_usage_error(self):
        sched = _scheduler(["a"])
        with pytest.raises(ParameterError):
            sched.submit(_request("intruder"))

    def test_bad_construction_rejected(self):
        with pytest.raises(ParameterError):
            _scheduler([])
        with pytest.raises(ParameterError):
            _scheduler(["a"], capacity=0)

    def test_stats_shape(self):
        sched = _scheduler(["a", "b"], capacity=3)
        sched.submit(_request("a"))
        stats = sched.stats()
        assert isinstance(stats, LayerStats) and stats.layer == "scheduler"
        assert stats.requests == 1
        counters = stats.counters
        assert counters["queue_depth"] == counters["queue_depth_max"] == 1
        assert counters["batches"] == counters["window_waits"] == 0
        assert stats.detail["capacity_per_tenant"] == 3
        assert stats.detail["per_tenant_depth"] == {"a": 1, "b": 0}
        assert stats.detail["occupancy_mean"] is None
        assert stats.to_dict()["schema_version"] == 1


# -- batch formation ---------------------------------------------------------


class TestBatches:
    def test_co_riders_are_matching_heads_only(self):
        sched = _scheduler(
            ["a", "b"], lanes=8, group_key=lambda request: request.model
        )
        first_a, second_a = _request("a"), _request("a")
        first_b, second_b = _request("b", model="other"), _request("b")
        for req in (first_a, second_a, first_b, second_b):
            sched.submit(req)
        sched.close()

        batches = asyncio.run(_drain(sched))
        # Both of a's queued requests match the leader; b's head does not,
        # and a co-rider is never dug out from behind a non-matching head
        # (FIFO per tenant is preserved), so second_b waits for first_b.
        assert batches == [[first_a, second_a], [first_b], [second_b]]
        assert all(r.dequeued_at is not None for batch in batches for r in batch)
        assert sched.depth() == 0

    def test_groups_compatible_queued_requests_up_to_capacity(self):
        sched = _scheduler(["a"], lanes=2)
        reqs = [_request("a") for _ in range(3)]
        for req in reqs:
            sched.submit(req)
        sched.close()

        batches = asyncio.run(_drain(sched))
        assert [len(b) for b in batches] == [2, 1]
        assert batches[0] == reqs[:2]
        stats = sched.stats()
        assert stats.layer == "scheduler" and stats.requests == 3
        assert stats.counters["batches"] == 2
        assert stats.counters["occupancy_max"] == 2
        assert stats.detail["occupancy_mean"] == 1.5

    def test_incompatible_requests_never_share_a_batch(self):
        sched = _scheduler(["a", "b"], lanes=4)
        sched.submit(_request("a"))
        sched.submit(_request("b"))
        sched.close()

        batches = asyncio.run(_drain(sched))
        # Distinct group keys (different tenants here): solo batches.
        assert [len(b) for b in batches] == [1, 1]

    def test_window_admits_late_co_riders(self):
        async def scenario():
            sched = _scheduler(["a"], lanes=2, window_s=5.0)
            sched.submit(_request("a"))
            task = asyncio.create_task(sched.next_batch())
            await asyncio.sleep(0)  # leader dequeued, window open
            sched.submit(_request("a"))
            batch = await asyncio.wait_for(task, timeout=2.0)
            return sched, batch

        sched, batch = asyncio.run(scenario())
        # The second request arrived after the leader was dequeued but
        # inside the window: it rides along instead of paying its own run.
        assert len(batch) == 2
        assert sched.window_waits == 1

    def test_capacity_one_skips_the_window(self):
        async def scenario():
            sched = _scheduler(["a"], lanes=1, window_s=60.0)
            sched.submit(_request("a"))
            batch = await asyncio.wait_for(sched.next_batch(), timeout=2.0)
            return sched, batch

        sched, batch = asyncio.run(scenario())
        assert len(batch) == 1
        assert sched.window_waits == 0

    def test_close_cuts_the_window_short(self):
        async def scenario():
            sched = _scheduler(["a"], lanes=2, window_s=60.0)
            sched.submit(_request("a"))
            task = asyncio.create_task(sched.next_batch())
            await asyncio.sleep(0)
            sched.close()
            return await asyncio.wait_for(task, timeout=2.0)

        batch = asyncio.run(scenario())
        # A closed scheduler will never supply co-riders: dispatch solo now.
        assert len(batch) == 1


class TestStackedBatches:
    """A batch is lanes x ciphertexts: the leader's ciphertext fills as
    before, then queued matching requests ride as further ciphertexts."""

    def test_extra_ciphertexts_come_only_from_admitted_requests(self):
        async def scenario():
            sched = _scheduler(["a"], lanes=2, ciphertexts=3, window_s=5.0)
            queued = [_request("a") for _ in range(3)]
            for req in queued:
                sched.submit(req)
            task = asyncio.create_task(sched.next_batch())
            late = _request("a")
            sched.submit(late)  # before the dispatcher runs: already admitted
            batch = await asyncio.wait_for(task, timeout=2.0)
            after = _request("a")
            sched.submit(after)  # after dispatch: the next batch's
            sched.close()
            rest = await sched.next_batch()
            return sched, queued + [late], batch, after, rest

        sched, admitted, batch, after, rest = asyncio.run(scenario())
        assert batch == admitted and rest == [after]
        # The first ciphertext was full: nothing waited for the others.
        assert sched.window_waits == 0

    def test_a_lone_leader_waits_only_for_its_own_lanes(self):
        async def scenario(lanes, window_s):
            sched = _scheduler(["a"], lanes=lanes, ciphertexts=16, window_s=window_s)
            sched.submit(_request("a"))
            start = asyncio.get_running_loop().time()
            batch = await asyncio.wait_for(sched.next_batch(), timeout=2.0)
            return sched, batch, asyncio.get_running_loop().time() - start

        # One lane: no window at all, however many ciphertexts may stack.
        sched, batch, waited = asyncio.run(scenario(1, 60.0))
        assert len(batch) == 1 and sched.window_waits == 0 and waited < 1.0
        # Two lanes: the window is spent on the leader's one free lane only.
        sched, batch, waited = asyncio.run(scenario(2, 0.05))
        assert len(batch) == 1 and sched.window_waits >= 1 and waited < 1.0

    def test_the_cap_is_lanes_times_ciphertexts(self):
        sched = _scheduler(["a"], lanes=2, ciphertexts=3)
        reqs = [_request("a") for _ in range(8)]
        for req in reqs:
            sched.submit(req)
        sched.close()
        batches = asyncio.run(_drain(sched))
        assert batches == [reqs[:6], reqs[6:]]
        assert sched.stats().counters["occupancy_max"] == 6

    def test_fifo_per_tenant_and_round_robin_leaders(self):
        sched = _scheduler(["a", "b", "c"], ciphertexts=2,
                           group_key=lambda request: request.model)
        reqs = {tid: [_request(tid, model) for model in ("m", "m", "x")]
                for tid in ("a", "b", "c")}
        for i in range(3):
            for tid in "abc":
                sched.submit(reqs[tid][i])
        sched.close()
        batches = asyncio.run(_drain(sched))
        assert all(len({r.model for r in batch}) == 1 for batch in batches)
        for tid, mine in reqs.items():
            assert [r for batch in batches for r in batch if r.tenant_id == tid] == mine
        # The extras' sweep continues the fairness ring, so every tenant
        # leads once in the first three batches, whoever rode along.
        assert {batch[0].tenant_id for batch in batches[:3]} == {"a", "b", "c"}
        assert [len(batch) for batch in batches] == [2, 2, 2, 2, 1]

    def test_derived_cap_is_one_cmult_chunk_over_the_widest_level(self):
        from repro.core.plan import compile_program
        from repro.core.program import lower
        from repro.fhe.backend import cmult_chunk

        plan = compile_program(lower(pack_cnn(np.random.default_rng(5)), TEST_FBS), TEST_FBS)
        widest = max(len(level) for step in plan.steps if step.kind == "linear"
                     for level in step.round.lut.plan.levels)
        assert (cmult_chunk(TEST_FBS), widest) == (128, 8)
        assert plan.stack_capacity == 16
        assert cmult_chunk(TEST_LOOP) // widest == 3


# -- crash-safe plan persistence --------------------------------------------


def _loop_program():
    from repro.core.program import lower
    from repro.quant.subjects import mnist_cnn_micro

    return lower(mnist_cnn_micro(np.random.default_rng(5)), TEST_LOOP)


class TestCrashSafePersistence:
    def test_crash_mid_write_leaves_no_partial_plan(self, tmp_path, monkeypatch):
        program = _loop_program()
        cache = ShardedPlanCache(tmp_path)

        def crash(src, dst):
            raise OSError("simulated crash before publish")

        monkeypatch.setattr(cache_mod.os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            cache.get(program, TEST_LOOP)
        # Nothing published, nothing leaked: a concurrent reader can never
        # observe a truncated artifact, and the staging file is cleaned up.
        assert list(tmp_path.rglob(f"*{ShardedPlanCache.SUFFIX}")) == []
        assert list(tmp_path.rglob("*.tmp")) == []
        monkeypatch.undo()
        # The retry compiles again and persists normally.
        plan = cache.get(program, TEST_LOOP)
        path = cache.path_for(plan.model_hash, TEST_LOOP)
        assert path.exists()
        restarted = ShardedPlanCache(tmp_path)
        assert restarted.get(program, TEST_LOOP).model_hash == plan.model_hash
        assert (restarted.hits, restarted.misses) == (1, 0)

    def test_hit_miss_accounting(self, tmp_path):
        program = _loop_program()
        cache = ShardedPlanCache(tmp_path)
        assert cache.stats()["hit_rate"] is None
        cache.get(program, TEST_LOOP)
        cache.get(program, TEST_LOOP)
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.stats() == {"hits": 1, "misses": 1, "hit_rate": 0.5}

    def test_truncated_artifact_self_heals(self, tmp_path):
        program = _loop_program()
        plan = ShardedPlanCache(tmp_path).get(program, TEST_LOOP)
        cache = ShardedPlanCache(tmp_path)  # a restart: nothing in memory
        path = cache.path_for(plan.model_hash, TEST_LOOP)
        whole = path.read_bytes()
        path.write_bytes(whole[:30])
        assert cache.get(program, TEST_LOOP).model_hash == plan.model_hash
        assert (cache.hits, cache.misses) == (0, 1)
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

        # The engine itself has no compile path left to poison.
        for mod in ("core.plan", "serve.cache", "serve.session"):
            monkeypatch.setattr(f"repro.{mod}.compile_program", boom)
        cache = ShardedPlanCache(tmp_path)  # a restart: nothing in memory
        warm = InferenceSession(qm, TEST_LOOP, seed=7, backend="batched", cache=cache)
        assert (cache.hits, cache.misses) == (1, 0)
        assert [type(s) for s in warm.plan.steps] == [
            type(s) for s in cold.plan.steps]
        assert warm.plan.batch_capacity == cold.plan.batch_capacity
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
        # A core is its plan: no lowered program, no second parameter set.
        assert [f.name for f in dataclasses.fields(clone)] == [
            "plan", "seed", "backend", "compile_s"]
        assert clone.fingerprint == core.fingerprint
        assert clone.plan.name == core.plan.name
        assert clone.seed == core.seed and clone.backend == "serial"

    def test_facade_composes_core_and_runtime(self):
        session = InferenceSession(_micro_model(), TEST_FBS, seed=3)
        assert session.core.plan is session.plan
        assert session.runtime.requests == 0 and len(session.runtime.latencies) == 0
        # The percentile log is a bounded window, not a per-run leak.
        assert session.runtime.latencies.maxlen == LATENCY_WINDOW


# -- service façade: registration and validation (no ciphertext runs) --------


class TestServiceValidation:
    def test_needs_tenants_and_sane_transport(self):
        with pytest.raises(ParameterError):
            AthenaService([])
        with pytest.raises(ParameterError):
            AthenaService([Tenant("a", TEST_FBS)], transport_s=-1.0)

    def test_bad_queue_capacity_fails_before_keygen(self):
        # Refused at construction: start() never keygens a pool it then
        # cannot front with a scheduler.
        with pytest.raises(ParameterError, match="queue capacity"):
            AthenaService(
                [Tenant("a", TEST_FBS)],
                exec_config=ExecConfig("thread", 2),
                queue_capacity=0,
            )

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
        from repro.fhe.backend import CountingBackend, current_backend

        qm = _micro_model()
        rng = np.random.default_rng(11)
        # The config's backend is every session's pin: one counter over the
        # batched engine. Backends are bit-identical, so the pin must not
        # change an output against unpinned direct sessions, and it must
        # not outlive the runs (asserted below).
        counting = CountingBackend()
        tenants = [
            Tenant("alice", TEST_FBS, seed=7),
            Tenant("bob", TEST_FBS, seed=8),
        ]
        service = AthenaService(
            tenants,
            exec_config=ExecConfig("thread", 1, backend=counting),
            queue_capacity=4,
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
        alice_rt = service.pool._runtimes["alice", "micro"]
        bob_rt = service.pool._runtimes["bob", "micro"]
        assert alice_rt.backend is counting and bob_rt.backend is counting
        assert counting.totals()["decrypt"] == 4  # the pin reached every run
        assert current_backend() is not counting

        for tenant in tenants:
            session = InferenceSession(qm, TEST_FBS, seed=tenant.seed)
            for result, request in zip(results, batch):
                if result.tenant_id != tenant.tenant_id:
                    continue
                assert result.request_id == request.request_id
                assert result.model == "micro"
                # micro's plan cannot lane-pack (span > n/2): one lane per
                # ciphertext, and each tenant's two queued requests stack
                # as two ciphertexts of one batch (distinct seeds: no mixing).
                assert result.batch_size == 2 and result.lane == 0
                assert result.timings["total_s"] >= result.timings["run_s"]
                direct = session.run(request.x_q)
                assert np.array_equal(result.output, direct)
                want = qm.forward_int(request.x_q[None])[0]
                assert np.abs(direct - want).max() <= refresh_noise_bound(qm, TEST_FBS)
            # Satellite guarantee: per-request latency percentiles exist.
            stats = session.stats()
            assert stats.requests == 2
            assert 0 < stats.timings["run_p50_s"] <= stats.timings["run_p99_s"]
            assert len(session.runtime.latencies) == 2

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
            exec_config=ExecConfig("thread", 1),
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

        # serve_batch admits everything up front: the leader's 2-lane
        # ciphertext fills straight from the queue and the other two
        # requests ride along as a second, stacked ciphertext.
        assert [r.batch_size for r in results] == [4, 4, 4, 4]
        assert [r.lane for r in results] == [0, 1, 0, 1]
        assert len({r.batch_id for r in results}) == 1

        singles = [
            InferenceSession(qm, TEST_FBS, seed=9).run(x) for x in xs
        ]
        for result, x, single in zip(results, xs, singles):
            want = qm.forward_int(x[None])[0]
            assert np.array_equal(single, want)
            assert np.array_equal(result.output, want)

        stats = service.stats()
        scheduler = stats.detail["scheduler"]
        assert stats.detail["batcher"] is scheduler
        assert scheduler["counters"]["batches"] == 1
        assert scheduler["counters"]["occupancy_max"] == 4
        assert scheduler["detail"]["occupancy_mean"] == 4.0
        workers = stats.detail["workers"]
        assert workers["counters"]["runs"] == 1 and workers["requests"] == 4

    def test_batching_off_runs_every_request_solo(self):
        """batching=False gives every leader one lane: no co-riders, no wait."""
        qm = pack_cnn(np.random.default_rng(5))
        rng = np.random.default_rng(37)
        service = AthenaService(
            [Tenant("alice", TEST_FBS, seed=9), Tenant("bob", TEST_FBS, seed=9)],
            exec_config=ExecConfig("thread", 1),
            queue_capacity=4,
            batching=False,
            batch_window_s=1.0,
        )
        service.register_model("pack", qm)
        assert service._cores[("alice", "pack")].plan.batch_capacity == 2
        batch = [
            InferenceRequest(tid, "pack",
                             rng.integers(-2, 3, (1, 3, 3)).astype(np.int64))
            for tid in ("alice", "bob", "alice", "bob")
        ]
        results = service.serve_batch(batch)
        assert [r.batch_size for r in results] == [1, 1, 1, 1]
        assert len({r.batch_id for r in results}) == 4
        for result, request in zip(results, batch):
            assert np.array_equal(
                result.output, qm.forward_int(request.x_q[None])[0]
            )
        counters = service.stats().detail["scheduler"]["counters"]
        assert counters["batches"] == 4 and counters["window_waits"] == 0

    def test_batching_respects_distinct_key_domains(self):
        """Different seeds => different keys => no shared ciphertexts."""
        qm = pack_cnn(np.random.default_rng(5))
        rng = np.random.default_rng(29)
        service = AthenaService(
            [Tenant("alice", TEST_FBS, seed=1), Tenant("bob", TEST_FBS, seed=2)],
            exec_config=ExecConfig("thread", 1),
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

    def test_a_misshapen_input_never_reaches_its_batch_mates(self):
        """Admission gives every input the plan's entry shape, or refuses it.

        Two tenants in one key domain share the 2-lane pack plan. A
        ``(1, 2, 2)`` input cannot take the entry's ``(1, 3, 3)``: it raises
        at submit and nothing is queued. A flat ``(9,)`` input can: it rides
        in one batch with a ``(1, 3, 3)`` one. Each answer equals its solo
        run bit for bit.
        """
        qm = pack_cnn(np.random.default_rng(5))
        rng = np.random.default_rng(41)
        service = AthenaService(
            [Tenant("a", TEST_FBS, seed=9), Tenant("b", TEST_FBS, seed=9)],
            exec_config=ExecConfig("thread", 1),
            queue_capacity=4,
            batch_window_s=1.0,
        )
        service.register_model("pack", qm)
        good = rng.integers(-2, 3, (1, 3, 3)).astype(np.int64)
        flat = rng.integers(-2, 3, 9).astype(np.int64)

        async def scenario():
            await service.start()
            try:
                first = service.submit_nowait(InferenceRequest("a", "pack", good))
                accepted = service.scheduler.stats().counters["accepted"]
                with pytest.raises(ParameterError, match="entry"):
                    service.submit_nowait(InferenceRequest(
                        "b", "pack", np.zeros((1, 2, 2), dtype=np.int64)))
                assert service.scheduler.stats().counters["accepted"] == accepted
                second = service.submit_nowait(InferenceRequest("b", "pack", flat))
                return await asyncio.gather(first, second)
            finally:
                await service.stop()

        res_good, res_flat = asyncio.run(scenario())
        assert res_good.batch_id == res_flat.batch_id
        assert [res_good.batch_size, res_flat.batch_size] == [2, 2]
        solo = InferenceSession(qm, TEST_FBS, seed=9)
        assert np.array_equal(res_good.output, solo.run(good))
        assert np.array_equal(res_flat.output, solo.run(flat))

    def test_a_misshapen_solo_input_raises_a_parameter_error(self):
        """The solo path runs the admission's one check: a ``(1, 2, 2)``
        input to the pack plan's ``(1, 3, 3)`` entry raises
        ``ParameterError`` — not numpy's reshape error — from
        ``InferenceSession.run`` and from ``AthenaPipeline.run_batch``, for
        the whole batch it would have joined."""
        qm = pack_cnn(np.random.default_rng(5))
        session = InferenceSession(qm, TEST_FBS, seed=9)
        good = np.random.default_rng(41).integers(-2, 3, (1, 3, 3)).astype(np.int64)
        bad = np.zeros((1, 2, 2), dtype=np.int64)
        with pytest.raises(ParameterError, match=r"entry takes \(1, 3, 3\)"):
            session.run(bad)
        with pytest.raises(ParameterError, match="entry"):
            session.runtime.pipeline.run_batch(session.plan, [good, bad])
        assert np.array_equal(session.run(good.ravel()), session.run(good))

    def test_serve_batch_rejects_tuple_era_requests(self):
        """The positional shim was removed: tuples fail fast, typed works."""
        qm = _micro_model()
        rng = np.random.default_rng(31)
        service = AthenaService(
            [Tenant("a", TEST_FBS, seed=1)],
            exec_config=ExecConfig("thread", 1),
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
        assert service.pool._runtimes is None
