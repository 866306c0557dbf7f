"""Unit tests for the proving engine: jobs, cache, pool, scheduler.

The engine's core promise is that *where* a proof runs (serial, thread
pool, process pool, or cache replay) never changes *what* it proves:
receipts must be byte-identical across every execution path.  Most
tests here pin that promise down; the rest cover the operational
machinery — LRU + persistent cache tiers, pool lifecycle, worker-crash
recovery, and the multi-round work-queue scheduler.
"""

import os

import pytest

from repro.commitments import BulletinBoard, window_digest
from repro.core.aggregation import RouterWindowInput
from repro.core.prover_service import ProverService
from repro.core.guest_programs import (
    aggregation_guest,
    query_guest,
    register_guest,
    resolve_guest,
)
from repro.engine import (
    BACKENDS,
    JobResult,
    PooledProver,
    ProofJob,
    ProverPool,
    ProvingEngine,
    ReceiptCache,
    execute_job,
    partition_windows,
    run_job_wire,
)
from repro.engine.jobs import encode_job
from repro.errors import (
    ConfigurationError,
    ProofError,
    SerializationError,
    StorageError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.hashing import sha256
from repro.obs import names as obs_names
from repro.obs import runtime as obs
from repro.obs.metrics import MetricsRegistry
from repro.serialization import decode, encode
from repro.storage import MemoryLogStore
from repro.zkvm import ExecutorEnvBuilder, GuestProgram, Prover, ProverOpts

from ..conftest import make_committed_records, make_record


# -- a tiny deterministic guest for pool-level tests ------------------------

def _echo_guest_fn(env):
    value = env.read()
    env.tick(100)
    env.commit({"echo": value})


echo_guest = register_guest(GuestProgram(_echo_guest_fn,
                                         name="test/echo"))


def _crash_guest_fn(env):
    import os as _os
    _os._exit(13)  # simulates a worker process dying mid-proof


def _other_echo_guest_fn(env):
    env.commit({"other": env.read()})


other_echo_guest = register_guest(GuestProgram(_other_echo_guest_fn,
                                               name="test/other-echo"))


crash_guest = register_guest(GuestProgram(_crash_guest_fn,
                                          name="test/crash"))


def echo_job(value="hello", **opts):
    builder = ExecutorEnvBuilder()
    builder.write(value)
    return ProofJob.from_parts(echo_guest, builder.build(),
                               ProverOpts(**opts) if opts else None)


def router_inputs(n_routers=2, rows=2):
    inputs = []
    for i in range(1, n_routers + 1):
        records = [make_record(router_id=f"r{i}", sport=2000 + j)
                   for j in range(rows)]
        blobs = tuple(r.to_bytes() for r in records)
        inputs.append(RouterWindowInput(
            router_id=f"r{i}", window_index=0,
            commitment=window_digest(list(blobs)), blobs=blobs))
    return inputs


class TestProofJob:
    def test_from_parts_captures_frames_and_opts(self):
        builder = ExecutorEnvBuilder()
        builder.write({"a": 1})
        env = builder.build()
        from repro.zkvm.receipt import ReceiptKind
        job = ProofJob.from_parts(
            echo_guest, env,
            ProverOpts(kind=ReceiptKind.SUCCINCT, num_queries=32))
        assert job.guest_id == "test/echo"
        assert job.frames == tuple(env.frames)
        assert job.kind == "succinct"
        assert job.num_queries == 32
        assert job.env_commitment == env.digest

    def test_wire_round_trip(self):
        job = echo_job("payload")
        restored = ProofJob.from_wire(decode(encode(job.to_wire())))
        assert restored == job

    def test_malformed_wire_raises(self):
        with pytest.raises(SerializationError):
            ProofJob.from_wire({"guest_id": "x"})

    def test_opts_digest_varies_with_statement_shape(self):
        assert echo_job().opts_digest != \
            echo_job(kind=echo_job().prover_opts().kind,
                     num_queries=64).opts_digest

    def test_cache_key_varies_with_guest_code(self):
        """Same env, different image id → different address: a guest
        code change can never replay a stale receipt."""
        job = echo_job()
        other_image = sha256(b"different guest code")
        assert job.cache_key(echo_guest.image_id) != \
            job.cache_key(other_image)

    def test_cache_key_varies_with_env(self):
        assert echo_job("a").cache_key(echo_guest.image_id) != \
            echo_job("b").cache_key(echo_guest.image_id)


class TestJobResult:
    def test_wire_round_trip(self):
        result = execute_job(echo_job("wire"))
        restored = JobResult.from_wire(decode(encode(result.to_wire())))
        assert restored.receipt.to_wire() == result.receipt.to_wire()
        assert restored.stats == result.stats
        assert restored.cached is False

    def test_replace_cached(self):
        result = execute_job(echo_job())
        warm = result.replace_cached(True)
        assert warm.cached is True
        assert warm.receipt is result.receipt

    def test_malformed_wire_raises(self):
        with pytest.raises(SerializationError):
            JobResult.from_wire({"receipt": {}})

    def test_run_job_wire_round_trip(self):
        """The process-pool entry point is a pure bytes → bytes function
        equivalent to executing the job in this process."""
        job = echo_job("cross-process")
        local = execute_job(job)
        shipped = JobResult.from_wire(decode(run_job_wire(
            encode_job(job, capture_obs=False))))
        assert shipped.receipt.to_wire() == local.receipt.to_wire()


class TestGuestRegistry:
    def test_resolve_registered(self):
        assert resolve_guest("test/echo") is echo_guest
        assert resolve_guest(aggregation_guest.name) is aggregation_guest
        assert resolve_guest(query_guest.name) is query_guest

    def test_reregister_same_program_idempotent(self):
        assert register_guest(echo_guest) is echo_guest

    def test_name_collision_rejected(self):
        impostor = GuestProgram(lambda env: env.commit(1),
                                name="test/echo")
        with pytest.raises(ConfigurationError):
            register_guest(impostor)

    def test_unknown_guest(self):
        with pytest.raises(ConfigurationError):
            resolve_guest("no/such/guest")


def cache_get(cache, job, guest=echo_guest):
    """Look ``job`` up the way ``ProverPool.submit`` does."""
    return cache.get(job.cache_key(guest.image_id), job, guest.image_id)


class TestReceiptCache:
    def test_miss_then_hit(self):
        cache = ReceiptCache()
        job = echo_job()
        key = job.cache_key(echo_guest.image_id)
        assert cache_get(cache, job) is None
        cache.put(key, execute_job(job))
        hit = cache_get(cache, job)
        assert hit is not None and hit.cached is True
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_lru_eviction(self):
        cache = ReceiptCache(memory_entries=2)
        jobs = {}
        for value in ("a", "b", "c"):
            job = jobs[value] = echo_job(value)
            cache.put(job.cache_key(echo_guest.image_id),
                      execute_job(job))
        # "a" is the least recently used of three entries in a 2-slot
        # cache — evicted; "b" and "c" survive.
        assert cache_get(cache, jobs["a"]) is None
        assert cache_get(cache, jobs["b"]) is not None
        assert cache_get(cache, jobs["c"]) is not None

    def test_persistent_tier_survives_new_cache(self):
        store = MemoryLogStore()
        job = echo_job("durable")
        key = job.cache_key(echo_guest.image_id)
        ReceiptCache(store=store).put(key, execute_job(job))
        fresh = ReceiptCache(store=store)
        hit = cache_get(fresh, job)
        assert hit is not None and hit.cached is True
        assert fresh.stats()["hits"] == 1

    def test_persistent_hit_promoted_to_memory(self):
        store = MemoryLogStore()
        job = echo_job("promote")
        key = job.cache_key(echo_guest.image_id)
        ReceiptCache(store=store).put(key, execute_job(job))
        fresh = ReceiptCache(store=store)
        cache_get(fresh, job)
        assert fresh.stats()["memory_entries"] == 1

    def test_corrupt_persistent_entry_is_a_miss(self):
        store = MemoryLogStore()
        cache = ReceiptCache(store=store)
        job = echo_job("corrupt")
        key = job.cache_key(echo_guest.image_id)
        store.put_checkpoint(f"receipt-cache/{key.hex()}",
                             b"not a receipt")
        assert cache_get(cache, job) is None

    def test_any_flipped_byte_is_a_miss_and_reproves(self):
        """The persistent tier is shared with untrusted nodes
        (``repro worker --db``): flip each byte of a stored entry and
        the pool must re-prove — never hand the entry back."""
        store = MemoryLogStore()
        job = echo_job("sealed")
        key = job.cache_key(echo_guest.image_id)
        honest = execute_job(job)
        ReceiptCache(store=store).put(key, honest)
        name = f"receipt-cache/{key.hex()}"
        blob = store.get_checkpoint(name)
        for position in range(len(blob)):
            flipped = bytearray(blob)
            flipped[position] ^= 0x01
            store.put_checkpoint(name, bytes(flipped))
            cache = ReceiptCache(store=store)
            assert cache_get(cache, job) is None, position
            assert cache.stats()["memory_entries"] == 0
        # Through the pool: the corrupt entry (last flip still stored)
        # is a miss, the job re-proves, and the answer is the honest one.
        with ProverPool(backend="serial",
                        cache=ReceiptCache(store=store)) as pool:
            result = pool.submit(job).result()
            assert result.cached is False
            assert result.receipt.to_wire() == honest.receipt.to_wire()
            assert pool.snapshot()["jobs_cached"] == 0

    def test_sealed_entry_for_another_image_is_a_miss(self):
        """A validly sealed, validly proven receipt filed under the
        wrong key: the digest envelope opens, so only re-verification
        against the job's own image id keeps it out."""
        store = MemoryLogStore()
        job = echo_job("swap")
        key = job.cache_key(echo_guest.image_id)
        builder = ExecutorEnvBuilder()
        builder.write("swap")
        foreign = execute_job(ProofJob.from_parts(
            other_echo_guest, builder.build()))
        assert foreign.receipt.claim.input_digest == job.env_commitment
        ReceiptCache(store=store).put(key, foreign)
        cache = ReceiptCache(store=store)
        assert cache_get(cache, job) is None
        assert cache.stats()["memory_entries"] == 0

    def test_sealed_entry_for_another_input_is_a_miss(self):
        """Right guest, wrong inputs: a genuine receipt for a different
        job must not be replayed as this one's."""
        store = MemoryLogStore()
        job = echo_job("wanted")
        key = job.cache_key(echo_guest.image_id)
        ReceiptCache(store=store).put(key,
                                      execute_job(echo_job("other")))
        assert cache_get(ReceiptCache(store=store), job) is None

    def test_degrades_to_memory_only_on_storage_error(self):
        class ExplodingStore(MemoryLogStore):
            def put_checkpoint(self, name, data):
                raise StorageError("disk on fire")

        cache = ReceiptCache(store=ExplodingStore())
        job = echo_job("degrade")
        key = job.cache_key(echo_guest.image_id)
        cache.put(key, execute_job(job))  # must not raise
        assert cache_get(cache, job) is not None  # memory tier serves
        assert cache.stats()["persistent"] is False

    def test_obs_snapshot_stripped_from_persistent_tier(self):
        store = MemoryLogStore()
        cache = ReceiptCache(store=store)
        job = echo_job("snap")
        key = job.cache_key(echo_guest.image_id)
        result = execute_job(job)
        cache.put(key, JobResult(receipt=result.receipt,
                                 stats=result.stats,
                                 obs_snapshot={"counters": {}}))
        fresh = ReceiptCache(store=store)
        assert cache_get(fresh, job).obs_snapshot is None


#: The proving switches the environment no longer carries (by suffix
#: after ``REPRO_``), each set to a value that once moved the default
#: backend off ``thread`` or gave a default service an engine.
REMOVED_SWITCHES = {"PROVE_WORKERS": "2", "PROVE_BACKEND": "process",
                    "PROVE_NODES": "127.0.0.1:7601",
                    "QUERY_PARTITIONS": "2", "STREAM": "1"}


class TestPoolConfig:
    """``ProvingEngine`` is the one place a backend is chosen: an
    explicit backend wins, else nodes mean ``remote``, a worker count
    means ``process`` and nothing means ``thread``."""

    def test_defaults(self):
        with ProvingEngine() as engine:
            assert engine.pool.backend == "thread"

    def test_explicit_args_win(self):
        with ProvingEngine(backend="thread", max_workers=2) as engine:
            assert (engine.pool.backend, engine.pool.max_workers) == \
                ("thread", 2)

    def test_explicit_backend_beats_env_nodes(self, monkeypatch):
        monkeypatch.setenv("REPRO_" + "PROVE_NODES",
                           REMOVED_SWITCHES["PROVE_NODES"])
        with ProvingEngine(backend="serial",
                           nodes=["127.0.0.1:7601"]) as engine:
            assert engine.pool.backend == "serial"

    def test_workers_select_process_backend(self):
        with ProvingEngine(max_workers=2) as engine:
            assert (engine.pool.backend, engine.pool.max_workers) == \
                ("process", 2)

    def test_nodes_select_remote_backend(self):
        with ProvingEngine(nodes=["127.0.0.1:7601"]) as engine:
            assert (engine.pool.backend, engine.pool.nodes) == \
                ("remote", ("127.0.0.1:7601",))

    def test_service_and_engine_agree_on_backend(self):
        service = ProverService(MemoryLogStore(), BulletinBoard(),
                                prove_workers=2)
        try:
            with ProvingEngine(max_workers=2) as engine:
                assert engine.pool.backend == \
                    service.engine.pool.backend == "process"
        finally:
            service.close()

    def test_removed_env_switches_are_inert(self, monkeypatch):
        def prove_default():
            store, bulletin, _ = make_committed_records(12, seed=3)
            service = ProverService(store, bulletin)
            assert service.engine is None
            round_receipt = service.aggregate_window(0).receipt
            query = service.answer_query("SELECT COUNT(*) FROM clogs")
            return (round_receipt.to_json_bytes(),
                    query.receipt.to_json_bytes())

        clean = prove_default()
        for suffix, value in REMOVED_SWITCHES.items():
            monkeypatch.setenv(f"REPRO_{suffix}", value)
        with ProvingEngine() as engine:
            assert engine.pool.backend == "thread"
        assert prove_default() == clean

    def test_bad_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ProvingEngine(backend="gpu")

    def test_remote_backend_needs_nodes(self):
        with pytest.raises(ConfigurationError):
            ProverPool(backend="remote")

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ProverPool(backend="thread", max_workers=0)


class TestProverPool:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_receipt_identical_to_direct_prover(self, backend):
        job = echo_job(f"via-{backend}")
        direct = Prover(job.prover_opts()).prove(
            echo_guest, job.env_input())
        with ProverPool(backend=backend, max_workers=2) as pool:
            result = pool.submit(job).result(timeout=30)
        assert result.receipt.to_wire() == direct.receipt.to_wire()
        assert result.cached is False

    def test_process_backend_receipt_identical(self):
        job = echo_job("via-process")
        direct = Prover(job.prover_opts()).prove(
            echo_guest, job.env_input())
        with ProverPool(backend="process", max_workers=2) as pool:
            result = pool.submit(job).result(timeout=120)
        assert result.receipt.to_wire() == direct.receipt.to_wire()

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_second_submit_is_cached(self, backend):
        job = echo_job("cache-me")
        with ProverPool(backend=backend, max_workers=2,
                        cache=ReceiptCache()) as pool:
            cold = pool.submit(job).result(timeout=30)
            warm = pool.submit(job).result(timeout=30)
            snap = pool.snapshot()
        assert cold.cached is False
        assert warm.cached is True
        assert warm.receipt.to_wire() == cold.receipt.to_wire()
        assert snap["jobs_cached"] == 1

    def test_shared_cache_across_pools(self):
        cache = ReceiptCache()
        job = echo_job("shared")
        with ProverPool(backend="serial", cache=cache) as pool:
            pool.submit(job).result(timeout=30)
        with ProverPool(backend="thread", cache=cache) as pool:
            assert pool.submit(job).result(timeout=30).cached is True

    def test_guest_abort_propagates(self):
        from repro.errors import GuestAbort

        def aborting(env):
            env.abort("bad input")

        program = register_guest(GuestProgram(aborting,
                                              name="test/abort"))
        builder = ExecutorEnvBuilder()
        job = ProofJob.from_parts(program, builder.build())
        with ProverPool(backend="thread") as pool:
            with pytest.raises(GuestAbort):
                pool.submit(job).result(timeout=30)
            assert pool.snapshot()["jobs_failed"] == 1

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_submit_after_shutdown_raises_typed(self, backend):
        """Submitting to a shut-down pool must raise the typed
        PoolShutdown (a ProofError subclass), never an opaque
        executor-internal RuntimeError — callers race shutdown in the
        daemon and cluster paths and need to catch it precisely."""
        from repro.errors import PoolShutdown
        pool = ProverPool(backend=backend, max_workers=1)
        if backend != "process":
            # warm the inner executor so shutdown exercises a live one
            pool.submit(echo_job("warm")).result(timeout=30)
        pool.shutdown()
        with pytest.raises(PoolShutdown):
            pool.submit(echo_job())
        # idempotent: a second shutdown and submit behave the same
        pool.shutdown()
        with pytest.raises(ProofError):
            pool.submit(echo_job())

    def test_injected_fault_fails_job_not_pool(self):
        injector = FaultInjector(
            FaultPlan.parse("engine.worker:proof:count=1", seed=0))
        with ProverPool(backend="serial", injector=injector) as pool:
            with pytest.raises(ProofError):
                pool.submit(echo_job("faulted")).result(timeout=30)
            # The pool survives the injected failure.
            ok = pool.submit(echo_job("after")).result(timeout=30)
        assert ok.receipt is not None
        assert injector.stats()["injected"]["engine.worker"] == 1

    def test_worker_process_crash_recovers(self):
        """A worker calling os._exit kills the whole executor
        (BrokenProcessPool).  The pool must surface a ProofError —
        not the raw concurrent.futures internals — and rebuild the
        executor so the next job proves."""
        builder = ExecutorEnvBuilder()
        crash_job = ProofJob.from_parts(crash_guest, builder.build())
        with ProverPool(backend="process", max_workers=1) as pool:
            with pytest.raises(ProofError, match="worker process"):
                pool.submit(crash_job).result(timeout=120)
            recovered = pool.submit(
                echo_job("phoenix")).result(timeout=120)
        assert recovered.receipt is not None

    def test_pooled_prover_adapts_prove_interface(self):
        builder = ExecutorEnvBuilder()
        builder.write("adapted")
        env = builder.build()
        with ProverPool(backend="serial") as pool:
            prover = PooledProver(pool, ProverOpts())
            info = prover.prove(echo_guest, env)
        direct = Prover(ProverOpts()).prove(echo_guest, env)
        assert info.receipt.to_wire() == direct.receipt.to_wire()


class TestMergeSnapshot:
    def test_counters_add_and_gauges_overwrite(self):
        a = MetricsRegistry()
        a.counter("repro_engine_jobs_total",
                  ("guest", "outcome")).inc(2, guest="g",
                                            outcome="proved")
        a.gauge("repro_engine_queue_depth").set(5)
        b = MetricsRegistry()
        b.counter("repro_engine_jobs_total",
                  ("guest", "outcome")).inc(3, guest="g",
                                            outcome="proved")
        b.gauge("repro_engine_queue_depth").set(1)
        a.merge_snapshot(b.snapshot())
        assert a.counter("repro_engine_jobs_total",
                         ("guest", "outcome")).value(
                             guest="g", outcome="proved") == 5
        assert a.gauge("repro_engine_queue_depth").value() == 1

    def test_histograms_merge(self):
        a = MetricsRegistry()
        a.histogram("repro_engine_job_seconds",
                    ("guest",)).observe(0.5, guest="g")
        b = MetricsRegistry()
        b.histogram("repro_engine_job_seconds",
                    ("guest",)).observe(1.5, guest="g")
        a.merge_snapshot(b.snapshot())
        (series,) = a.snapshot()["histograms"][0]["series"]
        assert series["count"] == 2
        assert series["sum"] == pytest.approx(2.0)

    def test_mismatched_buckets_rejected(self):
        a = MetricsRegistry()
        a.histogram("h", (), buckets=(1.0, 2.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", (), buckets=(1.0, 5.0)).observe(0.5)
        with pytest.raises(ConfigurationError):
            a.merge_snapshot(b.snapshot())


class TestPartitionWindows:
    def test_round_robin_by_router(self):
        inputs = router_inputs(n_routers=4)
        parts = partition_windows(inputs, 2)
        assert len(parts) == 2
        assert sum(len(p) for p in parts) == 4

    def test_clamps_to_router_count(self):
        assert len(partition_windows(router_inputs(2), 100)) == 2

    def test_rejects_bad_partition_count(self):
        with pytest.raises(ConfigurationError):
            partition_windows(router_inputs(2), 0)

    def test_rejects_empty_windows(self):
        with pytest.raises(ConfigurationError):
            partition_windows([], 2)


class TestProvingEngine:
    def test_rounds_share_one_pool(self):
        """Rounds flow through one pool, one ``prove_round`` each; each
        produces its own verifiable merge proof."""
        with ProvingEngine(backend="thread", max_workers=2) as engine:
            first = engine.prove_round(router_inputs(n_routers=2, rows=2))
            second = engine.prove_round(router_inputs(n_routers=3, rows=1))
        assert first.new_root != second.new_root

    def test_failed_round_isolated(self):
        """A fault that sinks one round's partitions must not stall or
        poison the next round on the same pool."""
        injector = FaultInjector(
            FaultPlan.parse("engine.worker:proof:count=2", seed=0))
        with ProvingEngine(backend="serial",
                           injector=injector) as engine:
            with pytest.raises(ProofError):
                engine.prove_round(router_inputs(n_routers=2, rows=2),
                                   num_partitions=2)
            engine.prove_round(router_inputs(n_routers=2, rows=1),
                               num_partitions=2)

    def test_one_round_is_observed_once(self):
        """``prove_round`` counts its partitions and observes one real
        and one modeled round time; a failed round observes the real
        time only."""
        injector = FaultInjector(
            FaultPlan.parse("engine.worker:proof:count=2", seed=0))
        with obs.capture() as cap, ProvingEngine(
                backend="serial", injector=injector) as engine:
            with pytest.raises(ProofError):
                engine.prove_round(router_inputs(2), num_partitions=2)
            engine.prove_round(router_inputs(3), num_partitions=3)
            registry = cap.registry
            real = registry.get(obs_names.ENGINE_ROUND_REAL_SECONDS)
            modeled = registry.get(obs_names.ENGINE_ROUND_MODELED_SECONDS)
            assert registry.get(
                obs_names.PARALLEL_PARTITIONS).value() == 5
            assert real.series_data()["count"] == 2
            assert modeled.series_data()["count"] == 1

    def test_merge_submission_failure_surfaces(self, monkeypatch):
        """An exception thrown while *building* the merge job (after
        every partition proved) runs on a future callback — it must
        come back as the round's error, not vanish into the callback
        thread leaving _collect to crash on a None merge future."""
        boom = SerializationError("receipt binding exploded")

        def broken_build(partition_results):
            raise boom

        with ProvingEngine(backend="serial") as engine:
            monkeypatch.setattr(engine, "_merge_jobs", broken_build)
            with pytest.raises(SerializationError) as raised:
                engine.prove_round(router_inputs(2), num_partitions=2)
        assert raised.value is boom

    def test_fanout_submits_every_built_merge(self):
        """The one fan-out primitive: N sibling jobs, then however many
        merge jobs the builder returns, collected in builder order."""
        with ProvingEngine(backend="thread", max_workers=2) as engine:
            schedule = engine.submit_fanout(
                [echo_job("p0"), echo_job("p1")],
                lambda results: [echo_job(f"m{i}") for i in range(3)])
            partitions, merges = schedule.collect()
            assert [next(r.receipt.journal.values())["echo"]
                    for r in partitions] == ["p0", "p1"]
            assert [next(f.result().receipt.journal.values())["echo"]
                    for f in merges] == ["m0", "m1", "m2"]

    def test_fanout_rejects_empty_stages(self):
        with ProvingEngine(backend="serial") as engine:
            with pytest.raises(ConfigurationError):
                engine.submit_fanout([], lambda results: [echo_job()])
            # An empty merge stage is the builder's bug; it surfaces
            # through the parked future like any builder failure.
            _, (parked,) = engine.submit_fanout(
                [echo_job()], lambda results: []).collect()
            with pytest.raises(ConfigurationError):
                parked.result()

    def test_fanout_poisoned_by_a_failed_sibling(self):
        injector = FaultInjector(
            FaultPlan.parse("engine.worker:proof:start=2,count=1",
                            seed=0))
        built = []
        with ProvingEngine(backend="serial",
                           injector=injector) as engine:
            schedule = engine.submit_fanout(
                [echo_job("a"), echo_job("b")],
                lambda results: built.append(results) or [echo_job()])
            with pytest.raises(ProofError):
                schedule.collect()
        assert built == []  # no merge for a poisoned fan-out

    def test_warm_round_replays_from_cache(self):
        """Re-proving an identical round must hit the cache for every
        partition and the merge."""
        inputs = router_inputs(n_routers=2)
        with ProvingEngine(backend="serial") as engine:
            cold = engine.prove_round(inputs)
            warm = engine.prove_round(inputs)
            snap = engine.snapshot()
        assert warm.receipt.to_wire() == cold.receipt.to_wire()
        assert all(info.cached for info in warm.partition_infos)
        assert warm.merge_info.cached is True
        assert snap["jobs_cached"] == 3  # 2 partitions + 1 merge

    def test_snapshot_shape(self):
        with ProvingEngine(backend="serial") as engine:
            engine.prove_round(router_inputs(2))
            snap = engine.snapshot()
        assert snap["backend"] == "serial"
        assert snap["jobs_done"] >= 3
        assert set(snap["cache"]) >= {"hits", "misses", "hit_rate"}

    def test_all_backends_exported(self):
        assert BACKENDS == ("serial", "thread", "process", "remote")
