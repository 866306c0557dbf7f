"""Chaos tests for the proving engine under the supervised daemon.

The ``engine.worker`` fault site models a prover worker dying at job
dispatch — the host-side moment a crash surfaces on any backend.  Two
invariants must hold when it fires:

* transient worker faults are absorbed by the daemon's retry schedule
  and the surviving chain is bit-identical to a fault-free run, and
* a permanently poisoned window is quarantined after ``max_attempts``
  without stalling the pool — every other window still proves through
  the same engine.
"""

import os

import pytest

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.daemon import AggregationDaemon, DaemonPolicy
from repro.core.prover_service import ProverService
from repro.faults import FaultInjector, FaultPlan, inject_faults
from repro.netflow.clock import SimClock
from repro.storage import MemoryLogStore

from ..conftest import make_committed_records, make_record

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


def populate(store, bulletin, windows=3, rows_per_window=2):
    for window in range(windows):
        for router in ("r1", "r2"):
            records = [
                make_record(router_id=router,
                            sport=1_000 + window * 10 + j)
                for j in range(rows_per_window)
            ]
            store.append_records(router, window, records)
            bulletin.publish(Commitment(
                router, window,
                window_digest([r.to_bytes() for r in records]),
                len(records), window * 5_000))


def clean_root(windows=3):
    store = MemoryLogStore()
    bulletin = BulletinBoard()
    populate(store, bulletin, windows=windows)
    service = ProverService(store, bulletin)
    for window in range(windows):
        service.aggregate_window(window)
    return service.state.root


def pooled_service(**kwargs):
    store = MemoryLogStore()
    bulletin = BulletinBoard()
    populate(store, bulletin, **kwargs)
    return ProverService(store, bulletin, pool_backend="thread",
                         prove_workers=2)


class TestEngineWorkerFaults:
    def test_transient_worker_faults_absorbed(self):
        """Worker deaths on a retry-friendly schedule: the daemon
        converges to the clean root and nothing is quarantined."""
        service = pooled_service()
        injector = FaultInjector(FaultPlan.parse(
            "engine.worker:proof:start=2,every=3,count=3", seed=SEED))
        inject_faults(service, injector)
        daemon = AggregationDaemon(
            service, SimClock(),
            DaemonPolicy(batch_limit=1, max_lag_ms=0, max_attempts=10,
                         retry_base_ms=100, retry_max_ms=500,
                         stall_after=50),
            seed=SEED)
        try:
            for _ in range(200):
                daemon.step()
                daemon.clock.advance_ms(600)
                if not daemon.pending_windows() and \
                        not daemon.quarantined:
                    break
            assert daemon.quarantined == {}
            assert service.aggregated_windows == {0, 1, 2}
            assert service.state.root == clean_root()
            # The plan actually killed jobs at the engine...
            assert injector.stats()["injected"]["engine.worker"] > 0
            snap = service.status()["engine"]
            assert snap["jobs_failed"] > 0
            # ...and the pool drained: nothing left in flight.
            assert snap["in_flight"] == 0
        finally:
            service.close()

    def test_poisoned_window_quarantined_pool_not_stalled(self):
        """One window can never prove (bad commitment → guest abort
        every attempt).  It must be quarantined after max_attempts
        while the same pool keeps proving every other window."""
        store = MemoryLogStore()
        bulletin = BulletinBoard()
        populate(store, bulletin, windows=3)
        poison = [make_record(router_id="r3", sport=9)]
        store.append_records("r3", 1, poison)
        bulletin.publish(Commitment(
            "r3", 1, window_digest([b"poison"]), 1, 5_000))
        service = ProverService(store, bulletin, pool_backend="thread",
                                prove_workers=2)
        injector = FaultInjector(FaultPlan.parse(
            "engine.worker:proof:count=2", seed=SEED))
        inject_faults(service, injector)
        daemon = AggregationDaemon(
            service, SimClock(),
            DaemonPolicy(batch_limit=1, max_lag_ms=0, max_attempts=3,
                         retry_base_ms=50, retry_max_ms=200,
                         stall_after=50),
            seed=SEED)
        try:
            for _ in range(200):
                daemon.step()
                daemon.clock.advance_ms(300)
                if not daemon.pending_windows():
                    break
            assert set(daemon.quarantined) == {1}
            assert service.aggregated_windows == {0, 2}
            assert daemon.health()["state"] == "degraded"
            snap = service.status()["engine"]
            assert snap["in_flight"] == 0  # pool drained, not stalled
            assert snap["jobs_done"] > 0
            # The operator hook still works with an engine attached.
            assert daemon.requeue(1) is True
            assert 1 in daemon.pending_windows()
        finally:
            service.close()

    def test_engine_faults_use_domain_errors(self):
        """An injected engine.worker fault surfaces as the same
        ProofError a real worker death produces — so the daemon's
        classify/retry logic needs no special case."""
        from repro.errors import ProofError
        service = pooled_service(windows=1)
        injector = FaultInjector(FaultPlan.parse(
            "engine.worker:proof:count=1", seed=SEED))
        inject_faults(service, injector)
        try:
            with pytest.raises(ProofError):
                service.aggregate_window(0)
            # Next attempt rides the same pool and succeeds.
            result = service.aggregate_window(0)
            assert result.record_count == 4
            assert 0 in service.aggregated_windows
        finally:
            service.close()


class TestStreamFaults:
    """Worker faults and crashes under streaming composition.

    Streamed rounds keep their half-proven state in two places — the
    in-memory fold frontier and the receipt cache — and recovery leans
    on both: a transient fold fault retries with every already-proven
    delta replaying from the cache, and a full crash restores the
    persisted frontier without re-proving anything that folded.
    """

    def stream_service(self, windows=3):
        store = MemoryLogStore()
        bulletin = BulletinBoard()
        populate(store, bulletin, windows=windows)
        return ProverService(store, bulletin, pool_backend="thread",
                             prove_workers=2, stream=True)

    def reference_round(self, window_indices):
        store = MemoryLogStore()
        bulletin = BulletinBoard()
        populate(store, bulletin, windows=max(window_indices) + 1)
        service = ProverService(store, bulletin)
        return service.aggregate_windows(list(window_indices))

    def test_transient_fold_fault_retries_with_cached_deltas(self):
        """A worker dies under the carry fold fired by the second
        delta.  The ingest fails loudly; retrying it replays the delta
        from the receipt cache and re-proves only the faulted fold, and
        the closed round is bit-identical to a fault-free one."""
        from repro.errors import ProofError
        service = self.stream_service()
        try:
            assert service.ingest_window(0) == 1
            # start=2: the retried window's delta (fire 1) proves, the
            # carry fold it triggers (fire 2) dies.
            injector = FaultInjector(FaultPlan.parse(
                "engine.worker:proof:start=2,count=1", seed=SEED))
            inject_faults(service, injector)
            with pytest.raises(ProofError):
                service.ingest_window(1)
            # The failed ingest left the round exactly as it was: one
            # delta on the frontier, window 1 still pending.
            stream = service.stream_status()
            assert stream["pending_deltas"] == 1
            assert stream["ingested_windows"] == [0]
            assert 1 in service.pending_windows()
            # Retry absorbs the window; the two deltas fold into one
            # frontier node.
            assert service.ingest_window(1) == 2
            assert service.stream_status()["frontier_nodes"] == 1
            result = service.close_stream_round()
            info = service.last_prove_info
            # The retried delta replayed from the cache...
            assert not info.delta_results[0].cached
            assert info.delta_results[1].cached
            # ...and every fold (the re-proven carry + the final) was
            # proven fresh — the faulted job never produced a receipt.
            assert not any(r.cached for r in info.fold_results)
            assert injector.stats()["injected"]["engine.worker"] == 1
            snap = service.status()["engine"]
            assert snap["jobs_failed"] == 1
            assert snap["in_flight"] == 0
            reference = self.reference_round([0, 1])
            assert result.receipt.journal.data == \
                reference.receipt.journal.data
            assert service.state.root == reference.new_state.root
        finally:
            service.close()

    def test_faulted_close_keeps_frontier_and_retries(self):
        """A worker death under the *final* fold must not consume the
        frontier — closing again finishes the round."""
        from repro.errors import ProofError
        service = self.stream_service(windows=2)
        try:
            service.ingest_window(0)
            service.ingest_window(1)
            injector = FaultInjector(FaultPlan.parse(
                "engine.worker:proof:count=1", seed=SEED))
            inject_faults(service, injector)
            with pytest.raises(ProofError):
                service.close_stream_round()
            stream = service.stream_status()
            assert stream["open_round"] == 0
            assert stream["frontier_nodes"] == 1
            result = service.close_stream_round()
            assert service.aggregated_windows == {0, 1}
            reference = self.reference_round([0, 1])
            assert result.receipt.journal.data == \
                reference.receipt.journal.data
        finally:
            service.close()

    def test_crash_and_restore_resume_persisted_frontier(self):
        """A prover crashes mid-round with three deltas proven.  A
        fresh service restores the checkpointed frontier and closes the
        round by proving *only* the final fold — no delta re-proves."""
        store = MemoryLogStore()
        bulletin = BulletinBoard()
        populate(store, bulletin, windows=3)
        service = ProverService(store, bulletin, pool_backend="thread",
                                prove_workers=2, stream=True)
        try:
            for window in range(3):
                service.ingest_window(window)
            service.checkpoint()
        finally:
            service.close()  # crash: the in-memory frontier is gone

        revived = ProverService(store, bulletin, pool_backend="thread",
                                prove_workers=2, stream=True)
        try:
            assert revived.restore() is True
            stream = revived.stream_status()
            assert stream["open_round"] == 0
            assert stream["pending_deltas"] == 3
            assert stream["frontier_nodes"] == 2
            assert stream["ingested_windows"] == [0, 1, 2]
            # Ingested windows are still pending: no receipt covers
            # them until the restored round closes.
            assert revived.pending_windows() == [0, 1, 2]
            result = revived.close_stream_round()
            # The only engine job after the crash is the final fold —
            # the three deltas and the carry fold rode the checkpoint.
            snap = revived.status()["engine"]
            assert snap["jobs_done"] == 1
            assert snap["jobs_failed"] == 0
            info = revived.last_prove_info
            assert info.delta_results == ()
            assert len(info.fold_results) == 1
            assert revived.aggregated_windows == {0, 1, 2}
            reference = self.reference_round([0, 1, 2])
            assert result.receipt.journal.data == \
                reference.receipt.journal.data
            assert revived.state.root == reference.new_state.root
        finally:
            revived.close()


class TestQueryPartitionFaults:
    """A transient worker fault under a *query* partition job.

    Partitioned queries ride the same pool, cache, and fault sites as
    aggregation rounds, so the recovery story must match: the faulted
    attempt fails loudly with the domain error, and the retry
    completes the round — replaying the already-proven partitions from
    the content-addressed cache and re-proving only the one that died.
    """

    def test_transient_partition_fault_then_retry_completes(self):
        from repro.errors import ProofError
        sql = "SELECT COUNT(*), SUM(octets) FROM clogs"
        store, bulletin, _ = make_committed_records(200, seed=5)
        reference_store, reference_bulletin, _ = \
            make_committed_records(200, seed=5)
        reference = ProverService(reference_store, reference_bulletin)
        reference.aggregate_window(0)
        expected = reference.answer_query(sql)

        service = ProverService(store, bulletin, pool_backend="thread",
                                prove_workers=2, query_partitions=4)
        try:
            service.aggregate_window(0)
            injector = FaultInjector(FaultPlan.parse(
                "engine.worker:proof:count=1", seed=SEED))
            inject_faults(service, injector)
            with pytest.raises(ProofError):
                service.answer_query(sql)
            # The failed attempt must not have poisoned the cache.
            response = service.answer_query(sql)
            assert response.receipt.journal.data == \
                expected.receipt.journal.data
            info = service.last_prove_info
            assert info.num_partitions > 1
            # Partitions proven before the fault replay from the cache
            # on the retry; only the faulted job is proven fresh.
            assert any(r.cached for r in info.partition_infos)
            snap = service.status()["engine"]
            assert snap["in_flight"] == 0
            assert snap["jobs_failed"] == 1
        finally:
            service.close()


class TestQServeBatchFaults:
    """Worker faults and crashes under *batched* query serving.

    A batch shares its partition scans across member queries, so the
    failure domain is new: one faulted merge must not take down the
    queries that already proved, and a retry must replay the shared
    partitions from the content-addressed receipt cache rather than
    re-scanning.  Crash/restore adds the staleness question — a chain
    that diverged after restore must never be answered from the
    persistent result cache.
    """

    SQLS = [
        "SELECT COUNT(*) FROM clogs",
        "SELECT SUM(octets), MIN(packets) FROM clogs",
        "SELECT AVG(rtt_avg_us) FROM clogs WHERE packets > 50",
    ]

    def _submit_all(self, qserve, sqls):
        import asyncio

        async def scenario():
            await qserve.start()
            try:
                return await asyncio.gather(
                    *(qserve.submit(sql) for sql in sqls),
                    return_exceptions=True)
            finally:
                await qserve.stop()

        return asyncio.run(scenario())

    def test_batch_merge_fault_survivors_answer_faulted_retries(self):
        """A transient engine.worker fault kills the first merge of a
        3-query batch.  The other two queries still answer from the
        same fan-out, and the faulted one retries with every shared
        partition replaying from the receipt cache — every journal
        ends up byte-identical to a fault-free serial run."""
        from repro.core.planner import partition_layout
        from repro.qserve import QueryService

        store, bulletin, _ = make_committed_records(60, seed=13)
        reference_store, reference_bulletin, _ = \
            make_committed_records(60, seed=13)
        reference = ProverService(reference_store, reference_bulletin)
        reference.aggregate_all_committed()
        expected = {sql: reference.answer_query(sql) for sql in
                    self.SQLS}

        service = ProverService(store, bulletin, pool_backend="thread",
                                prove_workers=2)
        try:
            service.aggregate_all_committed()
            num_partitions = partition_layout(len(service.state), 4)[1]
            # The fan-out submits the partition jobs first, then one
            # merge per query: fire start=P+1 hits the first merge.
            injector = FaultInjector(FaultPlan.parse(
                f"engine.worker:proof:start={num_partitions + 1},"
                "count=1", seed=SEED))
            inject_faults(service, injector)
            qserve = QueryService(service, batch_window=0.2)
            responses = self._submit_all(qserve, self.SQLS)
            for sql, response in zip(self.SQLS, responses):
                assert not isinstance(response, BaseException), response
                assert response.receipt.journal.data == \
                    expected[sql].receipt.journal.data
            assert injector.stats()["injected"]["engine.worker"] == 1
            snap = service.status()["engine"]
            assert snap["jobs_failed"] == 1
            assert snap["in_flight"] == 0
        finally:
            service.close()

    def test_crash_restore_diverged_chain_never_serves_stale(self):
        """Kill the service mid-batch, then restore onto a chain that
        aggregated *different* windows to the same round index.  The
        killed query fails typed (never hangs), and nothing proven
        before the crash is served for the diverged root — the
        persistent result cache is root-keyed."""
        import asyncio

        from repro.errors import NetworkError
        from repro.qserve import QueryService

        store = MemoryLogStore()
        bulletin = BulletinBoard()
        populate(store, bulletin, windows=2, rows_per_window=3)
        sql = self.SQLS[0]

        service_a = ProverService(store, bulletin,
                                  pool_backend="thread",
                                  prove_workers=2)
        try:
            service_a.aggregate_window(0)
            stale_root = service_a.state.root
            # The huge batch window guarantees the victim is still
            # queued when the service dies (and, since stop() cuts the
            # linger short, costs the test nothing).
            qserve_a = QueryService(service_a, batch_window=30.0)
            # One answer lands in the persistent tier before the
            # long-window service starts: the service path shares the
            # cache QueryService just promoted to persistent.
            stale = service_a.answer_query(sql)

            async def crash_mid_batch():
                await qserve_a.start()
                victim = asyncio.ensure_future(
                    qserve_a.submit(self.SQLS[1]))
                await asyncio.sleep(0.05)
                await qserve_a.stop()
                return await asyncio.gather(victim,
                                            return_exceptions=True)

            (victim_outcome,) = asyncio.run(crash_mid_batch())
            assert stale.root == stale_root
            assert isinstance(victim_outcome, NetworkError)
        finally:
            service_a.close()

        # Restore: same store, same round index, different windows —
        # a diverged chain with a different committed root.
        service_b = ProverService(store, bulletin,
                                  pool_backend="thread",
                                  prove_workers=2)
        try:
            service_b.aggregate_window(1)
            assert service_b.state.root != stale_root
            qserve_b = QueryService(service_b, batch_window=0.05)
            # With the persistent tier attached, the stale answer is
            # still invisible to the diverged chain (root-keyed)...
            assert service_b.query_cache.get(
                sql, 0, service_b.state.root) is None
            # ...while the stale root would still find it.
            assert service_b.query_cache.get(sql, 0,
                                             stale_root) is not None
            responses = self._submit_all(qserve_b,
                                         [sql, self.SQLS[1]])
            for response in responses:
                assert not isinstance(response, BaseException), response
                assert response.root == service_b.state.root
            assert responses[0].receipt.journal.data != \
                stale.receipt.journal.data
            # The killed query left no half-proven cache entry behind.
            assert service_b.query_cache.stats()["persistent"] is True
        finally:
            service_b.close()
