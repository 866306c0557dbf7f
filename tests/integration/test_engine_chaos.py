"""Chaos tests for the proving engine under the service's round driver.

The ``engine.worker`` fault site models a prover worker dying at job
dispatch — the host-side moment a crash surfaces on any backend.  Two
invariants must hold when it fires:

* transient worker faults are absorbed by retrying the round (a failed
  round commits nothing) and the surviving chain is bit-identical to a
  fault-free run, and
* a permanently poisoned window is quarantined on its first guest
  abort without stalling the pool — every other window still proves
  through the same engine.
"""

import os

import pytest

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.prover_service import ProverService
from repro.errors import GuestAbort
from repro.faults import FaultInjector, FaultPlan, inject_faults
from repro.storage import MemoryLogStore

from ..conftest import drain_with_retries, make_committed_records, \
    make_record

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
        """Worker deaths on a retry-friendly schedule: retried rounds
        converge to the clean root and nothing is quarantined."""
        service = pooled_service()
        injector = FaultInjector(FaultPlan.parse(
            "engine.worker:proof:start=2,every=3,count=3", seed=SEED))
        inject_faults(service, injector)
        try:
            failures = drain_with_retries(service)
            assert failures > 0
            assert service.quarantined == {}
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
        every attempt).  It must be quarantined on its first abort
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
        try:
            drain_with_retries(service)
            assert set(service.quarantined) == {1}
            assert "GuestAbort" in service.quarantined[1]
            assert service.aggregated_windows == {0, 2}
            assert service.pending_windows() == []
            assert injector.stats()["injected"]["engine.worker"] == 2
            snap = service.status()["engine"]
            assert snap["in_flight"] == 0  # pool drained, not stalled
            assert snap["jobs_done"] > 0
            # The operator's retry, an explicit round over the window,
            # reaches the guest through the engine and aborts again.
            rounds = len(service.chain)
            with pytest.raises(GuestAbort):
                service.aggregate_window(1)
            assert set(service.quarantined) == {1}
            assert len(service.chain) == rounds
        finally:
            service.close()

    def test_engine_faults_use_domain_errors(self):
        """An injected engine.worker fault surfaces as the same
        ProofError a real worker death produces — so a caller's
        retry logic needs no special case."""
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
