"""Chaos test: a seeded fault plan against the full supervised stack.

The acceptance scenario for the fault-tolerance PR: run the supervised
daemon against a deterministic :class:`~repro.faults.FaultPlan` where
the store fails every third read and the bulletin and prover throw
transient faults, and require that

* the daemon thread (or step loop) never dies,
* permanently poisoned windows are quarantined — and only those, and
* every non-quarantined window converges to exactly the same final
  state root as a clean, fault-free run over the same data.

The seed comes from ``REPRO_FAULT_SEED`` so CI can sweep seeds (the
chaos job runs 0 and 1); any seed must satisfy the same invariants.
"""

import os
import threading

import pytest

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.daemon import AggregationDaemon, DaemonPolicy
from repro.core.prover_service import ProverService
from repro.faults import FaultInjector, FaultPlan, inject_faults
from repro.netflow.clock import SimClock
from repro.storage import MemoryLogStore

from ..conftest import make_record

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

CHAOS_PLAN = (
    "store.window_blobs:storage:start=3,every=3;"
    "bulletin.get:timeout:count=2;"
    "prover.prove:proof:start=2,every=4,count=3"
)


def populate(store, bulletin, windows=4, rows_per_window=3):
    """Commit ``windows`` windows across two routers."""
    for window in range(windows):
        for router in ("r1", "r2"):
            records = [
                make_record(router_id=router,
                            sport=1000 + window * 100 + i)
                for i in range(rows_per_window)]
            store.append_records(router, window, records)
            bulletin.publish(Commitment(
                router, window,
                window_digest([r.to_bytes() for r in records]),
                len(records), window * 5_000))


def clean_run_roots(windows=4, rows_per_window=3):
    """Final root of a fault-free run, one window per round."""
    store = MemoryLogStore()
    bulletin = BulletinBoard()
    populate(store, bulletin, windows=windows,
             rows_per_window=rows_per_window)
    service = ProverService(store, bulletin)
    for window in range(windows):
        service.aggregate_window(window)
    return service.state.root


@pytest.fixture
def chaos():
    store = MemoryLogStore()
    bulletin = BulletinBoard()
    populate(store, bulletin)
    service = ProverService(store, bulletin)
    injector = FaultInjector(FaultPlan.parse(CHAOS_PLAN, seed=SEED))
    inject_faults(service, injector)
    daemon = AggregationDaemon(
        service, SimClock(),
        DaemonPolicy(batch_limit=1, max_lag_ms=0, max_attempts=10,
                     retry_base_ms=100, retry_max_ms=500,
                     retry_jitter=0.2, stall_after=50),
        seed=SEED)
    return service, daemon, injector


class TestChaosConvergence:
    def test_supervised_run_converges_to_clean_root(self, chaos):
        service, daemon, injector = chaos
        for _ in range(200):
            daemon.step()
            daemon.clock.advance_ms(600)
            if not daemon.pending_windows() and not daemon.quarantined:
                break
        # Every fault in the plan is transient on the daemon's
        # schedule (every-3rd store faults are absorbed by retries
        # with attempts to spare), so nothing may be quarantined...
        assert daemon.quarantined == {}
        assert service.aggregated_windows == {0, 1, 2, 3}
        # ...and the surviving chain is bit-identical to a run that
        # never saw a fault.
        assert service.state.root == clean_run_roots()
        # The plan actually exercised the stack.
        assert sum(injector.stats()["injected"].values()) > 0
        assert daemon.stats.faults > 0

    def test_poisoned_window_quarantined_others_converge(self):
        store = MemoryLogStore()
        bulletin = BulletinBoard()
        populate(store, bulletin, windows=3)
        # Window 1 is poisoned beyond retry: its commitment can never
        # match the stored bytes, so the guest aborts every attempt.
        records = [make_record(router_id="r3", sport=9)]
        store.append_records("r3", 1, records)
        bulletin.publish(Commitment(
            "r3", 1, window_digest([b"poison"]), 1, 5_000))
        service = ProverService(store, bulletin)
        injector = FaultInjector(
            FaultPlan.parse("store.window_blobs:storage:every=5",
                            seed=SEED))
        inject_faults(service, injector)
        daemon = AggregationDaemon(
            service, SimClock(),
            DaemonPolicy(batch_limit=1, max_lag_ms=0, max_attempts=3,
                         retry_base_ms=50, retry_max_ms=200,
                         stall_after=50),
            seed=SEED)
        for _ in range(200):
            daemon.step()
            daemon.clock.advance_ms(300)
            if not daemon.pending_windows():
                break
        assert set(daemon.quarantined) == {1}
        assert service.aggregated_windows == {0, 2}
        assert daemon.health()["state"] == "degraded"
        # The operator hook pulls the window back into rotation (the
        # bulletin is append-only, so the bad commitment itself cannot
        # be withdrawn — requeue is for when the *store* was at fault).
        assert service.requeue(1) is True
        assert 1 in daemon.pending_windows()


class TestChaosThreaded:
    def test_thread_survives_the_full_plan(self):
        store = MemoryLogStore()
        bulletin = BulletinBoard()
        populate(store, bulletin, windows=3, rows_per_window=2)
        service = ProverService(store, bulletin)
        injector = FaultInjector(FaultPlan.parse(CHAOS_PLAN, seed=SEED))
        inject_faults(service, injector)
        clock = SimClock()
        daemon = AggregationDaemon(
            service, clock,
            DaemonPolicy(batch_limit=1, max_lag_ms=0, max_attempts=10,
                         retry_base_ms=100, retry_max_ms=500,
                         stall_after=50),
            seed=SEED)
        stop = threading.Event()
        thread = daemon.run_threaded(stop, poll_ms=700)
        try:
            import time
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if not daemon.pending_windows() \
                        and not daemon.quarantined:
                    break
                assert thread.is_alive()
                time.sleep(0.01)
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert service.aggregated_windows == {0, 1, 2}
        assert service.state.root == clean_run_roots(
            windows=3, rows_per_window=2)


class TestChaosWithRecovery:
    def test_crash_mid_chaos_restores_and_finishes(self):
        """Checkpointing composes with chaos: crash after two windows,
        restore on a fresh service, and still converge."""
        store = MemoryLogStore()
        bulletin = BulletinBoard()
        populate(store, bulletin)
        service = ProverService(store, bulletin, auto_checkpoint=True)
        injector = FaultInjector(
            FaultPlan.parse("store.window_blobs:storage:every=4",
                            seed=SEED))
        inject_faults(service, injector)
        daemon = AggregationDaemon(
            service, SimClock(),
            DaemonPolicy(batch_limit=1, max_lag_ms=0, max_attempts=10,
                         retry_base_ms=50, retry_max_ms=200,
                         stall_after=50),
            seed=SEED)
        while len(service.aggregated_windows) < 2:
            daemon.step()
            daemon.clock.advance_ms(300)
        # "Crash" — all in-memory prover state is lost.
        del service, daemon
        recovered = ProverService(store, bulletin,
                                  auto_checkpoint=True)
        assert recovered.restore() is True
        assert recovered.aggregated_windows == {0, 1}
        recovered.aggregate_all_committed()
        assert recovered.aggregated_windows == {0, 1, 2, 3}
        assert recovered.state.root == clean_run_roots()
