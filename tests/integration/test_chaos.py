"""Chaos test: a seeded fault plan against the service's round driver.

The acceptance scenario for fault tolerance: drive
``ProverService.aggregate_all_committed`` against a deterministic
:class:`~repro.faults.FaultPlan` where the store fails every third read
and the bulletin and prover throw transient faults, retrying on every
:class:`~repro.errors.ReproError`, and require that

* permanently poisoned windows are quarantined — and only those, and
* every non-quarantined window converges to exactly the same final
  state root as a clean, fault-free run over the same data.

Retrying is sound because a failed round commits nothing.  The seed
comes from ``REPRO_FAULT_SEED`` so CI can sweep seeds (the chaos job
runs 0 and 1); any seed must satisfy the same invariants.
"""

import os

import pytest

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.prover_service import ProverService
from repro.errors import GuestAbort, ReproError
from repro.faults import FaultInjector, FaultPlan, inject_faults
from repro.storage import MemoryLogStore

from ..conftest import drain_with_retries, make_record

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
    return service, injector


class TestChaosConvergence:
    def test_supervised_run_converges_to_clean_root(self, chaos):
        service, injector = chaos
        failures = drain_with_retries(service)
        # Every fault in the plan is transient (a retried round reads
        # past it), so nothing may be quarantined...
        assert service.quarantined == {}
        assert service.pending_windows() == []
        assert service.aggregated_windows == {0, 1, 2, 3}
        # ...and the surviving chain is bit-identical to a run that
        # never saw a fault.
        assert service.state.root == clean_run_roots()
        # The plan actually exercised the stack.
        assert sum(injector.stats()["injected"].values()) > 0
        assert failures > 0

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
        failures = drain_with_retries(service)
        assert set(service.quarantined) == {1}
        assert "GuestAbort" in service.quarantined[1]
        assert service.aggregated_windows == {0, 2}
        assert service.pending_windows() == []
        assert failures > 0
        assert injector.stats()["injected"]["store.window_blobs"] > 0
        # The operator's retry is an explicit round over the window.
        # Here the bad commitment itself is the fault (the bulletin is
        # append-only), so the retry aborts in the guest once it reads
        # past the store's injected faults, and commits nothing.
        rounds = len(service.chain)
        for _ in range(10):
            try:
                service.aggregate_window(1)
            except GuestAbort:
                break
            except ReproError:
                continue
        else:
            raise AssertionError("the retry never reached the guest")
        assert set(service.quarantined) == {1}
        assert len(service.chain) == rounds


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
        for _ in range(20):
            if len(service.aggregated_windows) == 2:
                break
            try:
                service.aggregate_window(service.pending_windows()[0])
            except ReproError:
                continue
        assert service.aggregated_windows == {0, 1}
        assert injector.stats()["injected"]["store.window_blobs"] > 0
        # "Crash" — all in-memory prover state is lost.
        del service
        recovered = ProverService(store, bulletin,
                                  auto_checkpoint=True)
        assert recovered.restore() is True
        assert recovered.aggregated_windows == {0, 1}
        recovered.aggregate_all_committed()
        assert recovered.aggregated_windows == {0, 1, 2, 3}
        assert recovered.state.root == clean_run_roots()
