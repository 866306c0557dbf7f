"""Unit tests for the supervised daemon: retry, quarantine, health."""

import threading

import pytest

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.daemon import AggregationDaemon, DaemonPolicy
from repro.core.prover_service import ProverService
from repro.errors import ConfigurationError, StorageError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    inject_faults,
)
from repro.netflow.clock import SimClock
from repro.storage import MemoryLogStore

from ..conftest import make_record


def commit(store, bulletin, window, n=2):
    records = [make_record(sport=1000 + window * 10 + i)
               for i in range(n)]
    store.append_records("r1", window, records)
    bulletin.publish(Commitment(
        "r1", window, window_digest([r.to_bytes() for r in records]),
        n, window * 5_000))


@pytest.fixture
def setup():
    store = MemoryLogStore()
    bulletin = BulletinBoard()
    service = ProverService(store, bulletin)
    clock = SimClock()
    return store, bulletin, service, clock


def make_daemon(service, clock, **policy_overrides):
    defaults = dict(batch_limit=2, max_lag_ms=0, max_attempts=3,
                    retry_base_ms=100, retry_max_ms=1_000,
                    retry_jitter=0.0, commitment_deadline_ms=5_000,
                    stall_after=3)
    defaults.update(policy_overrides)
    return AggregationDaemon(service, clock,
                             DaemonPolicy(**defaults))


class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"retry_base_ms": -1},
        {"retry_multiplier": 0.5},
        {"retry_jitter": 1.5},
        {"commitment_deadline_ms": -1},
        {"stall_after": 0},
        {"results_kept": 0},
    ])
    def test_supervision_knobs_validated(self, kwargs):
        with pytest.raises(ConfigurationError):
            DaemonPolicy(**kwargs)


class TestRetryBackoff:
    def test_transient_fault_retried_after_backoff(self, setup):
        store, bulletin, service, clock = setup
        daemon = make_daemon(service, clock)
        injector = FaultInjector(FaultPlan.parse(
            "store.window_blobs:storage:count=1"))
        inject_faults(service, injector)
        commit(store, bulletin, 0)
        assert daemon.step() is None  # fault absorbed, not raised
        assert daemon.stats.faults == 1
        assert daemon.stats.retries == 1
        assert daemon.health()["state"] == "degraded"
        # Window is deferred: not due until the backoff elapses.
        assert daemon.due_windows() == []
        assert daemon.step() is None
        clock.advance_ms(100)
        result = daemon.step()
        assert result is not None
        assert daemon.health()["state"] == "healthy"

    def test_backoff_grows_exponentially(self, setup):
        store, bulletin, service, clock = setup
        daemon = make_daemon(service, clock, max_attempts=5)
        injector = FaultInjector(FaultPlan.parse(
            "store.window_blobs:storage:count=3"))
        inject_faults(service, injector)
        commit(store, bulletin, 0)
        delays = []
        for _ in range(3):
            daemon.step()
            delay = daemon._retry_at_ms[0] - clock.now_ms()
            delays.append(delay)
            clock.advance_ms(delay)
        assert delays == [100, 200, 400]  # base * 2^(attempt-1)

    def test_jitter_is_seeded(self, setup):
        store, bulletin, service, clock = setup

        def delay_with(seed):
            st = MemoryLogStore()
            bb = BulletinBoard()
            svc = ProverService(st, bb)
            daemon = AggregationDaemon(
                svc, SimClock(),
                DaemonPolicy(max_lag_ms=0, retry_base_ms=1_000,
                             retry_jitter=0.5), seed=seed)
            injector = FaultInjector(FaultPlan.parse(
                "store.window_blobs:storage:count=1"))
            inject_faults(svc, injector)
            commit(st, bb, 0)
            daemon.step()
            return daemon._retry_at_ms[0]

        assert delay_with(1) == delay_with(1)
        assert delay_with(1) != delay_with(2)


class TestQuarantine:
    def test_permanent_fault_quarantined_after_max_attempts(self,
                                                            setup):
        store, bulletin, service, clock = setup
        daemon = make_daemon(service, clock)  # max_attempts=3
        injector = FaultInjector(FaultPlan.parse(
            "store.window_blobs:storage"))  # permanent
        inject_faults(service, injector)
        commit(store, bulletin, 0)
        for _ in range(3):
            daemon.step()
            clock.advance_ms(2_000)
        assert daemon.quarantined.keys() == {0}
        assert "StorageError" in daemon.quarantined[0]
        assert daemon.pending_windows() == []
        assert daemon.step() is None  # nothing left to try

    def test_quarantine_isolates_not_stalls(self, setup):
        """A permanently failing window dead-letters while other
        windows keep aggregating — degrade, don't stall."""
        store, bulletin, service, clock = setup
        daemon = make_daemon(service, clock, batch_limit=1)
        # Window 0 poisoned at the guest: its commitment does not
        # match the stored blobs.
        records = [make_record(sport=1)]
        store.append_records("r1", 0, records)
        bulletin.publish(Commitment(
            "r1", 0, window_digest([b"not the real bytes"]), 1, 0))
        commit(store, bulletin, 1)
        for _ in range(10):
            daemon.step()
            clock.advance_ms(2_000)
        assert 0 in daemon.quarantined
        assert "GuestAbort" in daemon.quarantined[0]
        assert 1 in service.aggregated_windows
        assert daemon.health()["state"] == "degraded"

    def test_requeue_gives_window_another_chance(self, setup):
        store, bulletin, service, clock = setup
        daemon = make_daemon(service, clock)
        injector = FaultInjector(FaultPlan.parse(
            "store.window_blobs:storage:count=3"))
        inject_faults(service, injector)
        commit(store, bulletin, 0)
        for _ in range(3):
            daemon.step()
            clock.advance_ms(2_000)
        assert 0 in daemon.quarantined
        assert service.requeue(0) is True
        assert service.requeue(0) is False
        clock.advance_ms(2_000)
        assert daemon.step() is not None  # injector exhausted its 3

    def test_batch_failure_isolates_windows(self, setup):
        """A failing batched round falls back to per-window proving so
        the poisoned window is attributed, not the whole batch."""
        store, bulletin, service, clock = setup
        daemon = make_daemon(service, clock, batch_limit=2,
                             max_attempts=2)
        records = [make_record(sport=1)]
        store.append_records("r1", 0, records)
        bulletin.publish(Commitment(
            "r1", 0, window_digest([b"tampered"]), 1, 0))
        commit(store, bulletin, 1)
        for _ in range(8):
            daemon.step()
            clock.advance_ms(2_000)
        assert 0 in daemon.quarantined
        assert 1 in service.aggregated_windows


class TestLateCommitments:
    def test_window_waits_for_late_router_before_deadline(self, setup):
        store, bulletin, service, clock = setup
        daemon = make_daemon(service, clock)
        # r1 stored data but has not committed yet.
        store.append_records("r1", 0, [make_record(sport=1)])
        # r2 committed its share.
        records = [make_record(router_id="r2", sport=2)]
        store.append_records("r2", 0, records)
        bulletin.publish(Commitment(
            "r2", 0, window_digest([r.to_bytes() for r in records]),
            1, 0))
        assert daemon.step() is None  # waiting, no attempt burned
        assert daemon.stats.faults == 0
        assert 0 not in daemon.quarantined

    def test_late_router_skipped_past_deadline(self, setup):
        store, bulletin, service, clock = setup
        daemon = make_daemon(service, clock,
                             commitment_deadline_ms=5_000)
        store.append_records("r1", 0, [make_record(sport=1)])
        records = [make_record(router_id="r2", sport=2)]
        store.append_records("r2", 0, records)
        bulletin.publish(Commitment(
            "r2", 0, window_digest([r.to_bytes() for r in records]),
            1, 0))
        daemon.step()  # records first_seen
        clock.advance_ms(5_000)
        result = daemon.step()
        assert result is not None  # proved with r2 only
        routers = {w["r"] for w in result.journal_header["windows"]}
        assert routers == {"r2"}

    def test_window_with_no_commitments_eventually_quarantined(
            self, setup):
        store, bulletin, service, clock = setup
        daemon = make_daemon(service, clock,
                             commitment_deadline_ms=1_000,
                             max_attempts=2)
        store.append_records("r1", 0, [make_record(sport=1)])
        # Make the window *pending* via another window's commitment?
        # No — pending comes from the bulletin, so an entirely
        # uncommitted window never enters the queue at all.
        assert daemon.pending_windows() == []
        assert daemon.step() is None


class TestHealth:
    def test_healthy_initially_and_after_success(self, setup):
        store, bulletin, service, clock = setup
        daemon = make_daemon(service, clock)
        assert daemon.health()["state"] == "healthy"
        commit(store, bulletin, 0)
        daemon.step()
        health = daemon.health()
        assert health["state"] == "healthy"
        assert health["stats"]["rounds"] == 1

    def test_stalled_after_consecutive_failures(self, setup):
        store, bulletin, service, clock = setup
        daemon = make_daemon(service, clock, stall_after=3,
                             max_attempts=100)
        injector = FaultInjector(FaultPlan.parse(
            "store.window_blobs:storage"))
        inject_faults(service, injector)
        commit(store, bulletin, 0)
        for _ in range(3):
            daemon.step()
            clock.advance_ms(2_000)
        assert daemon.health()["state"] == "stalled"

    def test_health_metrics_emitted(self, setup):
        from repro.obs import runtime as obs
        store, bulletin, service, clock = setup
        daemon = make_daemon(service, clock)
        injector = FaultInjector(FaultPlan.parse(
            "store.window_blobs:storage:count=1"))
        inject_faults(service, injector)
        commit(store, bulletin, 0)
        with obs.capture() as cap:
            daemon.step()
            clock.advance_ms(2_000)
            daemon.step()
            faults_series = cap.registry.get(
                "repro_daemon_faults_total")
            assert faults_series.value(error="StorageError") == 1
            steps = cap.registry.get("repro_daemon_steps_total")
            assert steps.value(outcome="faulted") == 1
            assert steps.value(outcome="round") == 1
            assert cap.registry.get("repro_daemon_health").value() == 0


class TestStatusPendingWindows:
    """Regression: ``ProverService.status()`` must surface the backlog.

    Health tooling watches status() to tell a prover that is catching
    up from one that stalled; before ``pending_windows`` was added,
    committed-but-unproven windows were invisible there — both cases
    reported the same body.
    """

    def test_status_lists_committed_but_unproven_windows(self, setup):
        store, bulletin, service, clock = setup
        assert service.status()["pending_windows"] == []
        commit(store, bulletin, 0)
        commit(store, bulletin, 1)
        commit(store, bulletin, 2)
        assert service.status()["pending_windows"] == [0, 1, 2]
        service.aggregate_window(1)
        status = service.status()
        assert status["pending_windows"] == [0, 2]
        assert status["aggregated_windows"] == [1]
        service.aggregate_windows([0, 2])
        assert service.status()["pending_windows"] == []


class TestBoundedStats:
    def test_results_keep_last_k(self, setup):
        store, bulletin, service, clock = setup
        daemon = make_daemon(service, clock, batch_limit=1,
                             results_kept=2)
        for window in range(4):
            commit(store, bulletin, window)
        while daemon.step() is not None:
            pass
        assert daemon.stats.rounds == 4
        assert len(daemon.stats.results) == 2  # only the tail kept
        assert daemon.stats.results[-1].round == 3


class TestThreadSurvival:
    def test_thread_survives_handled_and_unhandled_faults(self, setup):
        store, bulletin, service, clock = setup
        daemon = make_daemon(service, clock)

        class Bomb:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def aggregate(self, state, inputs, prev_receipt):
                self.calls += 1
                if self.calls == 1:
                    raise StorageError("handled fault")
                if self.calls == 2:
                    raise RuntimeError("unhandled bug")
                return self.inner.aggregate(state, inputs,
                                            prev_receipt)

        bomb = Bomb(service._aggregator)
        service._aggregator = bomb
        commit(store, bulletin, 0)
        stop = threading.Event()
        thread = daemon.run_threaded(stop, poll_ms=10)
        try:
            import time
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if daemon.stats.rounds:
                    break
                assert thread.is_alive()
                time.sleep(0.01)
        finally:
            stop.set()
            thread.join(timeout=30)
        assert daemon.stats.rounds == 1
        assert daemon.stats.crashes == 1   # the RuntimeError, survived
        assert daemon.stats.faults >= 1    # the StorageError, handled
        assert 0 in service.aggregated_windows
