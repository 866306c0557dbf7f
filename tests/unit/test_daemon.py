"""Unit tests for the background aggregation daemon."""

import threading

import pytest

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.daemon import AggregationDaemon, DaemonPolicy
from repro.core.prover_service import ProverService
from repro.errors import ConfigurationError
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


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DaemonPolicy(batch_limit=0)
        with pytest.raises(ConfigurationError):
            DaemonPolicy(max_lag_ms=-1)

    def test_no_pending_no_run(self, setup):
        _store, _bulletin, service, clock = setup
        daemon = AggregationDaemon(service, clock)
        assert not daemon.should_run()
        assert daemon.step() is None

    def test_batch_limit_triggers(self, setup):
        store, bulletin, service, clock = setup
        daemon = AggregationDaemon(
            service, clock, DaemonPolicy(batch_limit=2,
                                         max_lag_ms=60_000))
        commit(store, bulletin, 0)
        assert not daemon.should_run()  # 1 < batch_limit, no lag yet
        commit(store, bulletin, 1)
        assert daemon.should_run()
        result = daemon.step()
        assert result is not None
        windows = {w["w"] for w in result.journal_header["windows"]}
        assert windows == {0, 1}

    def test_lag_triggers_single_window(self, setup):
        store, bulletin, service, clock = setup
        daemon = AggregationDaemon(
            service, clock, DaemonPolicy(batch_limit=10,
                                         max_lag_ms=5_000))
        commit(store, bulletin, 0)
        assert not daemon.should_run()
        clock.advance_ms(4_999)
        assert not daemon.should_run()
        clock.advance_ms(1)
        assert daemon.should_run()
        assert daemon.step() is not None

    def test_batch_limit_caps_round_size(self, setup):
        store, bulletin, service, clock = setup
        daemon = AggregationDaemon(
            service, clock, DaemonPolicy(batch_limit=2))
        for window in range(5):
            commit(store, bulletin, window)
        daemon.step()
        assert daemon.stats.windows_consumed == 2
        assert sorted(daemon.pending_windows()) == [2, 3, 4]


class TestDrain:
    """The strict drain is the service's ``aggregate_all_committed``:
    one round per window, regardless of the daemon's batching."""

    def test_drain_consumes_everything(self, setup):
        store, bulletin, service, clock = setup
        daemon = AggregationDaemon(
            service, clock, DaemonPolicy(batch_limit=2))
        for window in range(5):
            commit(store, bulletin, window)
        rounds = service.aggregate_all_committed()
        assert [r.windows for r in rounds] == [{w} for w in range(5)]
        assert daemon.pending_windows() == []
        assert len(service.chain) == 5

    def test_drain_idempotent(self, setup):
        store, bulletin, service, clock = setup
        commit(store, bulletin, 0)
        assert len(service.aggregate_all_committed()) == 1
        assert service.aggregate_all_committed() == []


class TestStats:
    def test_records_counted(self, setup):
        store, bulletin, service, clock = setup
        daemon = AggregationDaemon(service, clock,
                                   DaemonPolicy(max_lag_ms=0))
        commit(store, bulletin, 0, n=3)
        commit(store, bulletin, 1, n=2)
        while daemon.step() is not None:
            pass
        assert daemon.stats.records_aggregated == 5
        assert len(daemon.stats.results) == daemon.stats.rounds


class TestThreaded:
    def test_threaded_daemon_with_simulator(self):
        """Daemon thread aggregating while a simulator generates —
        the full background-aggregation deployment."""
        from repro.netflow import (NetFlowSimulator, SimulatorConfig,
                                   WallClock)
        store = MemoryLogStore()
        bulletin = BulletinBoard()
        clock = WallClock()
        simulator = NetFlowSimulator(
            store, bulletin, clock,
            SimulatorConfig(flows_per_tick=4, tick_ms=20,
                            commit_interval_ms=80))
        service = ProverService(store, bulletin)
        daemon = AggregationDaemon(
            service, clock, DaemonPolicy(batch_limit=2,
                                         max_lag_ms=50))
        stop = threading.Event()
        thread = daemon.run_threaded(stop, poll_ms=20)
        try:
            simulator.run_threaded(duration_ms=400)
        finally:
            stop.set()
            thread.join(timeout=30)
        service.aggregate_all_committed()
        assert len(service.chain) >= 1
        from repro.core.verifier_client import VerifierClient
        VerifierClient(bulletin).verify_chain(service.chain.receipts())
