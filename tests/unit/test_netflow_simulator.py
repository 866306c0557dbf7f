"""Unit tests for the multi-router simulator."""

import pytest

from repro.commitments import BulletinBoard, window_digest
from repro.errors import SimulationError, StorageError
from repro.netflow import (
    NetFlowSimulator,
    SimClock,
    SimulatorConfig,
    WallClock,
)
from repro.netflow.topology import NetworkTopology
from repro.storage import MemoryLogStore


def make_simulator(**config_overrides):
    config_overrides.setdefault("flows_per_tick", 5)
    config = SimulatorConfig(**config_overrides)
    store = MemoryLogStore()
    bulletin = BulletinBoard()
    clock = SimClock()
    return NetFlowSimulator(store, bulletin, clock, config)


class TestPump:
    def test_generates_and_stores(self):
        sim = make_simulator()
        sim.pump(ticks=3)
        sim.flush()
        assert sim.records_generated > 0
        assert sim.store.router_ids() == ["r1", "r2", "r3", "r4"]

    def test_commit_every_window(self):
        sim = make_simulator(commit_interval_ms=2_000, tick_ms=1_000)
        sim.pump(ticks=6)
        sim.flush()
        for router_id in sim.store.router_ids():
            for window in sim.store.window_indices(router_id):
                commitment = sim.bulletin.get(router_id, window)
                blobs = sim.store.window_blobs(router_id, window)
                assert commitment.digest == window_digest(blobs)
                assert commitment.record_count == len(blobs)

    def test_window_indices_match_interval(self):
        sim = make_simulator(commit_interval_ms=5_000, tick_ms=1_000)
        sim.pump(ticks=12)
        sim.flush()
        windows = set()
        for router_id in sim.store.router_ids():
            windows.update(sim.store.window_indices(router_id))
        assert windows == {0, 1, 2}  # 12s of traffic in 5s windows

    def test_run_until_records(self):
        sim = make_simulator()
        sim.run_until_records(200)
        assert sim.records_generated >= 200

    def test_run_until_records_gives_up(self):
        sim = make_simulator(flows_per_tick=0)
        with pytest.raises(SimulationError):
            sim.run_until_records(10, max_ticks=3)

    def test_deterministic_runs(self):
        a, b = make_simulator(), make_simulator()
        for sim in (a, b):
            sim.pump(ticks=4)
            sim.flush()
        for router_id in a.store.router_ids():
            for window in a.store.window_indices(router_id):
                assert a.store.window_blobs(router_id, window) == \
                    b.store.window_blobs(router_id, window)


class TestTopologyOverride:
    def test_custom_topology(self):
        store = MemoryLogStore()
        sim = NetFlowSimulator(
            store, BulletinBoard(), SimClock(),
            SimulatorConfig(flows_per_tick=5),
            topology=NetworkTopology.linear(2))
        sim.pump(ticks=2)
        sim.flush()
        assert set(store.router_ids()) <= {"r1", "r2"}
        assert sim.config.num_routers == 2


class TestWireFormatMode:
    def test_wire_mode_commits_decoded_records(self):
        sim = make_simulator(use_wire_format=True)
        sim.pump(ticks=3)
        sim.flush()
        assert sim.records_generated > 0
        # Every stored record decodes and carries its router id.
        for router_id in sim.store.router_ids():
            for window in sim.store.window_indices(router_id):
                for record in sim.store.window_records(router_id,
                                                       window):
                    assert record.router_id == router_id

    def test_wire_mode_preserves_committed_semantics(self):
        """Same traffic, with and without the wire: flow keys and
        packet counts must agree (the transport is lossless for
        in-range counters)."""
        direct = make_simulator()
        wired = make_simulator(use_wire_format=True)
        for sim in (direct, wired):
            sim.pump(ticks=2)
            sim.flush()

        def flow_counts(sim):
            counts = {}
            for router_id in sim.store.router_ids():
                for window in sim.store.window_indices(router_id):
                    for record in sim.store.window_records(router_id,
                                                           window):
                        counts[(router_id, record.key)] = record.packets
            return counts

        assert flow_counts(direct) == flow_counts(wired)

    def test_wire_mode_full_pipeline(self):
        """Wire-decoded records commit, aggregate and verify."""
        from repro.core.prover_service import ProverService
        from repro.core.verifier_client import VerifierClient
        sim = make_simulator(use_wire_format=True)
        sim.pump(ticks=3)
        sim.flush()
        service = ProverService(sim.store, sim.bulletin)
        service.aggregate_all_committed()
        VerifierClient(sim.bulletin).verify_chain(
            service.chain.receipts())


class TestThreaded:
    def test_threaded_run_commits(self):
        store = MemoryLogStore()
        bulletin = BulletinBoard()
        sim = NetFlowSimulator(
            store, bulletin, WallClock(),
            SimulatorConfig(flows_per_tick=3, tick_ms=20,
                            commit_interval_ms=100))
        sim.run_threaded(duration_ms=300)
        assert sim.records_generated > 0
        assert len(bulletin) > 0
        # Every published commitment matches the stored window.
        for commitment in bulletin:
            blobs = store.window_blobs(commitment.router_id,
                                       commitment.window_index)
            assert window_digest(blobs) == commitment.digest

    def test_router_thread_failure_is_raised(self):
        """A store that refuses a window kills that router's thread;
        the run must say so rather than return with the window (and
        every later one of that router) never stored or committed."""

        class RefusingStore(MemoryLogStore):
            def append_records(self, router_id, window_index, records):
                if router_id == "r2":
                    raise StorageError("disk full")
                return super().append_records(router_id, window_index,
                                              records)

        bulletin = BulletinBoard()
        sim = NetFlowSimulator(
            RefusingStore(), bulletin, WallClock(),
            SimulatorConfig(flows_per_tick=3, tick_ms=20,
                            commit_interval_ms=60))
        with pytest.raises(StorageError, match="disk full"):
            sim.run_threaded(duration_ms=300)
        assert all(c.router_id != "r2" for c in bulletin)
