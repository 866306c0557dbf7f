"""Integration: the paper's threaded §6 setup feeding the prover."""

from repro.commitments import BulletinBoard
from repro.core.prover_service import ProverService
from repro.core.verifier_client import VerifierClient
from repro.netflow import (
    NetFlowSimulator,
    SimulatorConfig,
    WallClock,
)
from repro.storage import SqliteLogStore


class TestThreadedPipelineWithSql:
    def test_parallel_routers_shared_sql_backend(self):
        """4 router threads → shared sqlite → commitments → proofs —
        the complete §6 experimental configuration."""
        store = SqliteLogStore()
        bulletin = BulletinBoard()
        simulator = NetFlowSimulator(
            store, bulletin, WallClock(),
            SimulatorConfig(flows_per_tick=4, tick_ms=20,
                            commit_interval_ms=100))
        simulator.run_threaded(duration_ms=400)
        assert simulator.records_generated > 0
        assert len(bulletin) >= 4  # each router committed something

        service = ProverService(store, bulletin)
        results = service.aggregate_all_committed()
        assert results, "at least one aggregation round"

        response = service.answer_query(
            "SELECT COUNT(*), SUM(lost_packets) FROM clogs")
        verifier = VerifierClient(bulletin)
        chain = verifier.verify_chain(service.chain.receipts())
        verified = verifier.verify_query(response, chain[-1])
        assert verified.scanned == len(service.state)
        store.close()

    def test_windows_only_partially_committed_are_skippable(self):
        """aggregate_all_committed only consumes windows that made it
        onto the bulletin; in-flight buffers are untouched."""
        store = SqliteLogStore()
        bulletin = BulletinBoard()
        simulator = NetFlowSimulator(
            store, bulletin, WallClock(),
            SimulatorConfig(flows_per_tick=4, tick_ms=20,
                            commit_interval_ms=100))
        simulator.run_threaded(duration_ms=250)
        committed = set(bulletin.windows())
        service = ProverService(store, bulletin)
        results = service.aggregate_all_committed()
        consumed = {w for result in results for w in result.windows}
        assert consumed <= committed
        store.close()
