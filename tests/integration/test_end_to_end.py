"""End-to-end integration: the full Figure-1 pipeline.

Simulate traffic → routers commit windows → prover aggregates with
chained proofs → client queries → client verifies everything from
public material only.
"""

import pytest

from repro.core.guest_programs import batched_aggregation_guest, query_guest
from repro.core.system import SystemConfig, TelemetrySystem
from repro.zkvm import verify_receipt


class TestFullPipeline:
    def test_simulate_aggregate_query_verify(self, aggregated_system):
        system = aggregated_system
        assert len(system.prover.chain) >= 2  # multiple windows/rounds

        response, verified = system.query(
            "SELECT COUNT(*), SUM(lost_packets) FROM clogs")
        assert verified.values == response.values
        assert verified.scanned == len(system.prover.state)

    def test_every_receipt_verifies_standalone(self, aggregated_system):
        for link in aggregated_system.prover.chain:
            verify_receipt(link.receipt,
                           batched_aggregation_guest.image_id)

    def test_query_receipt_verifies(self, aggregated_system):
        response = aggregated_system.prover.answer_query(
            "SELECT MAX(hop_count) FROM clogs")
        verify_receipt(response.receipt, query_guest.image_id)

    def test_chain_roots_link(self, aggregated_system):
        verified = aggregated_system.verifier.verify_chain(
            aggregated_system.prover.chain.receipts())
        for prev, current in zip(verified, verified[1:]):
            assert current.prev_root == prev.new_root
            assert current.round == prev.round + 1

    def test_aggregation_matches_ground_truth(self, aggregated_system):
        """The proven CLog dataset reflects what the simulator sent."""
        system = aggregated_system
        # Reconstruct ground truth from the store (what routers logged).
        from repro.core.clog import CLogEntry
        from repro.core.policy import DEFAULT_POLICY
        truth = {}
        for router_id in sorted(system.store.router_ids()):
            for window in system.store.window_indices(router_id):
                for record in system.store.window_records(router_id,
                                                          window):
                    existing = truth.get(record.key)
                    truth[record.key] = (
                        existing.merge(record, DEFAULT_POLICY)
                        if existing else CLogEntry.fresh(record))
        state_entries = {e.key: e for e in
                         system.prover.state.entries_in_slot_order()}
        assert set(truth) == set(state_entries)
        mismatches = [k for k in truth
                      if truth[k].lost_packets !=
                      state_entries[k].lost_packets]
        assert not mismatches

    def test_query_results_are_reproducible(self, aggregated_system):
        sql = "SELECT AVG(rtt_avg_us) FROM clogs WHERE hop_count >= 2"
        first = aggregated_system.prover.answer_query(sql)
        second = aggregated_system.prover.answer_query(sql)
        assert first.values == second.values
        assert first.receipt.claim_digest == second.receipt.claim_digest


class TestJournalPrivacy:
    def test_aggregation_journal_reveals_no_addresses(self,
                                                      aggregated_system):
        """Confidentiality: journals contain only digests and counters,
        never flow 5-tuples or raw records."""
        import re
        for link in aggregated_system.prover.chain:
            values = link.receipt.journal.decode()
            header, items = values[0], values[1:]
            assert set(header) == {"round", "prev_root", "new_root",
                                   "size", "depth", "windows", "policy",
                                   "entries"}
            for item in items:
                assert set(item) == {"s", "l", "t"}
            # No dotted-quad strings anywhere in the serialized journal.
            text = link.receipt.journal.data.decode("latin1")
            for match in re.findall(
                    r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", text):
                pytest.fail(f"journal leaks address-like text {match}")

    def test_query_journal_reveals_only_query_and_result(
            self, aggregated_system):
        response = aggregated_system.prover.answer_query(
            "SELECT COUNT(*) FROM clogs")
        journal = response.receipt.journal.decode_one()
        assert set(journal) == {"query", "root", "round", "labels",
                                "values", "matched", "scanned",
                                "group_by", "groups"}
        assert journal["group_by"] is None  # ungrouped query


class TestBackendParity:
    def test_sqlite_backend_full_pipeline(self):
        system = TelemetrySystem(SystemConfig(
            seed=11, flows_per_tick=5, backend="sqlite"))
        system.generate(100)
        rounds = system.aggregate_all()
        assert rounds >= 1
        response, verified = system.query(
            "SELECT COUNT(*) FROM clogs")
        assert verified.values == response.values
        system.close()

    def test_memory_and_sqlite_agree(self):
        def run(backend):
            system = TelemetrySystem(SystemConfig(
                seed=23, flows_per_tick=5, backend=backend))
            system.generate(100)
            system.aggregate_all()
            root = system.prover.state.root
            system.close()
            return root
        assert run("memory") == run("sqlite")
