"""Integration tests for historical (per-round) query auditing."""

import pytest

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.prover_service import ProverService
from repro.core.verifier_client import VerifierClient
from repro.errors import ProofError
from repro.storage import MemoryLogStore

from ..conftest import make_record


@pytest.fixture
def service():
    store = MemoryLogStore()
    bulletin = BulletinBoard()
    for window in range(3):
        records = [make_record(sport=1000 + window * 10 + i,
                               lost_packets=window)
                   for i in range(2)]
        store.append_records("r1", window, records)
        bulletin.publish(Commitment(
            "r1", window,
            window_digest([r.to_bytes() for r in records]),
            len(records), window * 5_000))
    svc = ProverService(store, bulletin, retain_history=True)
    svc.aggregate_all_committed()
    return svc


class TestHistoricalQueries:
    def test_each_round_answers_with_its_own_size(self, service):
        for round_index, expected in ((0, 2), (1, 4), (2, 6)):
            response = service.answer_query(
                "SELECT COUNT(*) FROM clogs", round_index=round_index)
            assert response.value() == expected
            assert response.round == round_index

    def test_historical_response_verifies_against_its_round(self,
                                                            service):
        verifier = VerifierClient(service.bulletin)
        chain = verifier.verify_chain(service.chain.receipts())
        response = service.answer_query(
            "SELECT SUM(lost_packets) FROM clogs", round_index=1)
        verified = verifier.verify_query(response, chain[1])
        assert verified.round == 1

    def test_historical_response_rejected_against_other_round(self,
                                                              service):
        from repro.errors import VerificationError
        verifier = VerifierClient(service.bulletin)
        chain = verifier.verify_chain(service.chain.receipts())
        response = service.answer_query(
            "SELECT COUNT(*) FROM clogs", round_index=0)
        with pytest.raises(VerificationError):
            verifier.verify_query(response, chain[2])

    def test_default_is_latest(self, service):
        response = service.answer_query("SELECT COUNT(*) FROM clogs")
        assert response.round == 2

    def test_without_retention_historical_refused(self):
        """Round 0 of a two-round chain is history; the latest round,
        named, is the service's own state and is answered."""
        store = MemoryLogStore()
        bulletin = BulletinBoard()
        for window in range(2):
            records = [make_record(sport=1000 + window)]
            store.append_records("r1", window, records)
            bulletin.publish(Commitment(
                "r1", window,
                window_digest([r.to_bytes() for r in records]),
                1, window * 5_000))
        service = ProverService(store, bulletin)  # no retention
        service.aggregate_window(0)
        service.aggregate_window(1)
        with pytest.raises(ProofError, match="retain_history"):
            service.answer_query("SELECT COUNT(*) FROM clogs",
                                 round_index=0)
        latest = service.answer_query("SELECT COUNT(*) FROM clogs",
                                      round_index=1)
        assert latest.round == 1

    def test_unknown_round_refused(self, service):
        with pytest.raises(ProofError):
            service.answer_query("SELECT COUNT(*) FROM clogs",
                                 round_index=99)
