"""Unit tests for the client-side verifier."""

import dataclasses

import pytest

from repro.errors import (
    ChainError,
    MissingCommitment,
    VerificationError,
)
from repro.zkvm.receipt import Journal, Receipt


class TestAggregationVerification:
    def test_chain_verifies(self, aggregated_system):
        system = aggregated_system
        receipts = system.prover.chain.receipts()
        verified = system.verifier.verify_chain(receipts)
        assert len(verified) == len(receipts)
        assert verified[0].round == 0
        for prev, current in zip(verified, verified[1:]):
            assert current.prev_root == prev.new_root

    def test_empty_chain_rejected(self, aggregated_system):
        with pytest.raises(ChainError, match="empty"):
            aggregated_system.verifier.verify_chain([])

    def test_round_zero_needed_first(self, aggregated_system):
        receipts = aggregated_system.prover.chain.receipts()
        if len(receipts) < 2:
            pytest.skip("need two rounds")
        with pytest.raises(ChainError):
            aggregated_system.verifier.verify_chain(receipts[1:])

    def test_unpublished_commitment_rejected(self, aggregated_system):
        """A prover claiming a window no router published is caught."""
        from repro.commitments import BulletinBoard
        from repro.core.verifier_client import VerifierClient
        isolated = VerifierClient(BulletinBoard())  # empty board
        receipts = aggregated_system.prover.chain.receipts()
        with pytest.raises(MissingCommitment):
            isolated.verify_chain(receipts)

    def test_journal_window_mismatch_rejected(self, aggregated_system):
        """Journal claiming different commitments than published."""
        system = aggregated_system
        receipt = system.prover.chain.receipts()[0]
        values = receipt.journal.decode()
        from repro.hashing import sha256
        values[0] = dict(values[0])
        values[0]["windows"] = [
            {**w, "c": sha256(b"forged")} for w in values[0]["windows"]]
        from repro.serialization import encode
        forged_journal = Journal(b"".join(encode(v) for v in values))
        forged = Receipt(inner=receipt.inner, journal=forged_journal,
                         claim=receipt.claim)
        # Seal breaks first (journal digest no longer matches claim).
        with pytest.raises(VerificationError):
            system.verifier.verify_aggregation(forged, None)

    def test_replayed_window_rejected_across_chain(self,
                                                   aggregated_system):
        """Aggregating the same committed window twice (double
        counting) is rejected by chain verification."""
        system = aggregated_system
        receipts = system.prover.chain.receipts()
        # Forge a chain where round 1 is replaced by a replay of the
        # same windows — simplest check: duplicate detection logic.
        verified = system.verifier.verify_chain(receipts)
        seen = set()
        for v in verified:
            assert not (seen & set(v.windows))
            seen.update(v.windows)


class TestDoubleConsumptionWithinOneRound:
    """A round whose journal lists a (router, window) pair twice proves
    that window's records twice from one commitment.  Every guest check
    passes (each copy matches the published hash), so the client must
    refuse it from the public journal alone."""

    @pytest.fixture
    def committed(self):
        from repro.commitments import BulletinBoard, Commitment, \
            window_digest
        from repro.core.aggregation import RouterWindowInput
        from repro.core.verifier_client import VerifierClient
        from ..conftest import make_record
        bulletin, inputs = BulletinBoard(), []
        for window in (0, 1):
            blobs = tuple(make_record(sport=1000 + 10 * window + i)
                          .to_bytes() for i in range(3))
            digest = window_digest(list(blobs))
            bulletin.publish(Commitment(
                router_id="r1", window_index=window, digest=digest,
                record_count=3, published_at_ms=5_000))
            inputs.append(RouterWindowInput("r1", window, digest, blobs))
        return VerifierClient(bulletin), inputs

    def test_update_path_round_with_repeated_pair_rejected(self,
                                                           committed):
        from repro.core.aggregation import Aggregator
        from repro.core.clog import CLogState
        client, inputs = committed
        honest = Aggregator().aggregate(CLogState(), inputs, None)
        assert client.verify_chain([honest.receipt])[0].entries == 6
        doubled = Aggregator().aggregate(CLogState(), inputs + inputs,
                                         None)
        assert doubled.record_count == 12  # proven: the guest is happy
        with pytest.raises(ChainError, match="more than once"):
            client.verify_chain([doubled.receipt])

    def test_streamed_round_with_pair_in_two_deltas_rejected(self,
                                                             committed):
        """The streamer's own guard refuses the repeat, so the forging
        host switches it off: same window, proven again from the
        intermediate state, folded like any other delta."""
        from repro.core.aggregation import Aggregator
        from repro.core.clog import CLogState
        from repro.engine import ProvingEngine
        from repro.stream import StreamingAggregator

        class ForgingStreamer(StreamingAggregator):
            open_windows = frozenset()

        client, inputs = committed
        window = inputs[:1]
        with ProvingEngine(backend="serial") as engine:
            streamer = ForgingStreamer(engine=engine)
            streamer.ingest(CLogState(), window)
            streamer.ingest(CLogState(), window)
            doubled = streamer.close()
        monolithic = Aggregator().aggregate(CLogState(), window + window,
                                            None)
        assert doubled.receipt.journal.data \
            == monolithic.receipt.journal.data
        with pytest.raises(ChainError, match="more than once"):
            client.verify_chain([doubled.receipt])


class TestQueryVerification:
    def test_query_verifies(self, aggregated_system):
        system = aggregated_system
        response = system.prover.answer_query(
            "SELECT COUNT(*) FROM clogs")
        chain = system.verifier.verify_chain(
            system.prover.chain.receipts())
        verified = system.verifier.verify_query(response, chain[-1])
        assert verified.values == response.values
        assert verified.root == chain[-1].new_root

    def test_stale_aggregation_round_rejected(self, aggregated_system):
        system = aggregated_system
        chain = system.verifier.verify_chain(
            system.prover.chain.receipts())
        if len(chain) < 2:
            pytest.skip("need two rounds")
        response = system.prover.answer_query(
            "SELECT COUNT(*) FROM clogs")
        with pytest.raises(VerificationError, match="root|round"):
            system.verifier.verify_query(response, chain[0])

    def test_response_value_mismatch_rejected(self, aggregated_system):
        system = aggregated_system
        response = system.prover.answer_query(
            "SELECT SUM(lost_packets) FROM clogs")
        chain = system.verifier.verify_chain(
            system.prover.chain.receipts())
        lying = dataclasses.replace(
            response, values=(999_999,))
        with pytest.raises(VerificationError, match="values"):
            system.verifier.verify_query(lying, chain[-1])

    def test_sql_mismatch_rejected(self, aggregated_system):
        system = aggregated_system
        response = system.prover.answer_query(
            "SELECT COUNT(*) FROM clogs")
        chain = system.verifier.verify_chain(
            system.prover.chain.receipts())
        lying = dataclasses.replace(
            response, sql="SELECT SUM(lost_packets) FROM clogs")
        with pytest.raises(VerificationError, match="query text"):
            system.verifier.verify_query(lying, chain[-1])
