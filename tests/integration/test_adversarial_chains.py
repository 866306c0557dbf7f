"""Adversarial chain constructions the client verifier must reject.

These forge chains a *malicious prover* could attempt with access to
the honest proving machinery (i.e., without breaking the crypto):
double-counting a committed window, forking history, splicing rounds
from another deployment.
"""

import pytest

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.aggregation import Aggregator, RouterWindowInput
from repro.core.clog import CLogState
from repro.core.verifier_client import VerifierClient
from repro.errors import ChainError

from ..conftest import make_record


def committed(bulletin: BulletinBoard, router: str, window: int,
              records) -> RouterWindowInput:
    blobs = tuple(r.to_bytes() for r in records)
    digest = window_digest(list(blobs))
    if router not in bulletin.for_window(window):
        bulletin.publish(Commitment(router, window, digest,
                                    len(blobs), window * 5_000))
    return RouterWindowInput(router_id=router, window_index=window,
                             commitment=digest, blobs=blobs)


class TestReplayAcrossRounds:
    def test_double_counted_window_rejected(self):
        """A prover aggregates the SAME committed window in two rounds
        (double-counting committed loss, say).  Each round's receipt is
        individually valid; only chain-level window tracking catches
        it."""
        bulletin = BulletinBoard()
        window0 = committed(bulletin, "r1", 0,
                            [make_record(lost_packets=5)])
        aggregator = Aggregator()
        first = aggregator.aggregate(CLogState(), [window0], None)
        # Round 1 replays window 0 (ProverService would refuse; the
        # raw Aggregator — a malicious prover's tool — does not).
        second = aggregator.aggregate(first.new_state, [window0],
                                      first.receipt)
        verifier = VerifierClient(bulletin)
        with pytest.raises(ChainError, match="twice"):
            verifier.verify_chain([first.receipt, second.receipt])

    def test_distinct_windows_pass(self):
        bulletin = BulletinBoard()
        window0 = committed(bulletin, "r1", 0, [make_record()])
        window1 = committed(bulletin, "r1", 1,
                            [make_record(sport=2000)])
        aggregator = Aggregator()
        first = aggregator.aggregate(CLogState(), [window0], None)
        second = aggregator.aggregate(first.new_state, [window1],
                                      first.receipt)
        VerifierClient(bulletin).verify_chain([first.receipt,
                                               second.receipt])


class TestForkedHistory:
    def test_spliced_foreign_round_rejected(self):
        """Round 1 from a *different* genesis cannot extend round 0 of
        this chain (prev_root mismatch)."""
        bulletin = BulletinBoard()
        window0 = committed(bulletin, "r1", 0, [make_record()])
        window1 = committed(bulletin, "r1", 1,
                            [make_record(sport=2000)])
        other0 = committed(bulletin, "r1", 2,
                           [make_record(sport=3000)])
        aggregator = Aggregator()
        genesis = aggregator.aggregate(CLogState(), [window0], None)
        other_genesis = aggregator.aggregate(CLogState(), [other0],
                                             None)
        foreign_round1 = aggregator.aggregate(
            other_genesis.new_state, [window1], other_genesis.receipt)
        verifier = VerifierClient(bulletin)
        with pytest.raises(ChainError, match="prev_root"):
            verifier.verify_chain([genesis.receipt,
                                   foreign_round1.receipt])

    def test_round_skipping_rejected(self):
        bulletin = BulletinBoard()
        window0 = committed(bulletin, "r1", 0, [make_record()])
        window1 = committed(bulletin, "r1", 1,
                            [make_record(sport=2000)])
        aggregator = Aggregator()
        first = aggregator.aggregate(CLogState(), [window0], None)
        second = aggregator.aggregate(first.new_state, [window1],
                                      first.receipt)
        verifier = VerifierClient(bulletin)
        # Presenting round 1 without round 0: not a genesis.
        with pytest.raises(ChainError):
            verifier.verify_chain([second.receipt])


class TestCrossDeploymentSplicing:
    def test_round_from_other_bulletin_rejected(self):
        """Receipts proven against commitments never published on THIS
        bulletin are rejected at the cross-check."""
        foreign_bulletin = BulletinBoard()
        window = committed(foreign_bulletin, "r1", 0, [make_record()])
        result = Aggregator().aggregate(CLogState(), [window], None)
        from repro.errors import MissingCommitment
        empty_bulletin = BulletinBoard()
        with pytest.raises(MissingCommitment):
            VerifierClient(empty_bulletin).verify_chain(
                [result.receipt])

    def test_same_window_different_digest_rejected(self):
        """The bulletin has (r1, 0) but with a different digest than
        the receipt consumed — a forked-commitment splice."""
        prover_bulletin = BulletinBoard()
        window = committed(prover_bulletin, "r1", 0, [make_record()])
        result = Aggregator().aggregate(CLogState(), [window], None)
        client_bulletin = BulletinBoard()
        client_bulletin.publish(Commitment(
            "r1", 0, window_digest([make_record(sport=9).to_bytes()]),
            1, 0))
        from repro.errors import VerificationError
        with pytest.raises(VerificationError, match="differs"):
            VerifierClient(client_bulletin).verify_chain(
                [result.receipt])
