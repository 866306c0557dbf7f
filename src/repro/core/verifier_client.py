"""The client-side verifier (Figure 1, right).

Clients hold only public material: the bulletin board of router
commitments and the known guest image ids (the aggregation and query
programs are public code).  From a chain of aggregation receipts plus a
query receipt they establish, without seeing any log entry, that

* every aggregation round executed Algorithm 1 over windows whose
  hashes match the published commitments,
* the rounds form an unbroken chain from the empty CLog, with no window
  consumed twice, and
* the query result was computed over exactly the latest committed root.
"""

from __future__ import annotations

from ..commitments import BulletinBoard
from ..errors import ChainError, VerificationError
from ..merkle.tree import EMPTY_ROOTS
from ..zkvm import Receipt, Verifier
from .chain import ROUND_IMAGE_IDS, require_distinct_windows
from .guest_programs import query_guest, query_merge_guest
from .journals import QueryJournal, RoundHeader
from .query_proof import QueryResponse


class VerifierClient:
    """Independent verification from public material only."""

    def __init__(self, bulletin: BulletinBoard) -> None:
        self.bulletin = bulletin
        self._verifier = Verifier()
        # Clients know the published guest programs' image ids.
        self.aggregation_image_ids = ROUND_IMAGE_IDS
        # A query answer arrives as a full-scan receipt or a fan-out
        # merge receipt (one per query that shared the partition scan);
        # both commit the same journal layout, and the merge guest pins
        # its partition image id internally, so the client only needs
        # the outer image.
        self.query_image_ids = (
            query_guest.image_id,
            query_merge_guest.image_id,
        )

    # -- aggregation receipts ------------------------------------------------

    def verify_aggregation(self, receipt: Receipt,
                           prev: RoundHeader | None = None
                           ) -> RoundHeader:
        """Verify one aggregation receipt and cross-check the bulletin.

        ``prev`` (the previous round's verified view) enforces linkage;
        pass ``None`` only for round 0, which must start from the empty
        CLog.
        """
        if receipt.claim.image_id not in self.aggregation_image_ids:
            raise VerificationError(
                f"receipt image {receipt.claim.image_id.short()}... is "
                "not a trusted aggregation program")
        self._verifier.verify(receipt, receipt.claim.image_id)
        verified = RoundHeader.parse(receipt)
        require_distinct_windows(f"round {verified.round}",
                                 verified.consumed)
        # Window commitments in the journal must match the public board.
        for router_id, window_index, commitment in verified.windows:
            if self.bulletin.get(router_id, window_index).digest \
                    != commitment:
                raise VerificationError(
                    f"aggregation consumed a commitment for "
                    f"({router_id!r}, {window_index}) that "
                    "differs from the published one")
        # Chain linkage: round 0 starts from the empty CLog.
        round_index, prev_root = (0, EMPTY_ROOTS[0]) if prev is None \
            else (prev.round + 1, prev.new_root)
        if verified.round != round_index:
            raise ChainError(
                f"round {verified.round} verified where round "
                f"{round_index} must follow")
        if verified.prev_root != prev_root:
            raise ChainError(
                f"round {verified.round} prev_root does not match its "
                "predecessor's new_root (the empty CLog for round 0)")
        return verified

    def verify_chain(self, receipts: list[Receipt]
                     ) -> list[RoundHeader]:
        """Verify a full aggregation history from genesis.

        Also rejects double-consumption: no (router, window) pair may be
        aggregated twice across the chain (a replaying prover would
        double-count committed traffic).
        """
        if not receipts:
            raise ChainError("empty receipt chain")
        return self.extend_chain([], set(), receipts)

    def extend_chain(self, verified: list[RoundHeader],
                     consumed: set[tuple[str, int]],
                     receipts: list[Receipt]
                     ) -> list[RoundHeader]:
        """Extend ``verified`` (rounds from genesis, which aggregated the
        ``consumed`` windows) in place by the receipts that follow."""
        prev = verified[-1] if verified else None
        for receipt in receipts:
            current = self.verify_aggregation(receipt, prev)
            duplicates = consumed.intersection(current.consumed)
            if duplicates:
                raise ChainError(
                    f"windows consumed twice across the chain: "
                    f"{sorted(duplicates)}")
            consumed.update(current.consumed)
            verified.append(current)
            prev = current
        return verified

    # -- query receipts ------------------------------------------------------------

    def verify_query(self, response: QueryResponse,
                     aggregation: RoundHeader) -> QueryJournal:
        """Verify a query response against a verified aggregation round.

        Checks both properties §4.2 promises: the computation was
        correct (receipt verifies against the public query image) and it
        ran over the committed data (journal root equals the verified
        aggregation root).  Accepts both proving strategies — a
        full-scan receipt and a partitioned merge receipt carry
        identical journals and differ only in which trusted query
        image produced them.
        """
        image_id = response.receipt.claim.image_id
        if image_id not in self.query_image_ids:
            raise VerificationError(
                f"receipt image {image_id.short()}... is not a trusted "
                "query program")
        self._verifier.verify(response.receipt, image_id)
        journal = QueryJournal.parse(response.receipt)
        if (journal.root, journal.round) \
                != (aggregation.new_root, aggregation.round):
            raise VerificationError(
                "query was proven against a different aggregation round")
        claim = response.claim
        if claim != journal:
            # The response names the journal's ``query`` its ``sql``.
            wrong = ["query text" if key == "query" else key
                     for key in journal.__dataclass_fields__
                     if getattr(claim, key) != getattr(journal, key)]
            raise VerificationError(
                f"response {', '.join(wrong)} do not match the proven "
                "journal")
        return journal

    def verify_response(self, response: QueryResponse,
                        receipts: list[Receipt]) -> QueryJournal:
        """Verify a query response against a full receipt chain.

        This is the remote-deployment entry point: a client that
        fetched ``receipts`` and ``response`` over the wire
        (:class:`repro.net.QueryClient`) verifies them with exactly the
        in-process checks — chain from genesis, then the query bound to
        the round it claims.
        """
        return self.verify_query_in(response, self.verify_chain(receipts))

    def verify_query_in(self, response: QueryResponse,
                        chain: list[RoundHeader]) -> QueryJournal:
        """Verify a query response against the round it claims in an
        already-verified chain."""
        if not 0 <= response.round < len(chain):
            raise VerificationError(
                f"response claims round {response.round} but the "
                f"chain has {len(chain)} round(s)")
        return self.verify_query(response, chain[response.round])
