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

from dataclasses import dataclass
from typing import Any

from ..commitments import BulletinBoard
from ..errors import ChainError, VerificationError
from ..hashing import Digest
from ..merkle.tree import EMPTY_ROOTS
from ..zkvm import Receipt, Verifier
from .chain import ROUND_IMAGE_IDS, require_distinct_windows
from .guest_programs import query_guest, query_merge_guest
from .query_proof import QueryResponse


@dataclass(frozen=True)
class VerifiedAggregation:
    """What a verified aggregation round publicly establishes."""

    round: int
    prev_root: Digest
    new_root: Digest
    size: int
    windows: tuple[tuple[str, int], ...]  # (router_id, window_index)
    entries: int


@dataclass(frozen=True)
class VerifiedQuery:
    """What a verified query response publicly establishes."""

    sql: str
    labels: tuple[str, ...]
    values: tuple[int | float | None, ...]
    matched: int
    scanned: int
    root: Digest
    round: int
    group_by: str | None = None
    groups: tuple[tuple[Any, tuple[int | float | None, ...]], ...] = ()


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
                           prev: VerifiedAggregation | None = None
                           ) -> VerifiedAggregation:
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
        header = self._journal_header(receipt)
        verified = VerifiedAggregation(
            round=header["round"],
            prev_root=header["prev_root"],
            new_root=header["new_root"],
            size=header["size"],
            windows=tuple((w["r"], w["w"]) for w in header["windows"]),
            entries=header["entries"],
        )
        require_distinct_windows(f"round {verified.round}",
                                 verified.windows)
        # Window commitments in the journal must match the public board.
        for window_info in header["windows"]:
            published = self.bulletin.get(window_info["r"],
                                          window_info["w"])
            if published.digest != window_info["c"]:
                raise VerificationError(
                    f"aggregation consumed a commitment for "
                    f"({window_info['r']!r}, {window_info['w']}) that "
                    "differs from the published one")
        # Chain linkage.
        if prev is None:
            if verified.round != 0:
                raise ChainError(
                    f"round {verified.round} verified without its "
                    "predecessor")
            if verified.prev_root != EMPTY_ROOTS[0]:
                raise ChainError(
                    "round 0 does not start from the empty CLog root")
        else:
            if verified.round != prev.round + 1:
                raise ChainError(
                    f"round {verified.round} does not follow round "
                    f"{prev.round}")
            if verified.prev_root != prev.new_root:
                raise ChainError(
                    f"round {verified.round} prev_root does not match "
                    f"round {prev.round} new_root")
        return verified

    def verify_chain(self, receipts: list[Receipt]
                     ) -> list[VerifiedAggregation]:
        """Verify a full aggregation history from genesis.

        Also rejects double-consumption: no (router, window) pair may be
        aggregated twice across the chain (a replaying prover would
        double-count committed traffic).
        """
        if not receipts:
            raise ChainError("empty receipt chain")
        return self.extend_chain([], set(), receipts)

    def extend_chain(self, verified: list[VerifiedAggregation],
                     consumed: set[tuple[str, int]],
                     receipts: list[Receipt]
                     ) -> list[VerifiedAggregation]:
        """Extend ``verified`` (rounds from genesis, which aggregated the
        ``consumed`` windows) in place by the receipts that follow."""
        prev = verified[-1] if verified else None
        for receipt in receipts:
            current = self.verify_aggregation(receipt, prev)
            duplicates = consumed.intersection(current.windows)
            if duplicates:
                raise ChainError(
                    f"windows consumed twice across the chain: "
                    f"{sorted(duplicates)}")
            consumed.update(current.windows)
            verified.append(current)
            prev = current
        return verified

    # -- query receipts ------------------------------------------------------------

    def verify_query(self, response: QueryResponse,
                     aggregation: VerifiedAggregation) -> VerifiedQuery:
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
        journal = response.receipt.journal.decode_one()
        if not isinstance(journal, dict):
            raise VerificationError("query journal is not a dict")
        if journal["root"] != aggregation.new_root:
            raise VerificationError(
                "query was proven against a different aggregation root")
        if journal["round"] != aggregation.round:
            raise VerificationError(
                "query round does not match the aggregation round")
        if journal["query"] != response.sql:
            raise VerificationError(
                "receipt proves a different query text than claimed")
        if tuple(journal["values"]) != tuple(response.values) \
                or tuple(journal["labels"]) != tuple(response.labels):
            raise VerificationError(
                "response values do not match the proven journal")
        journal_groups = tuple((key, tuple(values)) for key, values in
                               journal.get("groups", []))
        if journal.get("group_by") != response.group_by \
                or journal_groups != response.groups:
            raise VerificationError(
                "response groups do not match the proven journal")
        return VerifiedQuery(
            sql=journal["query"],
            labels=tuple(journal["labels"]),
            values=tuple(journal["values"]),
            matched=journal["matched"],
            scanned=journal["scanned"],
            root=journal["root"],
            round=journal["round"],
            group_by=journal.get("group_by"),
            groups=journal_groups,
        )

    def verify_response(self, response: QueryResponse,
                        receipts: list[Receipt]) -> VerifiedQuery:
        """Verify a query response against a full receipt chain.

        This is the remote-deployment entry point: a client that
        fetched ``receipts`` and ``response`` over the wire
        (:class:`repro.net.QueryClient`) verifies them with exactly the
        in-process checks — chain from genesis, then the query bound to
        the round it claims.
        """
        return self.verify_query_in(response, self.verify_chain(receipts))

    def verify_query_in(self, response: QueryResponse,
                        chain: list[VerifiedAggregation]) -> VerifiedQuery:
        """Verify a query response against the round it claims in an
        already-verified chain."""
        if not 0 <= response.round < len(chain):
            raise VerificationError(
                f"response claims round {response.round} but the "
                f"chain has {len(chain)} round(s)")
        return self.verify_query(response, chain[response.round])

    # -- internals --------------------------------------------------------------------

    @staticmethod
    def _journal_header(receipt: Receipt) -> dict[str, Any]:
        header = next(receipt.journal.values(), None)
        if not isinstance(header, dict):
            raise VerificationError("aggregation journal missing header")
        return header
