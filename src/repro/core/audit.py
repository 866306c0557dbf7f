"""Audit bundles: one portable artifact for a complete audit.

Everything a regulator needs to independently re-verify a provider's
telemetry claims, in a single JSON document:

* the bulletin board (every router window commitment),
* the full aggregation receipt chain,
* any number of query receipts.

The chain needs no separate log or checkpoint: every round verifies its
predecessor's receipt (§4.1 step 1), so the chain head already commits
the whole history.

:func:`verify_bundle` replays the client-side checks from the bundle
alone — no store access, no provider interaction — and returns a
structured report.  Bundles are self-describing and versioned, so they
can be archived for the retention periods compliance regimes require
(long after the raw logs are gone, which is the point: §2.2 "network
logs are typically ephemeral").
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..commitments import BulletinBoard, Commitment
from ..errors import ReproError
from ..hashing import Digest
from ..zkvm import Receipt
from .prover_service import ProverService
from .query_proof import QueryResponse, response_from_receipt
from .verifier_client import VerifierClient

BUNDLE_VERSION = 1


@dataclass
class AuditBundle:
    """The portable audit artifact."""

    commitments: list[Commitment]
    chain: list[Receipt]
    query_receipts: list[Receipt] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_service(cls, service: ProverService,
                     query_responses: list[QueryResponse] | None = None,
                     metadata: dict[str, Any] | None = None
                     ) -> "AuditBundle":
        """Snapshot a prover service's public material."""
        return cls(
            commitments=list(service.bulletin),
            chain=service.chain.receipts(),
            query_receipts=[response.receipt for response in
                            (query_responses or [])],
            metadata=dict(metadata or {}),
        )

    # -- serialization -------------------------------------------------------------

    def to_json_bytes(self) -> bytes:
        document = {
            "version": BUNDLE_VERSION,
            "metadata": self.metadata,
            "commitments": [{
                "router_id": c.router_id,
                "window_index": c.window_index,
                "digest": c.digest.hex(),
                "record_count": c.record_count,
                "published_at_ms": c.published_at_ms,
            } for c in self.commitments],
            "chain": [receipt.to_json_bytes().decode()
                      for receipt in self.chain],
            "query_receipts": [receipt.to_json_bytes().decode()
                               for receipt in self.query_receipts],
        }
        return json.dumps(document, indent=1).encode()

    @classmethod
    def from_json_bytes(cls, data: bytes) -> "AuditBundle":
        """Parse a bundle; any malformed document is a ReproError.

        Keys this version does not read (such as the ``checkpoint`` of
        older bundles) are ignored.
        """
        try:
            document = json.loads(data.decode())
            if not isinstance(document, dict):
                raise ReproError(
                    "malformed bundle: top level is not a JSON object")
            if document.get("version") != BUNDLE_VERSION:
                raise ReproError(
                    f"unsupported bundle version {document.get('version')}")
            return cls(
                commitments=[Commitment(
                    router_id=entry["router_id"],
                    window_index=entry["window_index"],
                    digest=Digest.from_hex(entry["digest"]),
                    record_count=entry["record_count"],
                    published_at_ms=entry["published_at_ms"],
                ) for entry in document["commitments"]],
                chain=[Receipt.from_json_bytes(blob.encode())
                       for blob in document["chain"]],
                query_receipts=[Receipt.from_json_bytes(blob.encode())
                                for blob in document["query_receipts"]],
                metadata=document.get("metadata", {}),
            )
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ReproError(
                f"malformed bundle: {type(exc).__name__}: {exc}") from exc


@dataclass(frozen=True)
class BundleReport:
    """Outcome of a standalone bundle verification."""

    rounds: int
    final_root: Digest
    final_size: int
    windows: tuple[tuple[str, int], ...]
    queries: tuple[dict[str, Any], ...]

    def summary(self) -> str:
        lines = [f"{self.rounds} aggregation rounds verified; final "
                 f"root {self.final_root.short()}… over "
                 f"{self.final_size} flows"]
        lines.append(f"windows consumed: {len(self.windows)}")
        for query in self.queries:
            lines.append(f"query OK: {query['query']!r} -> "
                         f"{query['values']}")
        return "\n".join(lines)


def verify_bundle(bundle: AuditBundle) -> BundleReport:
    """Re-verify everything in a bundle from its own contents.

    Raises a :class:`~repro.errors.ReproError` subclass on any failure:
    bad receipt, broken chain, commitment mismatch, or a query bound to
    a root outside the chain.
    """
    bulletin = BulletinBoard()
    for commitment in bundle.commitments:
        bulletin.publish(commitment)
    verifier = VerifierClient(bulletin)
    verified_chain = verifier.verify_chain(bundle.chain)

    queries: list[dict[str, Any]] = []
    for receipt in bundle.query_receipts:
        verified = verifier.verify_query_in(response_from_receipt(receipt),
                                            verified_chain)
        queries.append({"query": verified.query,
                        "values": list(verified.values),
                        "groups": [[key, list(values)] for key, values
                                   in verified.groups],
                        "round": verified.round})

    last = verified_chain[-1]
    return BundleReport(
        rounds=len(verified_chain),
        final_root=last.new_root,
        final_size=last.size,
        windows=tuple(pair for verified in verified_chain
                      for pair in verified.consumed),
        queries=tuple(queries),
    )
