"""Signed-log baseline: integrity without confidentiality.

The obvious alternative to both TEEs and ZKPs is for routers to sign
their log windows.  That gives tamper evidence (like our hash
commitments) but *no confidentiality*: a verifier auditing a metric must
receive the raw logs to recompute it, which is precisely the disclosure
the paper's operators refuse (C2).  The class quantifies this: the bytes
a verifier must see under signatures versus under ZK proofs.

Signatures are simulated with HMAC-SHA256 (router-held keys, verifier
holds the corresponding verification secret via a trusted registry) —
the trust and disclosure structure, not the asymmetric crypto, is what
the comparison is about.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.errors import IntegrityError
from repro.netflow.records import NetFlowRecord
from repro.serialization import decode


@dataclass(frozen=True)
class SignedWindow:
    """One signed window: the raw blobs plus a signature over them."""

    router_id: str
    window_index: int
    blobs: tuple[bytes, ...]
    signature: bytes

    @property
    def disclosed_bytes(self) -> int:
        """Raw log bytes the verifier must receive (the C2 cost)."""
        return sum(len(blob) for blob in self.blobs)


class SignedLogBaseline:
    """Per-router signing keys + window sign/verify."""

    def __init__(self) -> None:
        self._keys: dict[str, bytes] = {}

    def register_router(self, router_id: str) -> None:
        if router_id not in self._keys:
            self._keys[router_id] = hashlib.sha256(
                b"router-signing-key:" + router_id.encode()).digest()

    def sign_window(self, router_id: str, window_index: int,
                    records: list[NetFlowRecord]) -> SignedWindow:
        self.register_router(router_id)
        blobs = tuple(record.to_bytes() for record in records)
        return SignedWindow(
            router_id=router_id,
            window_index=window_index,
            blobs=blobs,
            signature=self._mac(router_id, window_index, blobs),
        )

    def verify_window(self, window: SignedWindow) -> list[NetFlowRecord]:
        """Verify and return the records — note the verifier now *has*
        every raw record, unlike the ZKP path."""
        if window.router_id not in self._keys:
            raise IntegrityError(
                f"unknown router {window.router_id!r}")
        expected = self._mac(window.router_id, window.window_index,
                             window.blobs)
        if not hmac.compare_digest(window.signature, expected):
            raise IntegrityError(
                f"signature invalid for ({window.router_id!r}, "
                f"{window.window_index})")
        return [NetFlowRecord.from_wire(decode(blob))
                for blob in window.blobs]

    def _mac(self, router_id: str, window_index: int,
             blobs: tuple[bytes, ...]) -> bytes:
        mac = hmac.new(self._keys[router_id], digestmod=hashlib.sha256)
        mac.update(window_index.to_bytes(8, "big"))
        for blob in blobs:
            mac.update(len(blob).to_bytes(8, "big"))
            mac.update(blob)
        return mac.digest()
