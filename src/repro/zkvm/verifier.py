"""Receipt verification — the client-side 3 ms check.

Verification never re-executes the guest.  It checks, per receipt kind:

* **groth16 / succinct** — the constant-size seal is a deterministic
  function of the claim digest; recompute and compare.  Constant time,
  which is why the paper reports flat ≈3 ms verification at every scale.
* **composite** — recompute the segment digest chain from the claimed
  image id and per-segment cycle counts, rebuild the trace commitment,
  replay the Fiat–Shamir transcript, and check every opening and segment
  seal.

In all cases the journal is re-hashed and compared against the digest
bound in the claim, so journal tampering is always caught.
"""

from __future__ import annotations

import hmac
import time
from dataclasses import dataclass

from ..errors import (
    ImageIdMismatch,
    JournalMismatch,
    SealError,
    VerificationError,
)
from ..hashing import Digest
from ..merkle import MerkleTree
from ..obs import names as obs_names
from ..obs import runtime as obs
from .executor import Segment, segment_chain
from .prover import SEGMENT_SEAL_SIZE, derive_query_indices, \
    segment_seal_binding
from .receipt import (
    CompositeReceipt,
    ExitCode,
    Groth16Receipt,
    GROTH16_SEAL_SIZE,
    Journal,
    Receipt,
    ReceiptClaim,
    SuccinctReceipt,
    SUCCINCT_SEAL_SIZE,
    expand_seal,
    groth16_binding,
    succinct_binding,
)

# Modeled constant client-side verification latency (paper §6: "3 ms"),
# the one copy of the figure (``costmodel.VERIFY_SECONDS`` is this value).
MODELED_VERIFY_SECONDS = 0.003


@dataclass(frozen=True)
class VerifiedReceipt:
    """Outcome of a successful verification."""

    claim: ReceiptClaim
    journal: Journal
    modeled_seconds: float


class Verifier:
    """Verifies receipts against an expected guest image id."""

    def verify(self, receipt: Receipt, image_id: Digest) -> VerifiedReceipt:
        """Fully verify an *unconditional* receipt.

        Raises a :class:`~repro.errors.VerificationError` subclass on any
        failure; returns the verified claim and journal on success.
        """
        kind = _inner_kind(receipt)
        start = time.perf_counter()
        with obs.tracer().span(obs_names.SPAN_VERIFY,
                               kind=kind) as span:
            try:
                if receipt.claim.assumptions:
                    raise VerificationError(
                        "receipt is conditional on unresolved "
                        "assumptions; resolve them first "
                        "(repro.zkvm.recursion.resolve)"
                    )
                verified = self.verify_conditional(receipt, image_id)
            except Exception:
                obs.registry().counter(
                    obs_names.VERIFIER_RECEIPTS, ("kind", "outcome"),
                ).inc(kind=kind, outcome="fail")
                raise
            span.set("segments", receipt.claim.segment_count)
        registry = obs.registry()
        registry.counter(obs_names.VERIFIER_RECEIPTS,
                         ("kind", "outcome")).inc(kind=kind,
                                                  outcome="ok")
        registry.histogram(obs_names.VERIFIER_SECONDS).observe(
            time.perf_counter() - start)
        return verified

    def verify_conditional(self, receipt: Receipt,
                           image_id: Digest) -> VerifiedReceipt:
        """Verify a receipt, allowing unresolved assumptions.

        Used internally by assumption resolution; external callers should
        use :meth:`verify`.
        """
        claim = receipt.claim
        if claim.image_id != image_id:
            raise ImageIdMismatch(
                f"receipt was produced by image {claim.image_id.short()}..., "
                f"expected {image_id.short()}..."
            )
        if claim.exit_code is not ExitCode.HALTED:
            raise VerificationError(
                f"receipt exit code is {claim.exit_code.name}, not HALTED"
            )
        if receipt.journal.digest != claim.journal_digest:
            raise JournalMismatch(
                "journal bytes do not hash to the digest bound in the claim"
            )
        inner = receipt.inner
        if isinstance(inner, Groth16Receipt):
            self._check_expanded_seal(
                inner.seal, groth16_binding(claim.digest()),
                GROTH16_SEAL_SIZE, "groth16")
            modeled = MODELED_VERIFY_SECONDS
        elif isinstance(inner, SuccinctReceipt):
            self._check_expanded_seal(
                inner.seal, succinct_binding(claim.digest()),
                SUCCINCT_SEAL_SIZE, "succinct")
            modeled = MODELED_VERIFY_SECONDS
        elif isinstance(inner, CompositeReceipt):
            self._verify_composite(inner, claim)
            modeled = MODELED_VERIFY_SECONDS * max(claim.segment_count, 1)
        else:
            raise VerificationError(
                f"unknown inner receipt type {type(inner).__name__}"
            )
        return VerifiedReceipt(claim=claim, journal=receipt.journal,
                               modeled_seconds=modeled)

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _check_expanded_seal(seal: bytes, binding: Digest, size: int,
                             kind: str) -> None:
        expected = expand_seal(binding, size)
        if not hmac.compare_digest(seal, expected):
            raise SealError(f"{kind} seal does not verify against the claim")

    def _verify_composite(self, inner: CompositeReceipt,
                          claim: ReceiptClaim) -> None:
        if len(inner.segments) != claim.segment_count:
            raise SealError(
                f"composite receipt has {len(inner.segments)} segments, "
                f"claim states {claim.segment_count}"
            )
        if sum(s.cycle_count for s in inner.segments) != claim.total_cycles:
            raise SealError("segment cycle counts do not sum to the claim's "
                            "total cycles")
        # Recompute the segment digest chain from public data.
        stated = tuple(
            Segment(index=s.index, cycle_count=s.cycle_count, po2=s.po2,
                    digest=s.segment_digest)
            for s in inner.segments
        )
        expected_chain = segment_chain(claim.image_id, stated)
        for segment, expected in zip(inner.segments, expected_chain):
            if segment.segment_digest != expected:
                raise SealError(
                    f"segment {segment.index} digest breaks the chain"
                )
            self._check_expanded_seal(
                segment.seal, segment_seal_binding(segment.segment_digest),
                SEGMENT_SEAL_SIZE, f"segment {segment.index}")
        # Rebuild the trace commitment and replay Fiat–Shamir.
        tree = MerkleTree(s.segment_digest for s in inner.segments)
        if tree.root != inner.trace_root:
            raise SealError("trace commitment root mismatch")
        indices = derive_query_indices(claim, inner.trace_root,
                                       len(inner.segments),
                                       num_queries=16)
        if tuple(sorted(set(indices))) != inner.openings.indices:
            raise SealError("composite openings do not match the "
                            "Fiat-Shamir challenge indices")
        inner.openings.verify(inner.trace_root)


def _inner_kind(receipt: Receipt) -> str:
    inner = receipt.inner
    if isinstance(inner, Groth16Receipt):
        return "groth16"
    if isinstance(inner, SuccinctReceipt):
        return "succinct"
    if isinstance(inner, CompositeReceipt):
        return "composite"
    return type(inner).__name__.lower()


_DEFAULT_VERIFIER = Verifier()


def verify_receipt(receipt: Receipt, image_id: Digest) -> VerifiedReceipt:
    """Module-level convenience: verify with the default verifier."""
    return _DEFAULT_VERIFIER.verify(receipt, image_id)
