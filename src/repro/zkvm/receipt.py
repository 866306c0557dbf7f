"""Receipts: the proof objects produced by the zkVM prover.

Mirrors RISC Zero's receipt hierarchy:

* :class:`CompositeReceipt` — one STARK-style receipt per execution
  segment plus Fiat–Shamir openings into the trace commitment; size grows
  with execution length.
* :class:`SuccinctReceipt` — segments recursively lifted/joined into one
  constant-size receipt.
* :class:`Groth16Receipt` — the succinct receipt wrapped into a constant
  **256-byte** seal, the "Proof (bytes)" column of the paper's Table 1.

Every receipt carries a :class:`ReceiptClaim` — the public statement
(image id, input digest, journal digest, exit code, assumptions) — and a
:class:`Journal` of public outputs.  JSON serialization hex-encodes the
journal, which is why serialized receipts weigh ≈ 2× the journal, matching
Table 1's Receipt column.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..errors import SerializationError
from ..hashing import (
    TAG_ASSUMPTION,
    TAG_CLAIM,
    TAG_JOURNAL,
    TAG_SEAL,
    Digest,
    hash_many,
    tagged_hash,
)
from ..merkle.proof import MultiProof
from ..serialization import decode_stream

# Version tag mixed into every seal, standing in for RISC Zero's verifier
# parameter digest (circuit version / control root).
VERIFIER_PARAMETERS = tagged_hash(TAG_SEAL, b"repro-zkvm-verifier-v1")

GROTH16_SEAL_SIZE = 256
SUCCINCT_SEAL_SIZE = 2048


class ExitCode(enum.IntEnum):
    """Terminal state of a guest execution."""

    HALTED = 0
    PAUSED = 1
    ABORTED = 2


class ReceiptKind(str, enum.Enum):
    COMPOSITE = "composite"
    SUCCINCT = "succinct"
    GROTH16 = "groth16"


class Journal:
    """Public outputs: concatenated canonical encodings of committed values."""

    __slots__ = ("_data",)

    def __init__(self, data: bytes = b"") -> None:
        self._data = bytes(data)

    @property
    def data(self) -> bytes:
        return self._data

    @property
    def size(self) -> int:
        return len(self._data)

    @property
    def digest(self) -> Digest:
        return tagged_hash(TAG_JOURNAL, self._data)

    def values(self) -> Iterator[Any]:
        """Decode the committed values back out of the journal."""
        return decode_stream(self._data)

    def decode(self) -> list[Any]:
        return list(self.values())

    def decode_one(self) -> Any:
        values = self.decode()
        if len(values) != 1:
            raise SerializationError(
                f"journal holds {len(values)} values, expected exactly 1"
            )
        return values[0]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Journal):
            return self._data == other._data
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        return f"Journal({len(self._data)} bytes, {self.digest.short()}...)"


@dataclass(frozen=True)
class Assumption:
    """An unresolved in-guest ``env.verify`` of another receipt's claim."""

    claim_digest: Digest
    image_id: Digest

    @property
    def digest(self) -> Digest:
        return tagged_hash(TAG_ASSUMPTION, self.claim_digest.raw,
                           self.image_id.raw)

    def to_wire(self) -> dict[str, Any]:
        return {"claim_digest": self.claim_digest, "image_id": self.image_id}

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "Assumption":
        return cls(claim_digest=wire["claim_digest"],
                   image_id=wire["image_id"])


@dataclass(frozen=True)
class ReceiptClaim:
    """The public statement a receipt attests to."""

    image_id: Digest
    input_digest: Digest
    journal_digest: Digest
    exit_code: ExitCode
    total_cycles: int
    segment_count: int
    assumptions: tuple[Assumption, ...] = ()

    @property
    def assumptions_digest(self) -> Digest:
        return hash_many(TAG_ASSUMPTION,
                         (a.digest.raw for a in self.assumptions))

    def digest(self) -> Digest:
        return tagged_hash(
            TAG_CLAIM,
            self.image_id.raw,
            self.input_digest.raw,
            self.journal_digest.raw,
            int(self.exit_code).to_bytes(4, "big"),
            self.total_cycles.to_bytes(8, "big"),
            self.segment_count.to_bytes(4, "big"),
            self.assumptions_digest.raw,
        )

    def to_wire(self) -> dict[str, Any]:
        return {
            "image_id": self.image_id,
            "input_digest": self.input_digest,
            "journal_digest": self.journal_digest,
            "exit_code": int(self.exit_code),
            "total_cycles": self.total_cycles,
            "segment_count": self.segment_count,
            "assumptions": [a.to_wire() for a in self.assumptions],
        }

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "ReceiptClaim":
        return cls(
            image_id=wire["image_id"],
            input_digest=wire["input_digest"],
            journal_digest=wire["journal_digest"],
            exit_code=ExitCode(wire["exit_code"]),
            total_cycles=wire["total_cycles"],
            segment_count=wire["segment_count"],
            assumptions=tuple(Assumption.from_wire(a)
                              for a in wire["assumptions"]),
        )


def expand_seal(binding: Digest, size: int) -> bytes:
    """Deterministically expand a binding digest into a ``size``-byte seal.

    Stands in for the SNARK proof bytes: each 32-byte lane is
    ``H(tag, binding, lane_index)``, so the seal is a pure function of the
    claim binding and any claim change invalidates it.  (Simulated
    soundness — see the package docstring and DESIGN.md §6.)
    """
    lanes = []
    for lane in range((size + 31) // 32):
        lanes.append(tagged_hash(TAG_SEAL, binding.raw,
                                 lane.to_bytes(4, "big")).raw)
    return b"".join(lanes)[:size]


def groth16_binding(claim_digest: Digest) -> Digest:
    return tagged_hash(TAG_SEAL, b"groth16", VERIFIER_PARAMETERS.raw,
                       claim_digest.raw)


def succinct_binding(claim_digest: Digest) -> Digest:
    return tagged_hash(TAG_SEAL, b"succinct", VERIFIER_PARAMETERS.raw,
                       claim_digest.raw)


@dataclass(frozen=True)
class SegmentReceipt:
    """Proof for one 2^po2-cycle execution segment."""

    index: int
    cycle_count: int
    po2: int
    segment_digest: Digest
    seal: bytes

    def to_wire(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "cycle_count": self.cycle_count,
            "po2": self.po2,
            "segment_digest": self.segment_digest,
            "seal": self.seal,
        }

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "SegmentReceipt":
        return cls(index=wire["index"], cycle_count=wire["cycle_count"],
                   po2=wire["po2"],
                   segment_digest=wire["segment_digest"], seal=wire["seal"])


@dataclass(frozen=True)
class CompositeReceipt:
    """Per-segment receipts plus Fiat–Shamir openings into the trace root."""

    segments: tuple[SegmentReceipt, ...]
    trace_root: Digest
    openings: MultiProof

    kind = ReceiptKind.COMPOSITE

    @property
    def seal_bytes(self) -> bytes:
        return b"".join(s.seal for s in self.segments)

    def to_wire(self) -> dict[str, Any]:
        return {
            "segments": [s.to_wire() for s in self.segments],
            "trace_root": self.trace_root,
            "openings": self.openings.to_wire(),
        }

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "CompositeReceipt":
        return cls(
            segments=tuple(SegmentReceipt.from_wire(s)
                           for s in wire["segments"]),
            trace_root=wire["trace_root"],
            openings=MultiProof.from_wire(wire["openings"]),
        )


@dataclass(frozen=True)
class SuccinctReceipt:
    """Recursively joined constant-size receipt."""

    seal: bytes
    kind = ReceiptKind.SUCCINCT

    @property
    def seal_bytes(self) -> bytes:
        return self.seal

    def to_wire(self) -> dict[str, Any]:
        return {"seal": self.seal}

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "SuccinctReceipt":
        return cls(seal=wire["seal"])


@dataclass(frozen=True)
class Groth16Receipt:
    """The 256-byte SNARK wrap — Table 1's constant "Proof" column."""

    seal: bytes
    kind = ReceiptKind.GROTH16

    def __post_init__(self) -> None:
        if len(self.seal) != GROTH16_SEAL_SIZE:
            raise SerializationError(
                f"groth16 seal must be {GROTH16_SEAL_SIZE} bytes, "
                f"got {len(self.seal)}"
            )

    @property
    def seal_bytes(self) -> bytes:
        return self.seal

    def to_wire(self) -> dict[str, Any]:
        return {"seal": self.seal}

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "Groth16Receipt":
        return cls(seal=wire["seal"])


_INNER_TYPES = {
    ReceiptKind.COMPOSITE: CompositeReceipt,
    ReceiptKind.SUCCINCT: SuccinctReceipt,
    ReceiptKind.GROTH16: Groth16Receipt,
}


@dataclass(frozen=True)
class Receipt:
    """A complete proof object: inner seal + journal + claim."""

    inner: CompositeReceipt | SuccinctReceipt | Groth16Receipt
    journal: Journal
    claim: ReceiptClaim
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def kind(self) -> ReceiptKind:
        return self.inner.kind

    @property
    def claim_digest(self) -> Digest:
        return self.claim.digest()

    # -- sizes (Table 1 columns) --------------------------------------------

    @property
    def seal_size(self) -> int:
        """"Proof (bytes)": size of the cryptographic seal alone."""
        return len(self.inner.seal_bytes)

    @property
    def journal_size(self) -> int:
        """"Journal": size of the public outputs."""
        return self.journal.size

    @property
    def receipt_size(self) -> int:
        """"Receipt": size of the full serialized receipt (JSON form)."""
        return len(self.to_json_bytes())

    # -- serialization ---------------------------------------------------------

    def to_wire(self) -> dict[str, Any]:
        return {
            "kind": self.kind.value,
            "inner": self.inner.to_wire(),
            "journal": self.journal.data,
            "claim": self.claim.to_wire(),
        }

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "Receipt":
        kind = ReceiptKind(wire["kind"])
        inner = _INNER_TYPES[kind].from_wire(wire["inner"])
        return cls(inner=inner, journal=Journal(wire["journal"]),
                   claim=ReceiptClaim.from_wire(wire["claim"]))

    def to_json_bytes(self) -> bytes:
        """Portable JSON form (hex-encoded binary fields).

        This is the interchange format a client downloads, and the size
        reported in Table 1's "Receipt" column: hex-encoding the journal
        is what gives the ≈ 2× journal→receipt ratio the paper observed.
        """
        return json.dumps(_jsonify(self.to_wire()),
                          separators=(",", ":"), sort_keys=True).encode()

    @classmethod
    def from_json_bytes(cls, data: bytes) -> "Receipt":
        return cls.from_wire(_unjsonify(json.loads(data.decode())))

    def __repr__(self) -> str:
        return (f"Receipt(kind={self.kind.value}, "
                f"journal={self.journal.size}B, seal={self.seal_size}B, "
                f"claim={self.claim_digest.short()}...)")


def _jsonify(value: Any) -> Any:
    if isinstance(value, Digest):
        return {"$digest": value.hex()}
    if isinstance(value, (bytes, bytearray)):
        return {"$bytes": bytes(value).hex()}
    if isinstance(value, list):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


def _unjsonify(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value.keys()) == {"$digest"}:
            return Digest.from_hex(value["$digest"])
        if set(value.keys()) == {"$bytes"}:
            return bytes.fromhex(value["$bytes"])
        return {k: _unjsonify(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_unjsonify(v) for v in value]
    return value
