"""CLog entries and the authenticated CLog state (paper §4, Figure 2).

A :class:`CLogEntry` is the per-flow aggregate row; :class:`CLogState` is
the provider-side authoritative dataset — entries plus the Merkle map
committing to them.  Entry merge logic is pure-dict-friendly so the zkVM
guest executes the exact same code the host uses.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Iterable

from ..errors import ConfigurationError, StorageError
from ..hashing import Digest
from ..merkle import MerkleMap
from ..merkle.hasher import MerkleHasher
from ..netflow.records import FlowKey, NetFlowRecord
from ..serialization import DictLayout, decode
from .policy import AggregationPolicy, POLICY_FIELDS


@dataclass(frozen=True)
class CLogEntry:
    """One per-flow row of the aggregated dataset."""

    key: FlowKey
    packets: int
    octets: int
    lost_packets: int
    hop_count: int
    first_ms: int
    last_ms: int
    rtt_sum_us: int
    jitter_sum_us: int
    record_count: int
    routers: tuple[str, ...]  # sorted distinct vantage points

    # -- construction ------------------------------------------------------------

    @classmethod
    def fresh(cls, record: NetFlowRecord) -> "CLogEntry":
        """The entry created when a flow is first seen (Alg. 1 line 21)."""
        return cls(
            key=record.key,
            packets=record.packets,
            octets=record.octets,
            lost_packets=record.lost_packets,
            hop_count=record.hop_count,
            first_ms=record.first_switched_ms,
            last_ms=record.last_switched_ms,
            rtt_sum_us=record.rtt_us,
            jitter_sum_us=record.jitter_us,
            record_count=1,
            routers=(record.router_id,),
        )

    def merge(self, record: NetFlowRecord,
              policy: AggregationPolicy) -> "CLogEntry":
        """Aggregate one more observation (Alg. 1 line 19)."""
        if record.key != self.key:
            raise ConfigurationError(
                f"cannot merge record for {record.key} into entry for "
                f"{self.key}")
        policy_values = {
            field: policy.op_for(field).combine(
                getattr(self, field), getattr(record, _RECORD_FIELD[field]))
            for field in POLICY_FIELDS
        }
        routers = self.routers if record.router_id in self.routers \
            else tuple(sorted((*self.routers, record.router_id)))
        return CLogEntry(
            key=self.key,
            first_ms=min(self.first_ms, record.first_switched_ms),
            last_ms=max(self.last_ms, record.last_switched_ms),
            rtt_sum_us=self.rtt_sum_us + record.rtt_us,
            jitter_sum_us=self.jitter_sum_us + record.jitter_us,
            record_count=self.record_count + 1,
            routers=routers,
            **policy_values,
        )

    def combine(self, other: "CLogEntry",
                policy: AggregationPolicy) -> "CLogEntry":
        """Merge two *partial* aggregates for the same flow.

        Used by the parallel-aggregation merge guest (§7).  Requires an
        associative policy — ``LAST`` depends on observation order and
        cannot be combined across partitions.
        """
        if other.key != self.key:
            raise ConfigurationError(
                f"cannot combine entries for {self.key} and {other.key}")
        from .policy import AggOp
        policy_values = {}
        for field in POLICY_FIELDS:
            op = policy.op_for(field)
            if op is AggOp.LAST:
                raise ConfigurationError(
                    f"policy op LAST on {field!r} is not associative; "
                    "parallel aggregation is unavailable")
            policy_values[field] = op.combine(getattr(self, field),
                                              getattr(other, field))
        return CLogEntry(
            key=self.key,
            first_ms=min(self.first_ms, other.first_ms),
            last_ms=max(self.last_ms, other.last_ms),
            rtt_sum_us=self.rtt_sum_us + other.rtt_sum_us,
            jitter_sum_us=self.jitter_sum_us + other.jitter_sum_us,
            record_count=self.record_count + other.record_count,
            routers=tuple(sorted(set(self.routers) | set(other.routers))),
            **policy_values,
        )

    # -- canonical payload ---------------------------------------------------------

    def to_wire(self) -> dict[str, Any]:
        return {
            "key": self.key.pack(),
            "packets": self.packets,
            "octets": self.octets,
            "lost_packets": self.lost_packets,
            "hop_count": self.hop_count,
            "first_ms": self.first_ms,
            "last_ms": self.last_ms,
            "rtt_sum_us": self.rtt_sum_us,
            "jitter_sum_us": self.jitter_sum_us,
            "record_count": self.record_count,
            "routers": list(self.routers),
        }

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "CLogEntry":
        from ..errors import SerializationError
        try:
            kwargs = dict(wire)
            kwargs["key"] = FlowKey.unpack(kwargs["key"])
            kwargs["routers"] = tuple(kwargs["routers"])
            return cls(**kwargs)
        except (TypeError, KeyError, ConfigurationError) as exc:
            raise SerializationError(
                f"malformed CLogEntry wire: {exc}") from exc

    def to_payload(self) -> bytes:
        """Canonical leaf payload bytes: ``encode(self.to_wire())``,
        written straight from the fields."""
        return _PAYLOAD.encode((
            self.first_ms, self.hop_count, self.jitter_sum_us,
            self.key.pack(), self.last_ms, self.lost_packets, self.octets,
            self.packets, self.record_count, self.routers, self.rtt_sum_us,
        ))

    @classmethod
    def from_payload(cls, payload: bytes) -> "CLogEntry":
        wire = decode(payload)
        if not isinstance(wire, dict):
            raise StorageError("CLog payload does not decode to a dict")
        return cls.from_wire(wire)

    # -- query schema -----------------------------------------------------------------

    def query_view(self) -> dict[str, Any]:
        """The row the query evaluator sees (schema in
        :mod:`repro.query.fields`)."""
        return entry_view_from_wire(self.to_wire())


# The payload's wire keys in codec order; ``to_payload`` passes the
# fields in the same order.
_PAYLOAD = DictLayout((
    "first_ms", "hop_count", "jitter_sum_us", "key", "last_ms",
    "lost_packets", "octets", "packets", "record_count", "routers",
    "rtt_sum_us",
))

# CLog field -> NetFlowRecord attribute for policy-governed counters.
_RECORD_FIELD = {
    "packets": "packets",
    "octets": "octets",
    "lost_packets": "lost_packets",
    "hop_count": "hop_count",
}


def entry_view_from_wire(wire: dict[str, Any]) -> dict[str, Any]:
    """Query view straight from a wire dict.

    This is what the zkVM guest uses — it avoids constructing dataclass
    instances in-guest and keeps the view derivation in exactly one
    place for host and guest.
    """
    key = FlowKey.unpack(wire["key"]) if isinstance(wire["key"], bytes) \
        else wire["key"]
    count = wire["record_count"]
    duration_ms = wire["last_ms"] - wire["first_ms"]
    octets = key.src_addr.split(".")
    return {
        "src_ip": key.src_addr,
        "dst_ip": key.dst_addr,
        "src_net16": f"{octets[0]}.{octets[1]}.0.0/16",
        "src_port": key.src_port,
        "dst_port": key.dst_port,
        "protocol": key.protocol,
        "packets": wire["packets"],
        "octets": wire["octets"],
        "lost_packets": wire["lost_packets"],
        "hop_count": wire["hop_count"],
        "record_count": count,
        "router_count": len(wire["routers"]),
        "first_ms": wire["first_ms"],
        "last_ms": wire["last_ms"],
        "rtt_avg_us": wire["rtt_sum_us"] / count if count else 0.0,
        "jitter_avg_us": wire["jitter_sum_us"] / count if count else 0.0,
        "loss_rate": (wire["lost_packets"]
                      / (wire["packets"] + wire["lost_packets"])
                      if wire["packets"] + wire["lost_packets"] else 0.0),
        "throughput_bps": (wire["octets"] * 8 / (duration_ms / 1000.0)
                           if duration_ms > 0 else 0.0),
    }


class CLogState:
    """The provider's authoritative CLog dataset + Merkle commitment."""

    def __init__(self, hasher: MerkleHasher | None = None) -> None:
        self._entries: dict[FlowKey, CLogEntry] = {}
        self._map = MerkleMap(hasher=hasher)
        self.round = 0

    # -- inspection ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: FlowKey) -> bool:
        return key in self._entries

    @property
    def root(self) -> Digest:
        return self._map.root

    @property
    def depth(self) -> int:
        return self._map.depth

    @property
    def merkle_map(self) -> MerkleMap:
        return self._map

    def get(self, key: FlowKey) -> CLogEntry | None:
        return self._entries.get(key)

    def entries_in_slot_order(self) -> list[CLogEntry]:
        # Slots are append-only and an update keeps its dict position,
        # so insertion order is slot order.
        return list(self._entries.values())

    def entry_views(self) -> list[dict[str, Any]]:
        return [e.query_view() for e in self.entries_in_slot_order()]

    def entry_frames(self, start: int = 0,
                     stop: int | None = None) -> list[dict[str, bytes]]:
        """The guest input frame of every entry in slots
        ``[start, stop)``: the packed key and the payload bytes the
        Merkle map committed, with nothing re-encoded."""
        return [{"key": key, "payload": payload}
                for key, payload in self._map.slot_items(start, stop)]

    # -- mutation -------------------------------------------------------------------

    def set_entry(self, entry: CLogEntry) -> int:
        """Insert or update one entry; returns its leaf slot."""
        self._entries[entry.key] = entry
        return self._map.set(entry.key, entry.to_payload())

    def set_entries(self, entries: Iterable[CLogEntry]) -> None:
        """:meth:`set_entry` for many distinct flows, with each touched
        Merkle node hashed once rather than once per entry."""
        payloads: dict[FlowKey, bytes] = {}
        for entry in entries:
            self._entries[entry.key] = entry
            payloads[entry.key] = entry.to_payload()
        self._map.update_many(payloads)

    def clone(self) -> "CLogState":
        """An independent copy: the entry dict and the Merkle map's
        slots, payloads and tree levels are copied as they stand, so
        the cost is a few list copies whatever the state holds and no
        entry is re-encoded or re-hashed."""
        other = copy.copy(self)
        other._entries = dict(self._entries)
        other._map = self._map.copy()
        return other
