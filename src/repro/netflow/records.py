"""Flow keys and NetFlow records — the paper's *RLogs*.

A :class:`FlowKey` is the classic 5-tuple; a :class:`NetFlowRecord` is one
router's observation of a flow over an export interval: the v9 counter
fields (packets, octets, switched timestamps, TCP flags, interfaces) plus
the performance fields the paper's queries aggregate — ``hop_count`` (the
§6 example query computes ``SUM(hop_count)``), loss counters for SLA
packet-delivery checks, and RTT/jitter measurements for the SLA and
neutrality scenarios (derived by the simulator from bidirectional flow
timing, as passive RTT estimation would).
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass, field, replace
from typing import Any

from ..errors import ConfigurationError
from ..hashing import TAG_RLOG, Digest, tagged_hash
from ..serialization import encode

# (saddr, daddr, sport, dport, proto), network order: the packed key.
_KEY_LAYOUT = struct.Struct(">IIHHB")
_OCTETS = tuple(str(octet) for octet in range(256))


def _addr_to_int(addr: str) -> int:
    try:
        return int(ipaddress.IPv4Address(addr))
    except ipaddress.AddressValueError as exc:
        raise ConfigurationError(f"invalid IPv4 address {addr!r}") from exc


def _int_to_addr(value: int) -> str:
    return ".".join((_OCTETS[value >> 24], _OCTETS[(value >> 16) & 0xFF],
                     _OCTETS[(value >> 8) & 0xFF], _OCTETS[value & 0xFF]))


@dataclass(frozen=True, order=True)
class FlowKey:
    """The 5-tuple identifying a flow (Algorithm 1's ``FlowID``).

    The 13-byte packing is computed once, when the key is built, and
    kept beside the fields (outside equality, hashing and ordering):
    every Merkle lookup and payload encode of a flow reads it.
    """

    src_addr: str
    dst_addr: str
    src_port: int
    dst_port: int
    protocol: int

    def __post_init__(self) -> None:
        src = _addr_to_int(self.src_addr)
        dst = _addr_to_int(self.dst_addr)
        for name in ("src_port", "dst_port"):
            port = getattr(self, name)
            if not 0 <= port <= 0xFFFF:
                raise ConfigurationError(f"{name}={port} out of range")
        if not 0 <= self.protocol <= 0xFF:
            raise ConfigurationError(
                f"protocol={self.protocol} out of range")
        object.__setattr__(self, "_packed", _KEY_LAYOUT.pack(
            src, dst, self.src_port, self.dst_port, self.protocol))

    def pack(self) -> bytes:
        """13-byte canonical packing (saddr, daddr, sport, dport, proto)."""
        return self._packed

    @classmethod
    def unpack(cls, data: bytes) -> "FlowKey":
        """The key packed in ``data``.  Every 13-byte string is a valid
        key, so the fields are set straight from it, with no parse."""
        if len(data) != 13:
            raise ConfigurationError(
                f"packed flow key must be 13 bytes, got {len(data)}")
        saddr, daddr, sport, dport, proto = _KEY_LAYOUT.unpack(data)
        key = object.__new__(cls)
        key.__dict__.update(src_addr=_int_to_addr(saddr),
                            dst_addr=_int_to_addr(daddr), src_port=sport,
                            dst_port=dport, protocol=proto,
                            _packed=bytes(data))
        return key

    def to_bytes_key(self) -> bytes:
        """Merkle-map key bytes (see :class:`repro.merkle.MerkleMap`)."""
        return self._packed

    def reversed(self) -> "FlowKey":
        """The reverse direction of this flow."""
        return FlowKey(src_addr=self.dst_addr, dst_addr=self.src_addr,
                       src_port=self.dst_port, dst_port=self.src_port,
                       protocol=self.protocol)

    def __str__(self) -> str:
        return (f"{self.src_addr}:{self.src_port}->"
                f"{self.dst_addr}:{self.dst_port}/{self.protocol}")


# Protocol numbers used by the traffic generator.
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_ICMP = 1


@dataclass(frozen=True)
class NetFlowRecord:
    """One router's observation of a flow over an export interval."""

    router_id: str
    key: FlowKey
    packets: int
    octets: int
    first_switched_ms: int
    last_switched_ms: int
    tcp_flags: int = 0
    input_if: int = 0
    output_if: int = 0
    next_hop: str = "0.0.0.0"
    hop_count: int = 1
    lost_packets: int = 0
    rtt_us: int = 0
    jitter_us: int = 0
    extra: dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.packets < 0 or self.octets < 0:
            raise ConfigurationError("counters must be non-negative")
        if self.last_switched_ms < self.first_switched_ms:
            raise ConfigurationError(
                "last_switched_ms precedes first_switched_ms")
        if self.lost_packets < 0:
            raise ConfigurationError("lost_packets must be non-negative")

    # -- derived metrics ------------------------------------------------------

    @property
    def duration_ms(self) -> int:
        return self.last_switched_ms - self.first_switched_ms

    @property
    def loss_rate(self) -> float:
        """Fraction of offered packets lost downstream of this router."""
        offered = self.packets + self.lost_packets
        return self.lost_packets / offered if offered else 0.0

    @property
    def throughput_bps(self) -> float:
        """Mean goodput across the active interval, bits/second."""
        duration_s = self.duration_ms / 1000.0
        if duration_s <= 0:
            return 0.0
        return self.octets * 8 / duration_s

    # -- canonical form -------------------------------------------------------

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {
            "router_id": self.router_id,
            "key": self.key.pack(),
            "packets": self.packets,
            "octets": self.octets,
            "first_switched_ms": self.first_switched_ms,
            "last_switched_ms": self.last_switched_ms,
            "tcp_flags": self.tcp_flags,
            "input_if": self.input_if,
            "output_if": self.output_if,
            "next_hop": self.next_hop,
            "hop_count": self.hop_count,
            "lost_packets": self.lost_packets,
            "rtt_us": self.rtt_us,
            "jitter_us": self.jitter_us,
        }
        return wire

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "NetFlowRecord":
        from ..errors import SerializationError
        try:
            kwargs = dict(wire)
            kwargs["key"] = FlowKey.unpack(kwargs["key"])
            return cls(**kwargs)
        except (TypeError, KeyError, ConfigurationError) as exc:
            raise SerializationError(
                f"malformed NetFlowRecord wire: {exc}") from exc

    def to_bytes(self) -> bytes:
        """Canonical bytes — what routers hash into their commitments."""
        return encode(self.to_wire())

    def digest(self) -> Digest:
        return tagged_hash(TAG_RLOG, self.to_bytes())

    def with_updates(self, **changes: Any) -> "NetFlowRecord":
        """A copy with fields replaced (used by tamper injection)."""
        return replace(self, **changes)
