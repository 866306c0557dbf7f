"""The ``FlowKey`` packing ``repro.netflow.records`` shipped before the
key cached its bytes: both dotted quads parsed by ``ipaddress`` on
every ``pack()``."""

from __future__ import annotations

import ipaddress
import struct
from typing import Any


def pack(key: Any) -> bytes:
    """13-byte canonical packing (saddr, daddr, sport, dport, proto)."""
    return struct.pack(
        ">IIHHB",
        int(ipaddress.IPv4Address(key.src_addr)),
        int(ipaddress.IPv4Address(key.dst_addr)),
        key.src_port,
        key.dst_port,
        key.protocol,
    )
