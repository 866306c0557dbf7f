"""NetFlow v9 exporter endpoint.

One exporter per router: it batches records into data flowsets, refreshes
its template periodically (collectors are stateless across restarts, so
v9 exporters re-announce templates every N packets), and maintains the
per-source sequence number collectors use to detect export loss.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import ConfigurationError
from .packet import FlowSet, PacketHeader, TEMPLATE_FLOWSET_ID, encode_packet
from .records import NetFlowRecord
from .template import STANDARD_TEMPLATE, Template

DEFAULT_TEMPLATE_REFRESH = 20
DEFAULT_MAX_RECORDS_PER_PACKET = 30


class NetFlowExporter:
    """Turns record batches into v9 export packets."""

    def __init__(self, source_id: int,
                 template: Template = STANDARD_TEMPLATE,
                 template_refresh: int = DEFAULT_TEMPLATE_REFRESH,
                 max_records_per_packet: int =
                 DEFAULT_MAX_RECORDS_PER_PACKET) -> None:
        if template_refresh < 1:
            raise ConfigurationError("template_refresh must be >= 1")
        if max_records_per_packet < 1:
            raise ConfigurationError("max_records_per_packet must be >= 1")
        self.source_id = source_id
        self.template = template
        self.template_refresh = template_refresh
        self.max_records_per_packet = max_records_per_packet
        self._sequence = 0
        self._packets_since_template = template_refresh  # announce on first

    def export(self, records: Sequence[NetFlowRecord], *,
               now_ms: int = 0) -> list[bytes]:
        """Encode ``records`` into one or more v9 packets."""
        packets: list[bytes] = []
        for batch in _chunks(records, self.max_records_per_packet):
            packets.append(self._encode_one(batch, now_ms))
        return packets

    def _encode_one(self, batch: Sequence[NetFlowRecord],
                    now_ms: int) -> bytes:
        flowsets: list[FlowSet] = []
        count = 0
        if self._packets_since_template >= self.template_refresh:
            flowsets.append(FlowSet(flowset_id=TEMPLATE_FLOWSET_ID,
                                    body=self.template.encode()))
            count += 1
            self._packets_since_template = 0
        self._packets_since_template += 1
        if batch:
            body = b"".join(self.template.encode_record(r)
                            for r in batch)
            flowsets.append(FlowSet(flowset_id=self.template.template_id,
                                    body=body))
            count += len(batch)
        header = PacketHeader(
            count=count,
            sys_uptime_ms=now_ms,
            unix_secs=now_ms // 1000,
            sequence=self._sequence,
            source_id=self.source_id,
        )
        self._sequence += 1
        return encode_packet(header, flowsets)


def _chunks(items: Sequence[NetFlowRecord],
            size: int) -> Iterable[Sequence[NetFlowRecord]]:
    if not items:
        yield ()
        return
    for start in range(0, len(items), size):
        yield items[start:start + size]
