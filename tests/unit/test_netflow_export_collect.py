"""Unit tests for the exporter/collector pair."""

import pytest

from repro.errors import ConfigurationError
from repro.netflow import NetFlowCollector, NetFlowExporter
from repro.netflow.packet import decode_packet

from ..conftest import make_record


def records(n: int):
    return [make_record(sport=1000 + i, packets=10 + i)
            for i in range(n)]


class TestExporter:
    def test_template_announced_on_first_packet(self):
        exporter = NetFlowExporter(source_id=1)
        packets = exporter.export(records(2))
        _, flowsets = decode_packet(packets[0])
        assert flowsets[0].is_template
        assert flowsets[1].is_data

    def test_template_refresh_cycle(self):
        exporter = NetFlowExporter(source_id=1, template_refresh=3)
        template_counts = 0
        for _ in range(7):
            for packet in exporter.export(records(1)):
                _, flowsets = decode_packet(packet)
                template_counts += sum(f.is_template for f in flowsets)
        assert template_counts == 3  # packets 1, 4, 7

    def test_batching_respects_max_records(self):
        exporter = NetFlowExporter(source_id=1, max_records_per_packet=5)
        packets = exporter.export(records(12))
        assert len(packets) == 3

    def test_sequence_increments_per_packet(self):
        exporter = NetFlowExporter(source_id=1, max_records_per_packet=2)
        packets = exporter.export(records(6))
        assert [decode_packet(packet)[0].sequence
                for packet in packets] == [0, 1, 2]

    def test_empty_batch_still_emits_packet(self):
        exporter = NetFlowExporter(source_id=1)
        packets = exporter.export([])
        assert len(packets) == 1  # template-only packet

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            NetFlowExporter(source_id=1, template_refresh=0)
        with pytest.raises(ConfigurationError):
            NetFlowExporter(source_id=1, max_records_per_packet=0)


class TestCollector:
    def test_end_to_end_roundtrip(self):
        original = records(25)
        exporter = NetFlowExporter(source_id=9,
                                   max_records_per_packet=10)
        collector = NetFlowCollector()
        received = []
        for packet in exporter.export(original):
            received.extend(collector.ingest(packet, router_id="r1"))
        assert len(received) == len(original)
        for sent, got in zip(original, received):
            assert got.key == sent.key
            assert got.packets == sent.packets
            assert got.router_id == "r1"

    def test_data_before_template_is_buffered(self):
        exporter = NetFlowExporter(source_id=9)
        packets = exporter.export(records(3))
        # Split the template+data packet: feed a data-only replay first.
        from repro.netflow.packet import (FlowSet, PacketHeader,
                                          encode_packet)
        _, flowsets = decode_packet(packets[0])
        data_only = encode_packet(
            PacketHeader(count=3, sys_uptime_ms=0, unix_secs=0,
                         sequence=0, source_id=9),
            [f for f in flowsets if f.is_data])
        template_only = encode_packet(
            PacketHeader(count=1, sys_uptime_ms=0, unix_secs=0,
                         sequence=1, source_id=9),
            [f for f in flowsets if f.is_template])
        collector = NetFlowCollector()
        assert collector.ingest(data_only) == []
        assert collector.stats.buffered_flowsets == 1
        drained = collector.ingest(template_only)
        assert len(drained) == 3

    def test_sequence_gap_detection(self):
        exporter = NetFlowExporter(source_id=9,
                                   max_records_per_packet=1)
        packets = exporter.export(records(4))
        collector = NetFlowCollector()
        collector.ingest(packets[0])
        collector.ingest(packets[1])
        collector.ingest(packets[3])  # skip one
        assert collector.stats.sequence_gaps == 1

    def test_sources_have_independent_templates(self):
        exporter_a = NetFlowExporter(source_id=1)
        exporter_b = NetFlowExporter(source_id=2)
        collector = NetFlowCollector()
        got_a = []
        for packet in exporter_a.export(records(2)):
            got_a.extend(collector.ingest(packet, router_id="a"))
        assert len(got_a) == 2
        # Source 2's data can't parse with source 1's template.
        from repro.netflow.packet import (FlowSet, PacketHeader,
                                          encode_packet)
        _, flowsets = decode_packet(exporter_b.export(records(2))[0])
        data_only = encode_packet(
            PacketHeader(count=2, sys_uptime_ms=0, unix_secs=0,
                         sequence=0, source_id=2),
            [f for f in flowsets if f.is_data])
        fresh = NetFlowCollector()
        assert fresh.ingest(data_only) == []

    def test_stats_counters(self):
        exporter = NetFlowExporter(source_id=9)
        collector = NetFlowCollector()
        for packet in exporter.export(records(5)):
            collector.ingest(packet)
        assert collector.stats.packets >= 1
        assert collector.stats.records == 5
        assert collector.stats.templates_learned == 1
