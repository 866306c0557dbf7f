"""Unit tests for the traffic generator."""

import ipaddress

import pytest

from repro.errors import ConfigurationError
from repro.netflow.generator import (
    DEFAULT_PROVIDERS,
    ThrottleSpec,
    TrafficConfig,
    TrafficGenerator,
)
from repro.netflow.topology import LinkSpec, NetworkTopology


@pytest.fixture
def topology():
    return NetworkTopology.linear(
        4, LinkSpec(latency_us=2_000, jitter_us=100, loss_rate=0.05))


def generator(topology, **config_overrides):
    return TrafficGenerator(topology,
                            TrafficConfig(seed=3, **config_overrides))


class TestFlowGeneration:
    def test_deterministic_across_instances(self, topology):
        a = generator(topology).generate_flows(20, now_ms=100)
        b = generator(topology).generate_flows(20, now_ms=100)
        assert a == b

    def test_seed_changes_flows(self, topology):
        a = TrafficGenerator(topology, TrafficConfig(seed=1)) \
            .generate_flows(10)
        b = TrafficGenerator(topology, TrafficConfig(seed=2)) \
            .generate_flows(10)
        assert a != b

    def test_server_addr_in_provider_prefix(self, topology):
        for flow in generator(topology).generate_flows(50):
            net = ipaddress.IPv4Network(DEFAULT_PROVIDERS[flow.provider])
            assert ipaddress.IPv4Address(flow.key.src_addr) in net

    def test_client_addr_in_client_prefix(self, topology):
        client_net = ipaddress.IPv4Network("172.16.0.0/12")
        for flow in generator(topology).generate_flows(50):
            assert ipaddress.IPv4Address(flow.key.dst_addr) in client_net

    def test_path_is_valid(self, topology):
        for flow in generator(topology).generate_flows(30):
            assert flow.path[0] in topology.router_ids()
            assert list(flow.path) == topology.path(flow.path[0],
                                                    flow.path[-1])

    def test_positive_sizes(self, topology):
        for flow in generator(topology).generate_flows(50):
            assert flow.packets >= 1
            assert flow.octets >= 40
            assert flow.end_ms > flow.start_ms

    def test_heavy_tail(self, topology):
        sizes = [f.packets for f in generator(topology)
                 .generate_flows(400)]
        mean = sum(sizes) / len(sizes)
        assert max(sizes) > 5 * mean  # heavy-tailed distribution

    def test_requires_providers(self, topology):
        with pytest.raises(ConfigurationError):
            TrafficGenerator(topology, TrafficConfig(providers={}))


class TestObservation:
    def test_every_path_router_observes(self, topology):
        gen = generator(topology)
        for flow in gen.generate_flows(20):
            records = gen.observe(flow)
            observed = [r.router_id for r in records]
            assert observed == list(flow.path)[:len(observed)]

    def test_loss_accumulates_downstream(self, topology):
        gen = generator(topology)
        multi_hop = [f for f in gen.generate_flows(60)
                     if len(f.path) >= 3]
        assert multi_hop, "need multi-hop flows for this test"
        for flow in multi_hop:
            records = gen.observe(flow)
            arriving = [r.packets for r in records]
            assert arriving == sorted(arriving, reverse=True)
            for upstream, downstream in zip(records, records[1:]):
                assert downstream.packets == \
                    upstream.packets - upstream.lost_packets

    def test_hop_count_increments(self, topology):
        gen = generator(topology)
        flow = next(f for f in gen.generate_flows(50)
                    if len(f.path) >= 2)
        records = gen.observe(flow)
        assert [r.hop_count for r in records] == \
            list(range(1, len(records) + 1))

    def test_observation_deterministic(self, topology):
        gen = generator(topology)
        flow = gen.generate_flow(now_ms=0)
        assert gen.observe(flow) == gen.observe(flow)

    def test_egress_router_loses_nothing(self, topology):
        gen = generator(topology)
        for flow in gen.generate_flows(20):
            records = gen.observe(flow)
            if [r.router_id for r in records] == list(flow.path):
                assert records[-1].lost_packets == 0


class TestThrottling:
    def test_throttle_raises_rtt(self, topology):
        provider = sorted(DEFAULT_PROVIDERS)[0]
        plain = generator(topology)
        throttled = generator(
            topology,
            throttle={provider: ThrottleSpec(extra_latency_us=50_000)})
        def mean_rtt(gen):
            total, count = 0, 0
            for flow in gen.generate_flows(120):
                if flow.provider != provider:
                    continue
                for record in gen.observe(flow):
                    total += record.rtt_us
                    count += 1
            return total / count
        assert mean_rtt(throttled) > mean_rtt(plain) + 30_000

    def test_throttle_validation(self):
        with pytest.raises(ConfigurationError):
            ThrottleSpec(extra_loss_rate=1.0)
