"""Deterministic traffic generation.

Flows are drawn from an application mix (video, web, gaming, P2P, DNS)
with Zipf-like heavy-tailed sizes; each flow is assigned a content
provider (a source prefix) and a client, routed across the topology, and
*observed* by every router on its path — producing one
:class:`~repro.netflow.records.NetFlowRecord` per (router, flow), with
loss accumulating hop by hop and RTT/jitter derived from path latency.

A ``throttle`` map lets experiments inject differentiated treatment for
specific providers (extra latency and loss), which is the ground truth
the network-neutrality audit example detects.
"""

from __future__ import annotations

import hashlib
import ipaddress
import random
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from .records import FlowKey, NetFlowRecord, PROTO_TCP, PROTO_UDP
from .topology import NetworkTopology


@dataclass(frozen=True)
class AppProfile:
    """One application class in the traffic mix."""

    name: str
    protocol: int
    server_ports: tuple[int, ...]
    mean_packets: int
    mean_packet_bytes: int
    weight: float


DEFAULT_APP_MIX: tuple[AppProfile, ...] = (
    AppProfile("video", PROTO_TCP, (443,), 4_000, 1_200, 0.35),
    AppProfile("web", PROTO_TCP, (80, 443), 40, 900, 0.30),
    AppProfile("gaming", PROTO_UDP, (3074, 27015), 600, 150, 0.15),
    AppProfile("p2p", PROTO_TCP, (6881, 6889), 2_000, 1_000, 0.10),
    AppProfile("dns", PROTO_UDP, (53,), 2, 80, 0.10),
)

DEFAULT_PROVIDERS: dict[str, str] = {
    "streamco": "10.1.0.0/16",
    "vidnet": "10.2.0.0/16",
    "cloudcdn": "10.3.0.0/16",
}

CLIENT_PREFIX = "172.16.0.0/12"


@dataclass(frozen=True)
class ThrottleSpec:
    """Differentiated treatment applied to one provider's traffic."""

    extra_latency_us: int = 0
    extra_loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.extra_loss_rate < 1.0:
            raise ConfigurationError("extra_loss_rate must be in [0, 1)")


@dataclass
class TrafficConfig:
    """Knobs for the traffic generator."""

    seed: int = 7
    apps: tuple[AppProfile, ...] = DEFAULT_APP_MIX
    providers: dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_PROVIDERS))
    client_prefix: str = CLIENT_PREFIX
    zipf_alpha: float = 1.2
    mean_flow_duration_ms: int = 2_000
    throttle: dict[str, ThrottleSpec] = field(default_factory=dict)


@dataclass(frozen=True)
class SimFlow:
    """A generated flow before observation."""

    key: FlowKey
    app: str
    provider: str
    path: tuple[str, ...]
    packets: int
    octets: int
    start_ms: int
    end_ms: int


class TrafficGenerator:
    """Deterministic flow and record generation over a topology."""

    def __init__(self, topology: NetworkTopology,
                 config: TrafficConfig | None = None) -> None:
        self.topology = topology
        self.config = config or TrafficConfig()
        if not self.config.providers:
            raise ConfigurationError("need at least one provider")
        self._rng = random.Random(self.config.seed)
        self._providers = sorted(self.config.providers)
        self._provider_nets = {
            name: ipaddress.IPv4Network(prefix)
            for name, prefix in self.config.providers.items()
        }
        self._client_net = ipaddress.IPv4Network(self.config.client_prefix)
        self._app_weights = [a.weight for a in self.config.apps]
        self._flow_serial = 0

    # -- flows -------------------------------------------------------------------

    def generate_flow(self, now_ms: int) -> SimFlow:
        """Draw one flow from the configured mix."""
        rng = self._rng
        app = rng.choices(self.config.apps, weights=self._app_weights)[0]
        provider = rng.choice(self._providers)
        server = self._random_addr(self._provider_nets[provider])
        client = self._random_addr(self._client_net)
        router_ids = self.topology.router_ids()
        ingress = rng.choice(router_ids)
        egress = rng.choice(router_ids)
        path = tuple(self.topology.path(ingress, egress))
        packets = max(1, int(self._zipf_scale() * app.mean_packets))
        octets = packets * max(
            40, int(rng.gauss(app.mean_packet_bytes,
                              app.mean_packet_bytes * 0.1)))
        duration = max(1, int(rng.expovariate(
            1.0 / self.config.mean_flow_duration_ms)))
        self._flow_serial += 1
        key = FlowKey(
            src_addr=server,
            dst_addr=client,
            src_port=rng.choice(app.server_ports),
            dst_port=rng.randint(32768, 60999),
            protocol=app.protocol,
        )
        return SimFlow(
            key=key, app=app.name, provider=provider, path=path,
            packets=packets, octets=octets,
            start_ms=now_ms, end_ms=now_ms + duration,
        )

    def generate_flows(self, count: int, now_ms: int = 0) -> list[SimFlow]:
        return [self.generate_flow(now_ms) for _ in range(count)]

    # -- observation ---------------------------------------------------------------

    def observe(self, flow: SimFlow) -> list[NetFlowRecord]:
        """Per-router records for one flow, with hop-by-hop loss.

        Router ``i`` on the path offers the packets that survived links
        ``0..i-1``; its ``lost_packets`` counter is what it saw offered
        but not delivered downstream — so summing loss across routers
        reconstructs path loss, the aggregation the paper motivates.
        """
        # Per-flow RNG seeded through sha-256 (bytes/str __hash__ is
        # randomized per process, which would break cross-run determinism).
        seed_material = (flow.key.pack()
                         + flow.start_ms.to_bytes(8, "big")
                         + self.config.seed.to_bytes(8, "big", signed=True))
        rng = random.Random(int.from_bytes(
            hashlib.sha256(seed_material).digest()[:8], "big"))
        throttle = self.config.throttle.get(flow.provider, _NO_THROTTLE)
        path = flow.path
        base_rtt_us = 2 * self.topology.path_latency_us(list(path)) \
            + throttle.extra_latency_us
        jitter_budget_us = self.topology.path_jitter_us(list(path))
        records: list[NetFlowRecord] = []
        arriving = flow.packets
        mean_size = flow.octets / flow.packets if flow.packets else 0
        for position, router_id in enumerate(path):
            if position < len(path) - 1:
                link = self.topology.link(path[position],
                                          path[position + 1])
                loss = min(0.999,
                           link.loss_rate + throttle.extra_loss_rate)
            else:
                loss = 0.0
            lost_here = _stochastic_round(arriving * loss, rng)
            lost_here = min(lost_here, arriving)
            rtt_us = max(0, int(rng.gauss(base_rtt_us,
                                          max(jitter_budget_us, 1) / 2)))
            jitter_us = max(0, int(abs(rng.gauss(0, max(
                jitter_budget_us, 1)))))
            records.append(NetFlowRecord(
                router_id=router_id,
                key=flow.key,
                packets=arriving,
                octets=int(arriving * mean_size),
                first_switched_ms=flow.start_ms,
                last_switched_ms=flow.end_ms,
                tcp_flags=0x1B if flow.key.protocol == PROTO_TCP else 0,
                input_if=1 if position == 0 else 2,
                output_if=3,
                next_hop=(self.topology.router(path[position + 1]).loopback
                          if position < len(path) - 1 else "0.0.0.0"),
                hop_count=position + 1,
                lost_packets=lost_here,
                rtt_us=rtt_us,
                jitter_us=jitter_us,
                extra={"app": flow.app, "provider": flow.provider},
            ))
            arriving -= lost_here
            if arriving <= 0:
                break
        return records

    # -- internals ----------------------------------------------------------------------

    def _random_addr(self, net: ipaddress.IPv4Network) -> str:
        offset = self._rng.randrange(1, net.num_addresses - 1)
        return str(net.network_address + offset)

    def _zipf_scale(self) -> float:
        """Heavy-tailed size multiplier via inverse-CDF Pareto sampling."""
        u = self._rng.random()
        alpha = self.config.zipf_alpha
        return (1.0 - u) ** (-1.0 / alpha) / 2.0


_NO_THROTTLE = ThrottleSpec()


def _stochastic_round(value: float, rng: random.Random) -> int:
    """Round to int, carrying the fraction as a probability."""
    base = int(value)
    frac = value - base
    return base + (1 if rng.random() < frac else 0)
