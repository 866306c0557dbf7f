"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os
import random
import zlib

import pytest
from hypothesis import HealthCheck, settings as hypothesis_settings

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.system import SystemConfig, TelemetrySystem
from repro.errors import ReproError
from repro.netflow import NetworkTopology, TrafficGenerator
from repro.netflow.generator import TrafficConfig
from repro.netflow.records import FlowKey, NetFlowRecord
from repro.storage import MemoryLogStore

# -- determinism hardening ---------------------------------------------------
#
# "ci" is what the workflow runs: derandomized (failures reproduce on
# re-run) with a deeper example budget.  "dev" keeps the local loop
# fast.  Select with HYPOTHESIS_PROFILE=ci|dev (default dev).

hypothesis_settings.register_profile(
    "ci", derandomize=True, max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
hypothesis_settings.register_profile(
    "dev", max_examples=25, deadline=None)
hypothesis_settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(autouse=True)
def _seeded_random(request):
    """Seed the global ``random`` state per test, keyed on the test id.

    Any test that (directly or through library code) draws from the
    shared module-level generator gets the same stream on every run,
    regardless of execution order or ``-k`` selection.
    """
    state = random.getstate()
    random.seed(zlib.crc32(request.node.nodeid.encode()))
    yield
    random.setstate(state)


def pytest_sessionfinish(session):
    """Write the observability snapshot when REPRO_OBS_SNAPSHOT names a
    file — CI uploads it as an artifact after the smoke run."""
    target = os.environ.get("REPRO_OBS_SNAPSHOT")
    if not target:
        return
    from repro.obs import runtime as obs_runtime
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(obs_runtime.snapshot(), fh, indent=2,
                  sort_keys=True)


def make_record(router_id: str = "r1",
                src: str = "10.1.0.1", dst: str = "172.16.0.9",
                sport: int = 443, dport: int = 50000, proto: int = 6,
                **overrides) -> NetFlowRecord:
    """A valid record with sensible defaults, overridable per test."""
    defaults = dict(
        router_id=router_id,
        key=FlowKey(src_addr=src, dst_addr=dst, src_port=sport,
                    dst_port=dport, protocol=proto),
        packets=100,
        octets=120_000,
        first_switched_ms=1_000,
        last_switched_ms=3_000,
        hop_count=2,
        lost_packets=1,
        rtt_us=8_000,
        jitter_us=400,
    )
    defaults.update(overrides)
    return NetFlowRecord(**defaults)


def make_committed_records(n: int, seed: int = 7,
                           window_index: int = 0
                           ) -> tuple[MemoryLogStore, BulletinBoard, int]:
    """Exactly ``n`` generated records, stored and committed in one
    window across the paper's 4-router topology.

    Returns (store, bulletin, actual record count).
    """
    topology = NetworkTopology.paper_eval()
    generator = TrafficGenerator(topology, TrafficConfig(seed=seed))
    store = MemoryLogStore()
    bulletin = BulletinBoard()
    per_router: dict[str, list[NetFlowRecord]] = {
        r: [] for r in topology.router_ids()}
    count = 0
    while count < n:
        flow = generator.generate_flow(now_ms=1_000)
        for record in generator.observe(flow):
            if count >= n:
                break
            per_router[record.router_id].append(record)
            count += 1
    for router_id, records in per_router.items():
        if not records:
            continue
        store.append_records(router_id, window_index, records)
        bulletin.publish(Commitment(
            router_id=router_id,
            window_index=window_index,
            digest=window_digest([r.to_bytes() for r in records]),
            record_count=len(records),
            published_at_ms=5_000,
        ))
    return store, bulletin, count


def drain_with_retries(service, attempts: int = 50) -> int:
    """Drive ``service.aggregate_all_committed()`` until it returns,
    retrying on any :class:`~repro.errors.ReproError`.

    A failed round commits nothing (state, chain and window set move
    only after the proof exists), so retrying a transient fault is
    always safe; a window whose round aborts in the guest is
    quarantined by the service itself.  Returns the number of failed
    attempts; raises ``AssertionError`` if ``attempts`` are spent.
    """
    for failures in range(attempts):
        try:
            service.aggregate_all_committed()
        except ReproError:
            continue
        return failures
    raise AssertionError(f"no clean drain in {attempts} attempts")


@pytest.fixture
def record() -> NetFlowRecord:
    return make_record()


@pytest.fixture
def small_system() -> TelemetrySystem:
    """A populated 4-router system with ~3 committed windows."""
    system = TelemetrySystem(SystemConfig(seed=11, flows_per_tick=5))
    system.generate(120)
    return system


@pytest.fixture
def aggregated_system(small_system: TelemetrySystem) -> TelemetrySystem:
    """small_system with every committed window aggregated."""
    small_system.aggregate_all()
    return small_system
