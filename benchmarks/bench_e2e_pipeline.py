"""§6 experimental setup — end-to-end pipeline throughput.

The paper's evaluation environment: 4 routers generating NetFlow logs
into a shared SQL backend with 5-second commitment windows.  The paper
runs one thread per router; this bench generates through the
synchronous pump on the virtual clock (``TelemetrySystem.generate``),
so every run commits the same windows.  It measures each stage of the
pipeline: generation+commit, aggregation round, query round, and client
verification.
"""

from __future__ import annotations

import pytest

from repro.core.system import SystemConfig, TelemetrySystem

from _workloads import PAPER_QUERY


@pytest.fixture(scope="module", params=["memory", "sqlite"])
def populated_system(request):
    system = TelemetrySystem(SystemConfig(
        seed=7, flows_per_tick=10, backend=request.param))
    system.generate(400)
    return system


def test_e2e_generation_and_commit(benchmark, report):
    def generate():
        system = TelemetrySystem(SystemConfig(seed=7, flows_per_tick=10))
        system.generate(400)
        return system.simulator.records_generated

    records = benchmark.pedantic(generate, rounds=1, iterations=1,
                                 warmup_rounds=0)
    report.table("e2e-setup",
                 "§6 setup stages (4 routers, 5s windows)",
                 ["stage", "backend", "detail"])
    report.row("e2e-setup", "generate+commit", "memory",
               f"{records} records")
    assert records >= 400


def test_e2e_aggregation_rounds(benchmark, report, populated_system):
    system = populated_system

    def aggregate_all():
        return system.aggregate_all()

    rounds = benchmark.pedantic(aggregate_all, rounds=1, iterations=1,
                                warmup_rounds=0)
    report.row("e2e-setup", "aggregate-all",
               system.config.backend, f"{rounds} rounds, "
               f"{len(system.prover.state)} flows")
    assert len(system.prover.chain) >= 1


def test_e2e_query_round(benchmark, report, populated_system):
    system = populated_system
    if not len(system.prover.chain):
        system.aggregate_all()
    response = benchmark.pedantic(
        lambda: system.prover.answer_query(PAPER_QUERY),
        rounds=1, iterations=1, warmup_rounds=0)
    report.row("e2e-setup", "query-proof", system.config.backend,
               f"scanned {response.scanned}")


def test_e2e_client_verification(benchmark, report, populated_system):
    system = populated_system
    if not len(system.prover.chain):
        system.aggregate_all()
    receipts = system.prover.chain.receipts()

    verified = benchmark(
        lambda: system.verifier.verify_chain(receipts))
    report.row("e2e-setup", "verify-chain", system.config.backend,
               f"{len(verified)} rounds")
    assert len(verified) == len(receipts)
