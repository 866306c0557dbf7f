"""Federation join benchmarks.

Both benches feed the CI regression gate (``check_regression.py``
against ``results/baseline.json``, normalized by
``test_engine_calibration`` from ``bench_engine.py`` — run the two
files in the same pytest invocation):

* ``test_federation_join_k2`` — a two-provider join, the minimal
  federation round: 2 totals-query proofs fanned out through the
  engine plus the join-guest merge and the final resolve.
* ``test_federation_join_k4`` — the same round at K=4, pricing how
  the join scales with provider count (the fan-out is parallel; the
  merge verifies K bindings serially).

Scenario construction and per-domain aggregation happen once in module
fixtures; each iteration prices exactly one join round through a fresh
engine + receipt cache (cold proofs, no cross-iteration caching).
Correctness is hard-asserted on the side: every join must come back
consistent under a zero-tolerance audit.

``REPRO_BENCH_SLEEP=<seconds>`` injects a per-iteration delay to
verify the gate itself; never set in CI.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.engine import ProvingEngine, ReceiptCache
from repro.federation import (
    FederationAuditor,
    FederationJoinProver,
    build_federation_scenario,
)

from _workloads import median_seconds

JOIN_FLOWS = int(os.environ.get("REPRO_BENCH_FEDERATION_FLOWS", "24"))


def _sleep_penalty() -> None:
    delay = float(os.environ.get("REPRO_BENCH_SLEEP", "0") or 0.0)
    if delay > 0:
        time.sleep(delay)


def _scenario(num_providers: int):
    scenario = build_federation_scenario(
        num_providers=num_providers, num_flows=JOIN_FLOWS, seed=7,
        boundary_loss=0.02)
    scenario.aggregate_and_publish()
    return scenario


@pytest.fixture(scope="module")
def scenario_k2():
    return _scenario(2)


@pytest.fixture(scope="module")
def scenario_k4():
    return _scenario(4)


def _bench_join(benchmark, report, scenario, rounds: int):
    num_providers = len(scenario.providers)

    def join_round():
        _sleep_penalty()
        with ProvingEngine(backend="thread",
                           max_workers=num_providers,
                           cache=ReceiptCache()) as engine:
            prover = FederationJoinProver(engine=engine)
            return prover.prove_join(scenario)

    join = benchmark.pedantic(join_round, rounds=rounds, iterations=1,
                              warmup_rounds=1)
    result = FederationAuditor().audit(scenario.public_views(),
                                       scenario.board, join)
    assert result.consistent, result
    benchmark.extra_info["total_cycles"] = join.total_cycles
    report.table(
        "federation-join",
        f"K-provider federation join over {JOIN_FLOWS} flows "
        "(cold engine per round)",
        ["providers", "median_s", "join_cycles"])
    report.row("federation-join", num_providers,
               median_seconds(benchmark), join.total_cycles)


def test_federation_join_k2(benchmark, report, scenario_k2):
    """Two providers: the minimal federation round."""
    _bench_join(benchmark, report, scenario_k2, rounds=10)


def test_federation_join_k4(benchmark, report, scenario_k4):
    """Four providers: fan-out scaling of the same round."""
    _bench_join(benchmark, report, scenario_k4, rounds=5)
