"""§7 discussion — query complexity vs proving cost.

"While our ZKP framework is general-purpose and in principle supports
arbitrary queries, the cost of proof generation increases with query
complexity."  We sweep a ladder of increasingly complex queries over a
fixed CLog and report metered cycles, modeled latency, and the cost
planner's prediction accuracy.
"""

from __future__ import annotations

import pytest

from repro.core.prover_service import ProverService
from repro.zkvm.costmodel import CostModel

from _workloads import committed_workload

MODEL = CostModel()

QUERY_LADDER = [
    ("count", "SELECT COUNT(*) FROM clogs"),
    ("filtered-sum",
     'SELECT SUM(hop_count) FROM clogs '
     'WHERE src_ip = "1.1.1.1" AND dst_ip = "9.9.9.9"'),
    ("multi-agg",
     "SELECT COUNT(*), SUM(octets), AVG(rtt_avg_us), MAX(packets), "
     "MIN(first_ms) FROM clogs"),
    ("deep-where",
     "SELECT COUNT(*) FROM clogs WHERE "
     "(packets > 100 AND octets > 1000) OR "
     "(lost_packets > 0 AND hop_count >= 2) OR "
     '(src_ip IN "10.1.0.0/16" AND NOT dst_port = 53)'),
    ("group-by",
     "SELECT COUNT(*), SUM(lost_packets), AVG(rtt_avg_us) FROM clogs "
     "GROUP BY src_net16"),
]


@pytest.fixture(scope="module")
def service():
    store, bulletin = committed_workload(1000)
    svc = ProverService(store, bulletin)
    svc.aggregate_window(0)
    return svc


@pytest.mark.parametrize("name,sql", QUERY_LADDER)
def test_query_complexity_ladder(benchmark, report, service, name, sql):
    predicted = service.estimate_query(sql)
    response = benchmark.pedantic(lambda: service.answer_query(sql),
                                  rounds=1, iterations=1,
                                  warmup_rounds=0)
    stats = service.last_prove_info.stats
    modeled_min = MODEL.prove_seconds(stats) / 60
    error = (predicted.total_cycles - stats.total_cycles) \
        / stats.total_cycles
    report.table(
        "query-complexity",
        "§7 query complexity over 1000 records "
        "(metered vs planner-predicted)",
        ["query", "ast_nodes", "cycles", "modeled_min",
         "planner_err"],
    )
    from repro.query import parse_query
    report.row("query-complexity", name, parse_query(sql).node_count,
               stats.total_cycles, modeled_min, f"{error:+.1%}")
    assert response.receipt is not None
    assert abs(error) < 0.05  # planner within 5%


def test_complexity_ordering_holds(service, report):
    """More AST nodes per entry must cost more cycles (same state)."""
    cycles = {}
    for name, sql in QUERY_LADDER:
        # Bypass the receipt cache: we need fresh metering, and a
        # cache hit leaves last_prove_info pointing at the prior query.
        service.answer_query(sql, use_cache=False)
        cycles[name] = service.last_prove_info.stats.total_cycles
    assert cycles["deep-where"] > cycles["count"]
    assert cycles["multi-agg"] > cycles["count"]
    report.table("query-complexity-verdict",
                 "Complexity ordering (cycles)",
                 ["simplest", "most_complex", "ratio"])
    most = max(cycles.values())
    least = min(cycles.values())
    report.row("query-complexity-verdict", least, most, most / least)
