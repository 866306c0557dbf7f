"""§1/§2 motivation — deployment & scalability vs the TEE baseline.

Paper: "TEE-based telemetry requires deploying TEEs on every vantage
point ... which may be infeasible in large or heterogeneous
environments."  This bench sweeps the vantage-point count and reports
the deployment/verification/disclosure profile of each approach.
"""

from __future__ import annotations

import pytest

from _workloads import aggregated_service, committed_workload
from baselines import (
    SignedLogBaseline,
    TEETelemetryModel,
    compare_approaches,
)

VANTAGE_POINTS = (4, 40, 400)


@pytest.fixture(scope="module")
def workload():
    service = aggregated_service(1000)
    store = service.store
    raw_bytes = sum(
        len(blob)
        for router_id in store.router_ids()
        for blob in store.window_blobs(router_id, 0))
    journal_bytes = service.chain.latest.receipt.journal_size
    stats = service.last_prove_info.stats
    return raw_bytes, journal_bytes, stats


@pytest.mark.parametrize("vantage_points", VANTAGE_POINTS)
def test_deployment_sweep(report, workload, vantage_points):
    raw_bytes, journal_bytes, stats = workload
    rows = compare_approaches(vantage_points, raw_bytes, journal_bytes,
                              agg_prove_stats=stats)
    report.table(
        "baseline-tee",
        "Deployment & scalability: ZKP vs TEE vs signed logs",
        ["vantage_pts", "approach", "hw_units", "disclosed_B",
         "verify_s", "confidential"],
    )
    for row in rows:
        report.row("baseline-tee", vantage_points, row.name,
                   row.in_network_hardware_units,
                   row.verifier_bytes_disclosed, row.verify_seconds,
                   row.confidentiality)
    by_name = {row.name: row for row in rows}
    zkp = by_name["zkp (this work)"]
    tee = by_name["tee (TrustSketch-style)"]
    signed = by_name["signed logs"]
    # The paper's argument, quantified:
    assert zkp.in_network_hardware_units == 0
    assert tee.in_network_hardware_units == vantage_points
    assert zkp.confidentiality and not signed.confidentiality
    assert zkp.verifier_bytes_disclosed < signed.verifier_bytes_disclosed


def test_tee_epc_throughput_cliff(benchmark, report):
    """TEE scalability limit: throughput collapses once the telemetry
    working set exceeds the EPC."""
    model = TEETelemetryModel()
    limit = model.spec.working_set_limit_records()
    in_epc = model.spec.throughput_rps(limit // 2)
    paging = model.spec.throughput_rps(limit * 2)
    report.table("baseline-tee-epc",
                 "TEE EPC paging cliff (records/second)",
                 ["resident_records", "throughput_rps"])
    report.row("baseline-tee-epc", limit // 2, in_epc)
    report.row("baseline-tee-epc", limit * 2, paging)
    assert in_epc / paging == pytest.approx(model.spec.paging_slowdown)
    benchmark(lambda: model.spec.throughput_rps(limit * 2))


def test_signed_logs_disclosure_benchmark(benchmark, report):
    """The signed baseline's verification requires shipping and
    re-verifying raw logs — benchmark that path for contrast."""
    store, _bulletin = committed_workload(500)
    baseline = SignedLogBaseline()
    windows = []
    for router_id in store.router_ids():
        records = store.window_records(router_id, 0)
        windows.append(baseline.sign_window(router_id, 0, records))

    def verify_all():
        return sum(len(baseline.verify_window(w)) for w in windows)

    total = benchmark(verify_all)
    disclosed = sum(w.disclosed_bytes for w in windows)
    report.table("baseline-signed",
                 "Signed-log verification (verifier sees raw logs)",
                 ["records_verified", "bytes_disclosed"])
    report.row("baseline-signed", total, disclosed)
    assert total == 500
