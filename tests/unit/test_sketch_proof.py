"""Unit tests for verifiable sketch telemetry."""

from collections import Counter

import pytest

from repro.core.prover_service import ProverService
from repro.core.sketch_proof import (
    SketchTelemetry,
    sketch_build_guest,
    verify_sketch_build,
    verify_sketch_estimate,
)
from repro.errors import (
    ChainError,
    GuestAbort,
    ProofError,
    VerificationError,
)
from repro.hashing import sha256
from repro.netflow.records import FlowKey
from repro.zkvm import verify_receipt

from ..conftest import make_committed_records


@pytest.fixture(scope="module")
def setup():
    store, bulletin, _count = make_committed_records(150, seed=17)
    service = ProverService(store, bulletin)
    windows = service.gather_window(0)
    telemetry = SketchTelemetry(width=1024, depth=4, capacity=64)
    build = telemetry.build(windows, top_k=5)
    truth = Counter()
    for router_id in store.router_ids():
        for record in store.window_records(router_id, 0):
            truth[record.key] += record.packets
    return store, bulletin, windows, telemetry, build, truth


class TestBuild:
    def test_receipt_verifies(self, setup):
        *_rest, build, _truth = setup
        verify_receipt(build.receipt, sketch_build_guest.image_id)

    def test_journal_cross_checks_bulletin(self, setup):
        _store, bulletin, _w, _t, build, _truth = setup
        journal = verify_sketch_build(build.receipt, bulletin)
        assert journal["cm_digest"] == build.sketch.digest()

    def test_total_packets_exact(self, setup):
        *_rest, build, truth = setup
        journal = build.journal
        assert journal["total_packets"] == sum(truth.values())

    def test_heavy_hitters_are_real(self, setup):
        *_rest, build, truth = setup
        top_true = {key.pack() for key, _count in
                    Counter(truth).most_common(3)}
        reported = {item["k"] for item in build.journal["top"]}
        # The true top-3 must appear in the reported top-5.
        assert top_true <= reported

    def test_tampered_window_aborts_build(self, setup):
        store, bulletin, windows, telemetry, *_rest = setup
        import dataclasses
        forged = [dataclasses.replace(windows[0],
                                      commitment=sha256(b"no"))] \
            + list(windows[1:])
        with pytest.raises(GuestAbort, match="commitment mismatch"):
            telemetry.build(forged)

    def test_repeated_window_pair_rejected(self, setup):
        """The build guest checks each window against its commitment,
        not against the others: a host that feeds one window twice
        gets a valid proof of a double count, and only the client's
        journal check (the one ``verify_aggregation`` makes) stops it."""
        _store, bulletin, windows, telemetry, build, _truth = setup
        doubled = telemetry.build(list(windows) + list(windows[:1]))
        verify_receipt(doubled.receipt, sketch_build_guest.image_id)
        assert doubled.journal["total_packets"] \
            > build.journal["total_packets"]
        with pytest.raises(ChainError, match="sketch build consumes a "
                           r"\(router, window\) pair more than once"):
            verify_sketch_build(doubled.receipt, bulletin)

    def test_journal_hides_sketch_contents(self, setup):
        *_rest, build, _truth = setup
        journal = build.journal
        assert set(journal) == {"windows", "cm_digest", "cm_params",
                                "total_packets", "top"}
        # The sketch rows themselves never appear.
        assert "rows" not in journal


class TestEstimate:
    def test_estimate_never_undercounts_truth(self, setup):
        _s, _b, _w, telemetry, build, truth = setup
        for key, count in list(truth.items())[:10]:
            estimate = telemetry.prove_estimate(build, key)
            journal = verify_sketch_build(build.receipt, setup[1])
            proven = verify_sketch_estimate(estimate, journal)
            assert proven >= count

    def test_absent_flow_estimates_small(self, setup):
        _s, bulletin, _w, telemetry, build, truth = setup
        ghost = FlowKey("203.0.113.1", "203.0.113.2", 1, 2, 6)
        assert ghost not in truth
        estimate = telemetry.prove_estimate(build, ghost)
        journal = verify_sketch_build(build.receipt, bulletin)
        proven = verify_sketch_estimate(estimate, journal)
        # Sparse sketch: collisions are unlikely at width 1024.
        assert proven < max(truth.values())

    def test_estimate_receipt_unconditional(self, setup):
        _s, _b, _w, telemetry, build, truth = setup
        key = next(iter(truth))
        estimate = telemetry.prove_estimate(build, key)
        assert not estimate.receipt.claim.assumptions

    def test_wrong_sketch_state_aborts(self, setup):
        """Substituting a different sketch state fails the digest check
        inside the guest."""
        _s, _b, _w, telemetry, build, truth = setup
        import dataclasses
        from repro.sketch import CountMinSketch
        fake = CountMinSketch(width=build.sketch.width,
                              depth=build.sketch.depth,
                              seed=build.sketch.seed)
        fake.add(b"fabricated", 10**9)
        forged_build = dataclasses.replace(build, sketch=fake)
        key = next(iter(truth))
        with pytest.raises(GuestAbort, match="digest"):
            telemetry.prove_estimate(forged_build, key)

    def test_estimate_against_wrong_build_rejected(self, setup):
        store, bulletin, windows, telemetry, build, truth = setup
        other_store, other_bulletin, _ = make_committed_records(
            80, seed=99)
        other_service = ProverService(other_store, other_bulletin)
        other_windows = other_service.gather_window(0)
        other_build = telemetry.build(other_windows)
        key = next(iter(truth))
        estimate = telemetry.prove_estimate(other_build, key)
        journal = verify_sketch_build(build.receipt, bulletin)
        with pytest.raises(ProofError, match="different sketch"):
            verify_sketch_estimate(estimate, journal)

    def test_lying_about_estimate_rejected(self, setup):
        _s, bulletin, _w, telemetry, build, truth = setup
        import dataclasses
        key = next(iter(truth))
        estimate = telemetry.prove_estimate(build, key)
        lying = dataclasses.replace(estimate,
                                    estimate=estimate.estimate + 1)
        journal = verify_sketch_build(build.receipt, bulletin)
        with pytest.raises(ProofError, match="does not match"):
            verify_sketch_estimate(lying, journal)


class TestVerifierRejections:
    def test_forged_build_journal_rejected(self, setup):
        _s, bulletin, _w, _t, build, _truth = setup
        import dataclasses
        from repro.zkvm.receipt import Journal
        from repro.serialization import encode
        journal = build.journal
        journal = dict(journal)
        journal["total_packets"] = 0
        forged = dataclasses.replace(
            build.receipt, journal=Journal(encode(journal)))
        with pytest.raises(VerificationError):
            verify_sketch_build(forged, bulletin)
