"""Unit tests for the TEE and signed-log baselines."""

import pathlib
import sys

import pytest

from repro.errors import ConfigurationError, IntegrityError

from ..conftest import make_record

BENCHMARKS_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"

sys.path.insert(0, str(BENCHMARKS_DIR))
try:
    from baselines import (
        EnclaveSpec,
        SignedLogBaseline,
        TEETelemetryModel,
        compare_approaches,
    )
finally:
    sys.path.pop(0)


class TestEnclaveSpec:
    def test_throughput_cliff_at_epc_limit(self):
        spec = EnclaveSpec()
        limit = spec.working_set_limit_records()
        fast = spec.throughput_rps(limit)
        slow = spec.throughput_rps(limit + 1)
        assert fast / slow == pytest.approx(spec.paging_slowdown)

    def test_invalid_epc(self):
        with pytest.raises(ConfigurationError):
            EnclaveSpec(epc_usable_mb=0)


class TestTEEModel:
    def test_attestation_verifies(self):
        model = TEETelemetryModel()
        model.ingest(make_record())
        report = model.attest()
        report.verify(model.measurement, model.platform_key)

    def test_state_evolves_with_records(self):
        model = TEETelemetryModel()
        model.ingest(make_record())
        first = model.attest()
        model.ingest(make_record(sport=2))
        second = model.attest()
        assert first.report_data != second.report_data
        assert model.record_count == 2

    def test_wrong_measurement_rejected(self):
        from repro.hashing import sha256
        model = TEETelemetryModel()
        report = model.attest()
        with pytest.raises(IntegrityError, match="measurement"):
            report.verify(sha256(b"other enclave"), model.platform_key)

    def test_wrong_platform_key_rejected(self):
        model = TEETelemetryModel()
        report = model.attest()
        with pytest.raises(IntegrityError, match="MAC"):
            report.verify(model.measurement, b"evil key")

    def test_deployment_scales_with_vantage_points(self):
        model = TEETelemetryModel()
        small = model.deployment_requirements(4)
        large = model.deployment_requirements(400)
        assert small["sgx_machines_required"] == 4
        assert large["sgx_machines_required"] == 400
        assert large["attestation_latency_s"] > \
            small["attestation_latency_s"]
        assert large["in_network_hardware"]

    def test_processing_time_grows_past_epc(self):
        model = TEETelemetryModel()
        in_epc = model.processing_seconds(10_000,
                                          resident_records=1_000)
        paging = model.processing_seconds(
            10_000,
            resident_records=model.spec.working_set_limit_records() + 1)
        assert paging > 10 * in_epc


class TestSignedBaseline:
    def test_sign_and_verify(self):
        baseline = SignedLogBaseline()
        records = [make_record(sport=1000 + i) for i in range(3)]
        window = baseline.sign_window("r1", 0, records)
        assert baseline.verify_window(window) == records

    def test_tamper_detected(self):
        baseline = SignedLogBaseline()
        window = baseline.sign_window("r1", 0, [make_record()])
        import dataclasses
        tampered = dataclasses.replace(
            window,
            blobs=(make_record(packets=1).to_bytes(),))
        with pytest.raises(IntegrityError, match="signature"):
            baseline.verify_window(tampered)

    def test_unknown_router(self):
        baseline = SignedLogBaseline()
        window = baseline.sign_window("r1", 0, [make_record()])
        import dataclasses
        foreign = dataclasses.replace(window, router_id="ghost")
        with pytest.raises(IntegrityError, match="unknown"):
            baseline.verify_window(foreign)

    def test_disclosure_cost_is_full_raw_bytes(self):
        baseline = SignedLogBaseline()
        records = [make_record(sport=i) for i in range(10)]
        window = baseline.sign_window("r1", 0, records)
        assert window.disclosed_bytes == \
            sum(len(r.to_bytes()) for r in records)


class TestComparison:
    def test_zkp_needs_no_in_network_hardware(self):
        rows = {r.name: r for r in compare_approaches(
            num_vantage_points=50, raw_bytes_per_window=1_000_000,
            journal_bytes=60_000)}
        assert rows["zkp (this work)"].in_network_hardware_units == 0
        assert rows["tee (TrustSketch-style)"] \
            .in_network_hardware_units == 50
        assert rows["signed logs"].in_network_hardware_units == 0

    def test_confidentiality_column(self):
        rows = {r.name: r for r in compare_approaches(10, 100, 10)}
        assert rows["zkp (this work)"].confidentiality
        assert not rows["signed logs"].confidentiality

    def test_disclosure_column(self):
        rows = {r.name: r for r in compare_approaches(
            10, raw_bytes_per_window=5_000_000, journal_bytes=50_000)}
        assert rows["signed logs"].verifier_bytes_disclosed == 5_000_000
        assert rows["zkp (this work)"].verifier_bytes_disclosed == 50_000

    def test_zkp_verification_constant_in_vantage_points(self):
        few = {r.name: r for r in compare_approaches(4, 100, 10)}
        many = {r.name: r for r in compare_approaches(400, 100, 10)}
        assert few["zkp (this work)"].verify_seconds == \
            many["zkp (this work)"].verify_seconds
        assert many["tee (TrustSketch-style)"].verify_seconds > \
            few["tee (TrustSketch-style)"].verify_seconds
