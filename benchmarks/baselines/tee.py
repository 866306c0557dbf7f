"""TEE (Intel SGX-style) telemetry baseline model.

Models the prior approach the paper positions against (TrustSketch [8]):
telemetry algorithms execute inside enclaves at *every* vantage point,
giving integrity and confidentiality at capture time — at the price of
special-purpose hardware everywhere, remote-attestation infrastructure,
and the well-known SGX scalability cliffs (EPC paging, enclave
transition overhead).

The model is analytic + simulated: :class:`TEETelemetryModel` runs real
record streams through a simulated enclave (producing attested state
digests), while the cost functions quantify deployment and throughput
for the comparison benchmark.
"""

from __future__ import annotations

import hmac
import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError, IntegrityError
from repro.hashing import Digest, hash_many
from repro.netflow.records import NetFlowRecord


@dataclass(frozen=True)
class EnclaveSpec:
    """SGX-like enclave parameters (defaults ≈ SGX1 client parts)."""

    epc_usable_mb: float = 93.0          # usable EPC after metadata
    paging_slowdown: float = 30.0        # throughput hit beyond EPC
    transition_overhead_us: float = 8.0  # ecall/ocall round trip
    attestation_latency_ms: float = 150.0
    record_bytes_in_enclave: int = 256   # working-set per record
    base_throughput_rps: float = 500_000.0

    def __post_init__(self) -> None:
        if self.epc_usable_mb <= 0:
            raise ConfigurationError("epc_usable_mb must be positive")

    def working_set_limit_records(self) -> int:
        """How many in-flight records fit in EPC before paging."""
        return int(self.epc_usable_mb * 1024 * 1024
                   / self.record_bytes_in_enclave)

    def throughput_rps(self, resident_records: int) -> float:
        """Modeled records/second at a given enclave working set."""
        per_record_s = 1.0 / self.base_throughput_rps \
            + self.transition_overhead_us / 1e6
        if resident_records > self.working_set_limit_records():
            per_record_s *= self.paging_slowdown
        return 1.0 / per_record_s


@dataclass(frozen=True)
class AttestationReport:
    """A simulated SGX quote: measurement + report data + MAC."""

    enclave_measurement: Digest
    report_data: Digest
    mac: bytes

    def verify(self, expected_measurement: Digest,
               platform_key: bytes) -> None:
        if self.enclave_measurement != expected_measurement:
            raise IntegrityError("attestation measurement mismatch")
        expected = _quote_mac(platform_key, self.enclave_measurement,
                              self.report_data)
        if not hmac.compare_digest(self.mac, expected):
            raise IntegrityError("attestation MAC invalid")


def _quote_mac(platform_key: bytes, measurement: Digest,
               report_data: Digest) -> bytes:
    return hmac.new(platform_key, measurement.raw + report_data.raw,
                    hashlib.sha256).digest()


# The "enclave binary" measurement — digest of the telemetry logic.
_TELEMETRY_MEASUREMENT = hash_many(
    "repro/tee/measurement", [b"tee-telemetry-enclave-v1"])


@dataclass
class TEETelemetryModel:
    """One TEE vantage point: simulated enclave + attestation.

    The enclave folds records into a running state digest; ``attest``
    emits a quote over that digest.  Verification requires trusting the
    platform key (the hardware root of trust the paper wants to avoid).
    """

    spec: EnclaveSpec = field(default_factory=EnclaveSpec)
    platform_key: bytes = b"sgx-platform-root-of-trust"

    def __post_init__(self) -> None:
        self._state = hash_many("repro/tee/state", [b"init"])
        self._record_count = 0

    @property
    def measurement(self) -> Digest:
        return _TELEMETRY_MEASUREMENT

    @property
    def record_count(self) -> int:
        return self._record_count

    def ingest(self, record: NetFlowRecord) -> None:
        """Fold one record into the enclave state (in-enclave hash)."""
        self._state = hash_many("repro/tee/state",
                                [self._state.raw, record.to_bytes()])
        self._record_count += 1

    def attest(self) -> AttestationReport:
        """Produce a quote binding the current telemetry state."""
        return AttestationReport(
            enclave_measurement=self.measurement,
            report_data=self._state,
            mac=_quote_mac(self.platform_key, self.measurement,
                           self._state),
        )

    # -- deployment cost model ------------------------------------------------

    def processing_seconds(self, num_records: int,
                           resident_records: int | None = None) -> float:
        resident = resident_records if resident_records is not None \
            else num_records
        return num_records / self.spec.throughput_rps(resident)

    def deployment_requirements(self,
                                num_vantage_points: int) -> dict[str, Any]:
        """What rolling TEE telemetry out to N vantage points takes."""
        return {
            "sgx_machines_required": num_vantage_points,
            "attestation_rounds_per_window": num_vantage_points,
            "attestation_latency_s":
                num_vantage_points
                * self.spec.attestation_latency_ms / 1000.0,
            "trust_anchors": ["Intel attestation service",
                              "per-machine platform keys"],
            "in_network_hardware": True,
        }
