"""Deployment & scalability comparison: ZKP vs TEE vs signed logs.

Quantifies the paper's §1 argument: TEE telemetry "requires deploying
TEEs on every vantage point ... which may be infeasible in large or
heterogeneous environments", while the ZKP design needs no in-network
hardware and moves all heavy computation off-path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.zkvm.costmodel import CostModel, ProverBackend, VERIFY_SECONDS
from .tee import EnclaveSpec


@dataclass(frozen=True)
class ApproachProfile:
    """One row of the comparison table."""

    name: str
    in_network_hardware_units: int
    offpath_compute_units: int
    verifier_bytes_disclosed: int
    verify_seconds: float
    integrity: bool
    confidentiality: bool
    notes: str


def compare_approaches(num_vantage_points: int,
                       raw_bytes_per_window: int,
                       journal_bytes: int,
                       agg_prove_stats=None,
                       cost_model: CostModel | None = None,
                       enclave: EnclaveSpec | None = None
                       ) -> list[ApproachProfile]:
    """Build the comparison table for a deployment of a given scale.

    ``raw_bytes_per_window`` is the total committed raw-log volume;
    ``journal_bytes`` what the ZKP path actually discloses.
    """
    enclave = enclave or EnclaveSpec()
    model = cost_model or CostModel()
    zkp_verify = VERIFY_SECONDS
    zkp_notes = "no special hardware; proving off-path"
    if agg_prove_stats is not None:
        minutes = model.prove_seconds(agg_prove_stats,
                                      ProverBackend.CPU_ZKVM) / 60.0
        zkp_notes += f"; aggregation proof ≈ {minutes:.0f} min (offline)"
    return [
        ApproachProfile(
            name="zkp (this work)",
            in_network_hardware_units=0,
            offpath_compute_units=1,
            verifier_bytes_disclosed=journal_bytes,
            verify_seconds=zkp_verify,
            integrity=True,
            confidentiality=True,
            notes=zkp_notes,
        ),
        ApproachProfile(
            name="tee (TrustSketch-style)",
            in_network_hardware_units=num_vantage_points,
            offpath_compute_units=0,
            verifier_bytes_disclosed=0,
            verify_seconds=num_vantage_points
            * enclave.attestation_latency_ms / 1000.0,
            integrity=True,
            confidentiality=True,
            notes="SGX at every vantage point; attestation per window; "
                  "EPC-limited throughput",
        ),
        ApproachProfile(
            name="signed logs",
            in_network_hardware_units=0,
            offpath_compute_units=0,
            verifier_bytes_disclosed=raw_bytes_per_window,
            verify_seconds=raw_bytes_per_window / 500e6,  # hash at 500MB/s
            integrity=True,
            confidentiality=False,
            notes="verifier receives and recomputes over raw logs",
        ),
    ]
