"""repro — verifiable network telemetry without special-purpose hardware.

A full reproduction of the HotNets '25 paper "Towards Verifiable Network
Telemetry without Special Purpose Hardware" (An, Zhu, Miers, Liu): a
software-only telemetry verification system combining per-router hash
commitments, Merkle-authenticated aggregation, and zero-knowledge proofs
generated in a general-purpose zkVM.

Quickstart::

    from repro import build_paper_eval_system

    system = build_paper_eval_system(target_records=200)
    system.aggregate_all()
    response, verified = system.query(
        'SELECT SUM(hop_count) FROM clogs '
        'WHERE src_ip IN "10.0.0.0/8"')
    print(verified.values)

Packages:

* :mod:`repro.core` — prover service, verifier client, Algorithm 1.
* :mod:`repro.zkvm` — the RISC Zero-style proof VM (simulated backend).
* :mod:`repro.netflow` — NetFlow v9, topologies, traffic, simulator.
* :mod:`repro.merkle` — authenticated data structures.
* :mod:`repro.commitments` — per-router hash commitments + bulletin.
* :mod:`repro.storage` — shared log store (memory / sqlite).
* :mod:`repro.query` — the SQL-subset query language.
* :mod:`repro.sketch` — pluggable sketching telemetry summaries.
* :mod:`repro.obs` — tracing/metrics/profiling (no-op until enabled);
  see ``docs/OBSERVABILITY.md`` for the instrumentation contract.
"""

from ._version import __version__
from .core import (
    ProverService,
    TelemetrySystem,
    VerifierClient,
    build_paper_eval_system,
)
from .errors import ReproError
from .hashing import Digest

__all__ = [
    "Digest",
    "ProverService",
    "ReproError",
    "TelemetrySystem",
    "VerifierClient",
    "__version__",
    "build_paper_eval_system",
]
