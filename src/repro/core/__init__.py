"""The paper's contribution: verifiable telemetry prover and verifier.

Pipeline (Figure 1):

1. Routers commit RLog windows (:mod:`repro.commitments`).
2. The service provider's :class:`~repro.core.prover_service.ProverService`
   aggregates committed windows into CLogs inside the zkVM (Algorithm 1),
   chaining each round's proof to the previous one.
3. Clients hold a :class:`~repro.core.verifier_client.VerifierClient` and
   issue SQL queries; the provider returns the result plus a query proof
   bound to the latest aggregation root (§4.2).
4. Any post-commitment tampering makes proof generation abort
   (:mod:`repro.core.tamper` provides the injection tools, §5/Figure 3).
"""

from .aggregation import AggregationResult, Aggregator
from .clog import CLogEntry, CLogState
from .chain import AggregationChain, ChainLink
from .policy import AggOp, AggregationPolicy, DEFAULT_POLICY
from .prover_service import ProverService, QueryResponse
from .system import TelemetrySystem, build_paper_eval_system
from .tamper import (
    TamperKind,
    TamperOutcome,
    corrupt_record_bytes,
    modify_record_field,
    reorder_window,
    run_tamper_experiment,
    truncate_window,
)
from .verifier_client import VerifierClient

__all__ = [
    "AggOp",
    "AggregationChain",
    "AggregationPolicy",
    "AggregationResult",
    "Aggregator",
    "CLogEntry",
    "CLogState",
    "ChainLink",
    "DEFAULT_POLICY",
    "ProverService",
    "QueryResponse",
    "TamperKind",
    "TamperOutcome",
    "TelemetrySystem",
    "VerifierClient",
    "build_paper_eval_system",
    "corrupt_record_bytes",
    "modify_record_field",
    "reorder_window",
    "run_tamper_experiment",
    "truncate_window",
]
