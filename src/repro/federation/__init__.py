"""Federated multi-provider telemetry (ROADMAP item 4).

The paper's prover is a single provider; its motivating disputes —
peering SLAs, inter-domain loss blame — cross provider boundaries.
This package proves them for K mutually distrustful providers; the
§2.1 two-party peering dispute is the K=2 case:

* :mod:`.scenario` — :class:`FederationScenario`: K provider domains in
  a delivery chain, each running its own commitment/aggregation
  pipeline over only its own routers, publishing per-round roots to a
  shared :class:`RootBoard`;
* :mod:`.join` — :class:`FederationJoinProver`: routes one canonical
  totals query per provider through
  :meth:`~repro.engine.scheduler.ProvingEngine.submit_fanout` and folds
  the verified receipts inside the zkVM
  (:data:`~repro.core.guest_programs.federation_join_guest`) into a
  single proven cross-provider join — end-to-end path loss, the
  inter-domain traffic matrix, an SLA attestation;
* :mod:`.audit` — :class:`FederationAuditor`: verifies every provider
  chain and the join receipt from public material alone, flagging any
  provider whose published root does not match its proven round.

No provider's raw records ever cross a domain boundary: the only
inter-domain artifacts are receipts, journals (aggregates and digests)
and published roots.
"""

from .audit import FederationAuditor, FederationReport, ProviderAudit
from .join import FEDERATION_TOTALS_SQL, FederationJoinProver, FederationJoinResult
from .scenario import FederationScenario, RootBoard, build_federation_scenario

__all__ = [
    "FEDERATION_TOTALS_SQL",
    "FederationAuditor",
    "FederationJoinProver",
    "FederationJoinResult",
    "FederationReport",
    "FederationScenario",
    "ProviderAudit",
    "RootBoard",
    "build_federation_scenario",
]
