#!/usr/bin/env python3
"""SLA compliance auditing (paper §2.1, second scenario).

"An operator can prove, for example, that at least 90% of flows achieve
RTT < X ms, throughput > Y Gbps, and jitter < Z ms, satisfying the SLA
requirements without exposing any underlying measurement data."

Each SLA clause becomes a pair of verifiable COUNT queries; the client
checks the fraction against the contractual threshold.  The provider's
raw telemetry never leaves its premises.

Run:  python examples/sla_compliance.py
"""

from dataclasses import dataclass

from repro import build_paper_eval_system
from repro.core.system import TelemetrySystem


@dataclass(frozen=True)
class SlaClause:
    """One contractual guarantee: ``fraction`` of flows must satisfy
    ``predicate`` (a WHERE fragment over the CLog schema)."""

    name: str
    predicate: str
    min_fraction: float


SLA = [
    SlaClause("latency", "rtt_avg_us < 200000", 0.90),
    SlaClause("loss", "loss_rate <= 0.05", 0.90),
    SlaClause("jitter", "jitter_avg_us < 50000", 0.85),
]


def audit(system: TelemetrySystem, clauses: list[SlaClause]) -> bool:
    """Run the verifiable SLA audit; returns overall compliance."""
    _response, total = system.query("SELECT COUNT(*) FROM clogs")
    population = total.values[0]
    print(f"auditing SLA over {population} flows "
          f"(telemetry stays private; only counts are revealed)\n")
    all_met = True
    for clause in clauses:
        _resp, good = system.query(
            f"SELECT COUNT(*) FROM clogs WHERE {clause.predicate}")
        fraction = good.values[0] / population if population else 0.0
        met = fraction >= clause.min_fraction
        all_met &= met
        status = "PASS" if met else "FAIL"
        print(f"  [{status}] {clause.name:<8} "
              f"{fraction:6.1%} of flows satisfy "
              f"'{clause.predicate}' "
              f"(required ≥ {clause.min_fraction:.0%})")
    return all_met


def main() -> None:
    system = build_paper_eval_system(target_records=400, seed=31)
    system.aggregate_all()

    compliant = audit(system, SLA)
    print(f"\noverall SLA verdict: "
          f"{'COMPLIANT' if compliant else 'IN BREACH'}")

    # Every number above was accompanied by a zk proof the client
    # verified; show what a dispute would rest on.
    latest = system.prover.chain.latest
    print("\ndispute evidence package:")
    print(f"  aggregation chain: {len(system.prover.chain)} receipts, "
          f"{latest.receipt.seal_size}-byte seals")
    print(f"  committed telemetry root: {latest.header.new_root.short()}…")
    print(f"  router commitments on the bulletin: "
          f"{len(system.bulletin)}")


if __name__ == "__main__":
    main()
