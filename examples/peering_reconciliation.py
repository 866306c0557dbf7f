#!/usr/bin/env python3
"""Inter-domain peering reconciliation (paper §1/§2.1).

Two ISPs exchange traffic over a peering link and bill each other by
delivered volume.  Historically this runs on "private monitoring and
contractual trust"; here both sides run the verifiable-telemetry
pipeline over their own routers, and the reconciliation is the K=2
case of the federation join:

    A proves  SUM(packets) − SUM(lost_packets)   (what it delivered)
    B proves  SUM(packets)                        (what it received)

and the join guest proves the comparison itself, so a neutral auditor
checks one receipt instead of redoing the arithmetic.  Neither side
reveals a flow record; a mismatch localizes the dispute to the
boundary; and a side that rewrites its logs to cheat simply cannot
produce proofs at all.

Run:  python examples/peering_reconciliation.py
"""

from repro.core.tamper import modify_record_field
from repro.errors import ProofError
from repro.federation import (
    FederationAuditor,
    FederationJoinProver,
    build_federation_scenario,
)


def main() -> None:
    scenario = build_federation_scenario(num_providers=2, num_flows=80,
                                         seed=21, boundary_loss=0.015)
    a, b = scenario.providers
    for domain in (a, b):
        print(f"domain {domain.name}: routers {domain.router_ids}, "
              f"{len(domain.bulletin)} commitments")

    # Each side proves its totals; the join guest reconciles them; the
    # neutral auditor verifies both chains and the join receipt.
    with FederationJoinProver(tolerance_ppm=0) as prover:
        join = prover.prove_join(scenario)
    report = FederationAuditor().audit(
        scenario.public_views(), scenario.board, join)
    print(f"\nauditor verdict: {report}\n")

    # What the auditor actually saw: two proof chains and one join
    # receipt — zero raw records.
    for domain in (a, b):
        link = domain.prover.chain.latest
        print(f"  {domain.name}: round {link.round} receipt "
              f"({link.receipt.seal_size} B seal), root "
              f"{link.header.new_root.short()}…")
    print(f"  join: {join.receipt.seal_size} B seal over "
          f"{len(join.providers)} providers")

    # A cheating peer: B halves its ingress counters to dispute the
    # bill — and thereby loses the ability to prove anything.
    print("\nISP B rewrites its ingress logs to dispute the bill…")
    cheat = build_federation_scenario(num_providers=2, num_flows=80,
                                      seed=21, boundary_loss=0.015)
    victim_store = cheat.domain("isp-b").store
    victim = victim_store.window_records("r3", 0)[0]
    modify_record_field(victim_store, "r3", 0, 0,
                        packets=victim.packets // 2,
                        octets=victim.octets // 2)
    try:
        with FederationJoinProver() as prover:
            prover.prove_join(cheat)
        print("  reconciliation succeeded — BUG")
    except ProofError as exc:
        print(f"  B cannot produce its chain: {exc}")


if __name__ == "__main__":
    main()
