#!/usr/bin/env python3
"""Quickstart: verifiable network telemetry in ~40 lines.

Builds the paper's §6 evaluation setting (4 routers, 5-second commitment
windows, shared backend), aggregates the committed NetFlow windows under
zero-knowledge proofs, answers the paper's example query, and verifies
everything client-side — in well under a minute of wall time, because
the heavyweight STARK proving is simulated with a calibrated cost model.

Run:  python examples/quickstart.py
"""

from repro import build_paper_eval_system
from repro.zkvm.costmodel import VERIFY_SECONDS, CostModel


def main() -> None:
    # 1. Simulate routers generating + committing NetFlow windows.
    system = build_paper_eval_system(target_records=300)
    print(f"simulated {system.simulator.records_generated} NetFlow "
          f"records across {len(system.store.router_ids())} routers, "
          f"{len(system.bulletin)} window commitments published")

    # 2. The provider aggregates each committed window, producing a
    #    chained zero-knowledge proof per round (Algorithm 1).
    rounds = system.aggregate_all()
    state = system.prover.state
    print(f"aggregated {rounds} rounds -> {len(state)} per-flow CLog "
          f"entries, Merkle root {state.root.short()}…")

    # 3. A client asks the paper's example query; the provider answers
    #    with a result + proof; the client verifies both the proof
    #    chain and the query proof from public material only.
    sql = ('SELECT SUM(hop_count) FROM clogs '
           'WHERE src_ip IN "10.0.0.0/8"')
    response, verified = system.query(sql)
    print(f"query: {sql}")
    print(f"  verified result: {verified.values[0]} "
          f"({verified.matched}/{verified.scanned} flows matched)")
    print(f"  proof seal: {response.receipt.seal_size} bytes, journal: "
          f"{response.receipt.journal_size} bytes")

    # 4. What would this cost on the paper's real prover?
    model = CostModel()
    stats = system.prover.last_prove_info.stats
    print(f"  modeled RISC Zero prove time: "
          f"{model.prove_seconds(stats) / 60:.1f} min "
          f"(verification: {VERIFY_SECONDS * 1000:.0f} ms)")

    # 5. Nothing sensitive left the provider: the journal holds only
    #    the query text, the committed root, and the result.
    journal = response.receipt.journal.decode_one()
    print(f"  public journal keys: {sorted(journal)}")


if __name__ == "__main__":
    main()
