"""Integration tests for federation: K-provider joins, and the §2.1
two-party peering dispute as the K=2 case."""

import pytest

from repro.errors import ConfigurationError, ProofError
from repro.federation import (
    FederationAuditor,
    FederationJoinProver,
    build_federation_scenario,
)


def join_and_audit(scenario, tolerance_ppm=0):
    with FederationJoinProver(tolerance_ppm=tolerance_ppm) as prover:
        join = prover.prove_join(scenario)
    report = FederationAuditor().audit(
        scenario.public_views(), scenario.board, join)
    return join, report


def join_boundary(a_totals, b_totals, tolerance_ppm):
    """Run the join guest over two synthetic totals-query receipts.

    ``a_totals`` / ``b_totals`` are ``(packets, lost, flows)``; returns
    the committed ``boundaries`` row ``[src, dst, sent, received, gap,
    ok]``.  The bindings' claims stay unresolved assumptions: this pins
    the guest's boundary arithmetic, not receipt resolution.
    """
    from repro.core.guest_programs import (
        FEDERATION_TOTALS_SQL,
        federation_join_guest,
        query_guest,
    )
    from repro.hashing import Digest
    from repro.serialization import encode
    from repro.zkvm import Executor, ExecutorEnvBuilder
    roots = [Digest(bytes([1]) * 32), Digest(bytes([2]) * 32)]
    builder = ExecutorEnvBuilder()
    builder.write({"num_providers": 2, "providers": ["isp-a", "isp-b"],
                   "roots": roots, "tolerance_ppm": tolerance_ppm,
                   "sla_loss_ppm": 1_000_000})
    for root, totals in zip(roots, (a_totals, b_totals)):
        journal = {"query": FEDERATION_TOTALS_SQL, "root": root,
                   "values": list(totals), "round": 0}
        builder.write({"image_id": query_guest.image_id,
                       "input_digest": Digest.zero(), "exit_code": 0,
                       "total_cycles": 0, "segment_count": 1,
                       "journal": encode(journal)})
    session = Executor().execute(federation_join_guest, builder.build())
    assert session.abort_reason is None
    (row,) = session.journal.decode_one()["boundaries"]
    return row


@pytest.fixture(scope="module")
def peering():
    scenario = build_federation_scenario(num_providers=2, num_flows=60,
                                         seed=11, boundary_loss=0.02)
    join, report = join_and_audit(scenario)
    return scenario, join, report


class TestHonestReconciliation:
    def test_conservation_holds_exactly(self, peering):
        _, join, report = peering
        assert report.consistent
        (boundary,) = report.boundaries
        assert boundary.gap == 0
        (_, _, flows_a), (_, _, flows_b) = join.journal["totals"]
        assert flows_a == flows_b == 60

    def test_join_guest_conserves_exactly(self):
        assert join_boundary((1000, 10, 5), (990, 0, 5), 0) == \
            ["isp-a", "isp-b", 990, 990, 0, True]

    def test_boundary_loss_visible_in_a_chain(self, peering):
        """A's proven loss includes the peering-link losses."""
        scenario, _, _ = peering
        response = scenario.domain("isp-a").prover.answer_query(
            "SELECT SUM(lost_packets), SUM(packets) FROM clogs")
        lost, packets = response.values
        assert lost > 0
        assert lost < packets

    def test_domains_are_isolated(self, peering):
        """Each domain's chain covers only its own routers."""
        scenario, _, _ = peering
        for domain, routers in zip(scenario.providers,
                                   ({"r1", "r2"}, {"r3", "r4"})):
            header = domain.prover.chain.latest.header
            assert {r for r, _w, _c in header.windows} == routers

    def test_report_rendering(self, peering):
        _, _, report = peering
        assert "CONSISTENT" in str(report)


class TestDisputes:
    def test_understating_b_breaks_its_own_proofs(self):
        """B rewrites its ingress logs to claim it received less
        (billing dispute): B's chain simply cannot be produced — the
        window is quarantined and the join is refused."""
        scenario = build_federation_scenario(num_providers=2,
                                             num_flows=30, seed=13)
        from repro.core.tamper import modify_record_field
        store_b = scenario.domain("isp-b").store
        record = store_b.window_records("r3", 0)[0]
        modify_record_field(store_b, "r3", 0, 0,
                            packets=record.packets // 2,
                            octets=record.octets // 2)
        prover_b = scenario.domain("isp-b").prover
        assert prover_b.aggregate_all_committed() == []
        assert "commitment mismatch" in prover_b.quarantined[0]
        with FederationJoinProver() as prover:
            with pytest.raises(ProofError,
                               match="'isp-b' has quarantined window.*"
                                     "window 0: GuestAbort"):
                prover.prove_join(scenario)

    def test_tampered_provider_publishes_no_root(self):
        from repro.core.tamper import truncate_window
        scenario = build_federation_scenario(num_providers=2,
                                             num_flows=10, seed=9)
        truncate_window(scenario.domain("isp-b").store, "r3", 0, keep=1)
        with pytest.raises(ProofError,
                           match="'isp-b' has quarantined window"):
            scenario.aggregate_and_publish()
        with pytest.raises(ProofError, match="published no roots"):
            scenario.board.latest("isp-b")

    def test_mismatched_claims_flagged(self):
        """If the two domains genuinely account differently (here: a
        synthetic 10% gap against a 1% tolerance), the boundary is not
        ok."""
        assert join_boundary((100_000, 0, 50), (90_000, 0, 50),
                             10_000) == \
            ["isp-a", "isp-b", 100_000, 90_000, 10_000, False]

    def test_flow_count_mismatch_flagged(self):
        assert join_boundary((1000, 0, 5), (1000, 0, 4), 100_000) == \
            ["isp-a", "isp-b", 1000, 1000, 0, False]

    def test_tolerance(self):
        """A gap of 50 in 100,000 (500 ppm) is within 1,000 ppm."""
        assert join_boundary((100_000, 0, 5), (99_950, 0, 5), 1_000) == \
            ["isp-a", "isp-b", 100_000, 99_950, 50, True]

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            FederationJoinProver(tolerance_ppm=-1)


class TestScenarioConstruction:
    def test_all_flows_cross_the_boundary(self, peering):
        """Every flow appears in both domains (r1 ingress, r4 egress)."""
        scenario, _, _ = peering
        a_flows = {r.key for r in
                   scenario.domain("isp-a").store.window_records("r1", 0)}
        b_flows = {r.key for r in
                   scenario.domain("isp-b").store.window_records("r3", 0)}
        assert a_flows == b_flows

    def test_wrong_domain_record_rejected(self, peering):
        from ..conftest import make_record
        scenario, _, _ = peering
        with pytest.raises(ConfigurationError, match="does not belong"):
            scenario.domain("isp-a").commit_window(
                5, [make_record(router_id="r4")])


class TestRegressionFixes:
    """Regressions for two reconciliation bugs.

    A zero guard on the *delivering* side alone turned "A delivered
    nothing while B received packets" into a silent pass; the join
    guest guards on the larger side.  A domain with one round proven
    and another window pending must be joined over *all* committed
    data, not a stale round.
    """

    def test_zero_delivery_gap_is_total_not_zero(self):
        assert join_boundary((0, 0, 5), (500, 0, 5), 10_000) == \
            ["isp-a", "isp-b", 0, 500, -500, False]

    def test_both_zero_is_consistent(self):
        assert join_boundary((0, 0, 0), (0, 0, 0), 0) == \
            ["isp-a", "isp-b", 0, 0, 0, True]

    def test_reconcile_covers_stale_pending_windows(self):
        scenario = build_federation_scenario(num_providers=2,
                                             num_flows=24, seed=3,
                                             num_windows=2)
        domain_a, domain_b = scenario.providers
        domain_a.prover.aggregate_window(0)
        assert domain_a.prover.pending_windows() == [1]
        join, report = join_and_audit(scenario)
        assert not domain_a.prover.pending_windows()
        assert not domain_b.prover.pending_windows()
        assert report.consistent
        (_, _, flows_a), (_, _, flows_b) = join.journal["totals"]
        assert flows_a == flows_b == 24


class TestFederationJoin:
    """K-provider joins: one receipt replaces K query responses."""

    @pytest.fixture(scope="class")
    def federation(self):
        from repro.federation import (
            FederationAuditor,
            FederationJoinProver,
            build_federation_scenario,
        )
        scenario = build_federation_scenario(
            num_providers=3, num_flows=36, seed=5,
            boundary_loss=0.02)
        prover = FederationJoinProver(tolerance_ppm=0)
        join = prover.prove_join(scenario)
        report = FederationAuditor().audit(
            scenario.public_views(), scenario.board, join)
        yield scenario, prover, join, report
        prover.close()

    def test_audit_is_consistent(self, federation):
        scenario, _, join, report = federation
        assert report.consistent
        assert report.flagged == ()
        assert join.providers == ("isp-a", "isp-b", "isp-c")
        assert "CONSISTENT" in str(report)

    def test_conservation_across_every_boundary(self, federation):
        """Proven per-boundary conservation: what i delivered is
        exactly what i+1 ingested, for every adjacent pair."""
        _, _, join, report = federation
        assert len(report.boundaries) == 2
        for boundary in report.boundaries:
            assert boundary.ok
            assert boundary.gap == 0
            assert boundary.trusted
        # The matrix rows are the boundary sends.
        assert [tuple(row) for row in join.journal["matrix"]] == [
            (b.src, b.dst, b.sent) for b in report.boundaries]

    def test_path_loss_matches_totals(self, federation):
        _, _, join, report = federation
        path = report.path
        assert path["offered"] - path["delivered"] == path["lost"]
        assert path["lost"] > 0  # boundary_loss=0.02 loses something
        assert join.journal["path"]["loss_ppm"] == path["loss_ppm"]

    def test_join_roots_are_the_verified_chain_roots(self, federation):
        scenario, _, join, report = federation
        for index, domain in enumerate(scenario.providers):
            chain_root = domain.prover.chain.latest.header.new_root
            assert join.roots[index] == chain_root
            assert report.providers[index].verified_root == chain_root

    def test_no_raw_records_cross_domain_boundaries(self, federation):
        """The inter-domain artifact is the join receipt: no record
        bytes and no flow key appears in its journal."""
        scenario, _, join, _ = federation
        journal_bytes = join.receipt.journal.data
        for domain in scenario.providers:
            for router_id in domain.router_ids:
                for record in domain.store.window_records(router_id, 0):
                    assert record.to_bytes() not in journal_bytes
                    assert record.key.pack() not in journal_bytes

    def test_sla_violation_detected(self, federation):
        """With a 0-ppm SLA ceiling the lossy providers must fail."""
        from repro.federation import FederationJoinProver
        scenario, prover, _, _ = federation
        strict = FederationJoinProver(engine=prover._engine,
                                      sla_loss_ppm=0)
        join = strict.prove_join(scenario)
        assert not join.journal["sla"]["ok"]
        assert False in join.journal["sla"]["providers"]


class TestByzantineProvider:
    """A provider that equivocates on its published root is caught."""

    @pytest.fixture()
    def scenario(self):
        from repro.federation import build_federation_scenario
        built = build_federation_scenario(num_providers=2,
                                          num_flows=10, seed=9)
        built.aggregate_and_publish()
        return built

    def test_join_over_tampered_root_aborts(self, scenario):
        """The coordinator feeds the join guest a root that does not
        match the provider's proven round: deterministic abort."""
        from repro.errors import GuestAbort
        from repro.federation import FederationJoinProver
        from repro.hashing import Digest
        true_root = scenario.board.latest("isp-a")[1]
        fake_root = Digest(bytes(32))
        with FederationJoinProver() as prover:
            with pytest.raises(GuestAbort, match="isp-b"):
                prover.prove_join(scenario,
                                  roots=[true_root, fake_root])
            # Deterministic: same tamper, same abort.
            with pytest.raises(GuestAbort, match="isp-b"):
                prover.prove_join(scenario,
                                  roots=[true_root, fake_root])

    def test_auditor_flags_only_the_equivocator(self, scenario):
        """An honest join followed by a board tamper: the auditor
        flags exactly the tampered provider; the honest one's audit
        is untouched and the proven boundary itself still balances."""
        from repro.federation import (
            FederationAuditor,
            FederationJoinProver,
        )
        from repro.hashing import Digest
        with FederationJoinProver() as prover:
            join = prover.prove_join(scenario)
        round_index = scenario.board.latest("isp-b")[0]
        scenario.board.publish("isp-b", round_index,
                               Digest(bytes(32)), replace=True)
        report = FederationAuditor().audit(
            scenario.public_views(), scenario.board, join)
        assert report.flagged == ("isp-b",)
        assert not report.consistent
        audit_a, audit_b = report.providers
        assert not audit_a.flagged and audit_a.reason == ""
        assert audit_b.reason == "tampered-root"
        # The proven arithmetic still holds; only trust is withdrawn.
        assert all(b.ok for b in report.boundaries)
        assert all(not b.trusted for b in report.boundaries)
