"""Integration tests for inter-domain peering reconciliation."""

import pytest

from repro.core.federation import (
    PeeringAuditor,
    ReconciliationReport,
    build_peering_scenario,
)
from repro.errors import ConfigurationError, ProofError


@pytest.fixture(scope="module")
def scenario():
    return build_peering_scenario(num_flows=60, seed=11,
                                  boundary_loss=0.02)


class TestHonestReconciliation:
    def test_conservation_holds_exactly(self, scenario):
        report = PeeringAuditor(tolerance=0.0).reconcile(scenario)
        assert report.consistent
        assert report.gap == 0
        assert report.flows_a == report.flows_b == 60

    def test_boundary_loss_visible_in_a_chain(self, scenario):
        """A's proven loss includes the peering-link losses."""
        response = scenario.domain_a.prover.answer_query(
            "SELECT SUM(lost_packets), SUM(packets) FROM clogs")
        lost, packets = response.values
        assert lost > 0
        assert lost < packets

    def test_domains_are_isolated(self, scenario):
        """Each domain's chain covers only its own routers."""
        for domain, routers in ((scenario.domain_a, {"r1", "r2"}),
                                (scenario.domain_b, {"r3", "r4"})):
            header = domain.prover.chain.latest.journal_header
            assert {w["r"] for w in header["windows"]} == routers

    def test_report_rendering(self, scenario):
        report = PeeringAuditor().reconcile(scenario)
        assert "CONSISTENT" in str(report)


class TestDisputes:
    def test_understating_b_breaks_its_own_proofs(self):
        """B rewrites its ingress logs to claim it received less
        (billing dispute): B's chain simply cannot be produced — the
        window is quarantined and the auditor refuses to reconcile."""
        scenario = build_peering_scenario(num_flows=30, seed=13)
        from repro.core.tamper import modify_record_field
        record = scenario.domain_b.store.window_records("r3", 0)[0]
        modify_record_field(scenario.domain_b.store, "r3", 0, 0,
                            packets=record.packets // 2,
                            octets=record.octets // 2)
        prover_b = scenario.domain_b.prover
        assert prover_b.aggregate_all_committed() == []
        assert "commitment mismatch" in prover_b.quarantined[0]
        with pytest.raises(ProofError,
                           match="'isp-b' has quarantined window.*"
                                 "window 0: GuestAbort"):
            PeeringAuditor().reconcile(scenario)

    def test_tampered_provider_publishes_no_root(self):
        from repro.core.tamper import truncate_window
        from repro.federation import build_federation_scenario
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
        synthetic gap), the auditor's report says DISPUTED."""
        report = ReconciliationReport(
            delivered_by_a=100_000, received_by_b=90_000,
            flows_a=50, flows_b=50, tolerance=0.01)
        assert not report.consistent
        assert report.gap == 10_000
        assert "DISPUTED" in str(report)

    def test_flow_count_mismatch_flagged(self):
        report = ReconciliationReport(
            delivered_by_a=1000, received_by_b=1000,
            flows_a=10, flows_b=9, tolerance=0.1)
        assert not report.consistent

    def test_tolerance(self):
        report = ReconciliationReport(
            delivered_by_a=100_000, received_by_b=99_950,
            flows_a=5, flows_b=5, tolerance=0.001)
        assert report.consistent
        assert report.relative_gap == pytest.approx(0.0005)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            PeeringAuditor(tolerance=-1)


class TestScenarioConstruction:
    def test_all_flows_cross_the_boundary(self, scenario):
        """Every flow appears in both domains (r1 ingress, r4 egress)."""
        a_flows = {r.key for r in
                   scenario.domain_a.store.window_records("r1", 0)}
        b_flows = {r.key for r in
                   scenario.domain_b.store.window_records("r3", 0)}
        assert a_flows == b_flows

    def test_wrong_domain_record_rejected(self, scenario):
        from ..conftest import make_record
        with pytest.raises(ConfigurationError, match="does not belong"):
            scenario.domain_a.commit_window(
                5, [make_record(router_id="r4")])


class TestRegressionFixes:
    """Regressions for two reconciliation bugs.

    Both tests fail on the pre-fix code: ``relative_gap`` normalized by
    ``delivered_by_a`` alone (0/0 -> "0.0", i.e. a silent pass when A
    claimed nothing), and ``reconcile`` only aggregated when a domain's
    chain was *completely* empty, so a partially-aggregated domain was
    reconciled against a stale round.
    """

    def test_zero_delivery_gap_is_total_not_zero(self):
        report = ReconciliationReport(
            delivered_by_a=0, received_by_b=500,
            flows_a=5, flows_b=5, tolerance=0.01)
        assert report.relative_gap == 1.0
        assert not report.consistent

    def test_both_zero_is_consistent(self):
        report = ReconciliationReport(
            delivered_by_a=0, received_by_b=0,
            flows_a=0, flows_b=0, tolerance=0.0)
        assert report.relative_gap == 0.0
        assert report.consistent

    def test_reconcile_covers_stale_pending_windows(self):
        """A domain with one round proven and another window still
        pending must be reconciled over *all* committed data."""
        scenario = build_peering_scenario(num_flows=24, seed=3,
                                          num_windows=2)
        scenario.domain_a.prover.aggregate_window(0)
        assert scenario.domain_a.prover.pending_windows() == [1]
        report = PeeringAuditor(tolerance=0.0).reconcile(scenario)
        assert not scenario.domain_a.prover.pending_windows()
        assert not scenario.domain_b.prover.pending_windows()
        assert report.consistent
        assert report.flows_a == report.flows_b == 24


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
        assert join.matrix == tuple(
            (b.src, b.dst, b.sent) for b in report.boundaries)

    def test_path_loss_matches_totals(self, federation):
        _, _, join, report = federation
        path = report.path
        assert path["offered"] - path["delivered"] == path["lost"]
        assert path["lost"] > 0  # boundary_loss=0.02 loses something
        assert join.path_loss_ppm == path["loss_ppm"]

    def test_join_roots_are_the_verified_chain_roots(self, federation):
        scenario, _, join, report = federation
        for index, domain in enumerate(scenario.providers):
            chain_root = domain.prover.chain.latest.new_root
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
        assert not join.sla_ok
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
