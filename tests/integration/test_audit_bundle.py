"""Integration tests for audit bundles."""

import json

import pytest

from repro.core.audit import AuditBundle, BUNDLE_VERSION, verify_bundle
from repro.errors import ReproError


@pytest.fixture(scope="module")
def bundle_setup():
    from repro.core.system import SystemConfig, TelemetrySystem
    system = TelemetrySystem(SystemConfig(seed=11, flows_per_tick=5))
    system.generate(150)
    system.aggregate_all()
    responses = [
        system.prover.answer_query("SELECT COUNT(*) FROM clogs"),
        system.prover.answer_query(
            "SELECT SUM(lost_packets) FROM clogs GROUP BY protocol"),
    ]
    bundle = AuditBundle.from_service(
        system.prover, responses, metadata={"operator": "test-isp"})
    return system, bundle


class TestRoundTrip:
    def test_bundle_verifies(self, bundle_setup):
        _system, bundle = bundle_setup
        report = verify_bundle(bundle)
        assert report.rounds == len(bundle.chain)
        assert len(report.queries) == 2
        assert "rounds verified" in report.summary()

    def test_json_roundtrip_preserves_verifiability(self, bundle_setup):
        _system, bundle = bundle_setup
        restored = AuditBundle.from_json_bytes(bundle.to_json_bytes())
        report = verify_bundle(restored)
        assert report.final_root == verify_bundle(bundle).final_root
        assert restored.metadata == {"operator": "test-isp"}

    def test_bundle_is_self_contained(self, bundle_setup):
        """Verification works with the provider's systems gone —
        only the serialized bytes survive."""
        _system, bundle = bundle_setup
        data = bundle.to_json_bytes()
        del bundle
        report = verify_bundle(AuditBundle.from_json_bytes(data))
        assert report.rounds >= 1

    def test_checkpoint_key_of_older_bundles_is_ignored(self, bundle_setup):
        """Version-1 bundles once carried an unsigned log checkpoint
        computed from the chain; it is read past, not checked."""
        _system, bundle = bundle_setup
        doc = json.loads(bundle.to_json_bytes().decode())
        assert "checkpoint" not in doc
        doc["checkpoint"] = {"size": len(doc["chain"]), "root": "22" * 32}
        report = verify_bundle(AuditBundle.from_json_bytes(
            json.dumps(doc).encode()))
        assert report.final_root == verify_bundle(bundle).final_root

    def test_grouped_query_in_bundle(self, bundle_setup):
        _system, bundle = bundle_setup
        report = verify_bundle(bundle)
        grouped = [q for q in report.queries if q["groups"]]
        assert grouped, "expected the GROUP BY query to carry groups"


def _drop_window_index(doc):
    del doc["commitments"][0]["window_index"]
    return doc


def _non_string_chain_entry(doc):
    doc["chain"][0] = 7
    return doc


def _non_hex_digest(doc):
    doc["commitments"][0]["digest"] = "zz" * 32
    return doc


MALFORMED = {
    "version-only": lambda doc: {"version": BUNDLE_VERSION},
    "commitment-missing-window-index": _drop_window_index,
    "non-string-chain-entry": _non_string_chain_entry,
    "non-hex-digest": _non_hex_digest,
    "top-level-list": lambda doc: [doc],
}


class TestRejections:
    def _doc(self, bundle) -> dict:
        return json.loads(bundle.to_json_bytes().decode())

    def test_tampered_commitment_rejected(self, bundle_setup):
        _system, bundle = bundle_setup
        doc = self._doc(bundle)
        doc["commitments"][0]["digest"] = "11" * 32
        with pytest.raises(ReproError):
            verify_bundle(AuditBundle.from_json_bytes(
                json.dumps(doc).encode()))

    def test_dropped_round_rejected(self, bundle_setup):
        _system, bundle = bundle_setup
        if len(bundle.chain) < 2:
            pytest.skip("need two rounds")
        doc = self._doc(bundle)
        doc["chain"] = doc["chain"][1:]  # drop genesis
        with pytest.raises(ReproError):
            verify_bundle(AuditBundle.from_json_bytes(
                json.dumps(doc).encode()))

    def test_foreign_query_receipt_rejected(self, bundle_setup):
        """A query receipt proven against a different deployment's
        chain does not verify inside this bundle."""
        system, bundle = bundle_setup
        from repro.core.system import SystemConfig, TelemetrySystem
        other = TelemetrySystem(SystemConfig(seed=99, flows_per_tick=5))
        other.generate(80)
        other.aggregate_all()
        foreign = other.prover.answer_query(
            "SELECT COUNT(*) FROM clogs")
        doc = self._doc(bundle)
        doc["query_receipts"].append(
            foreign.receipt.to_json_bytes().decode())
        with pytest.raises(ReproError):
            verify_bundle(AuditBundle.from_json_bytes(
                json.dumps(doc).encode()))

    def test_unsupported_version(self, bundle_setup):
        _system, bundle = bundle_setup
        doc = self._doc(bundle)
        doc["version"] = BUNDLE_VERSION + 1
        with pytest.raises(ReproError, match="version"):
            AuditBundle.from_json_bytes(json.dumps(doc).encode())

    def test_garbage_rejected(self):
        with pytest.raises(ReproError, match="malformed"):
            AuditBundle.from_json_bytes(b"\xff\xfe not json")

    @pytest.mark.parametrize("mutate", MALFORMED.values(),
                             ids=MALFORMED.keys())
    def test_malformed_document_rejected(self, bundle_setup, mutate):
        _system, bundle = bundle_setup
        doc = mutate(self._doc(bundle))
        with pytest.raises(ReproError, match="malformed bundle"):
            AuditBundle.from_json_bytes(json.dumps(doc).encode())
