"""Unit tests: message envelopes, error-code registry, wire codecs."""

import pytest

from repro.commitments import Commitment
from repro.core.prover_service import ProverService
from repro.errors import (
    ChainError,
    FrameTooLarge,
    IntegrityError,
    MissingCommitment,
    ProofError,
    ProtocolError,
    QuerySyntaxError,
    RemoteError,
    SerializationError,
    VerificationError,
)
from repro.net.messages import (
    PROTOCOL_VERSION,
    Envelope,
    MessageKind,
    error_code_for,
    error_response,
    ok_response,
    raise_remote,
    request,
)
from repro.serialization import (
    decode,
    decode_query_response,
    decode_receipt,
    encode,
    encode_commitment,
    encode_query_response,
    encode_receipt,
)

from ..conftest import make_committed_records


class TestEnvelope:
    def test_request_round_trip(self):
        env = request(7, MessageKind.QUERY,
                      {"sql": "SELECT COUNT(*) FROM clogs",
                       "round": None})
        decoded = Envelope.from_bytes(env.to_bytes())
        assert decoded == env
        assert decoded.type == "req"
        assert decoded.request_id == 7

    def test_ok_and_error_round_trip(self):
        for env in (ok_response(3, "health", {"status": "ok"}),
                    error_response(4, "query", "query-syntax",
                                   "bad token")):
            assert Envelope.from_bytes(env.to_bytes()) == env

    def test_version_mismatch_rejected(self):
        payload = encode({"v": PROTOCOL_VERSION + 1, "t": "req",
                          "id": 1, "k": "health", "b": {}})
        with pytest.raises(ProtocolError, match="version"):
            Envelope.from_bytes(payload)

    @pytest.mark.parametrize("wire", [
        {"t": "req", "id": 1, "k": "health", "b": {}},  # missing v
        {"v": 1, "t": "nope", "id": 1, "k": "health", "b": {}},
        {"v": 1, "t": "req", "id": -4, "k": "health", "b": {}},
        {"v": 1, "t": "req", "id": 1, "k": 9, "b": {}},
        {"v": 1, "t": "req", "id": 1, "k": "health", "b": []},
    ])
    def test_malformed_envelopes_rejected(self, wire):
        with pytest.raises(ProtocolError):
            Envelope.from_bytes(encode(wire))

    def test_garbage_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            Envelope.from_bytes(b"\xff\xfenot an envelope")


class TestErrorCodes:
    @pytest.mark.parametrize("exc,code", [
        (MissingCommitment("w"), "missing-commitment"),
        (IntegrityError("x"), "integrity"),
        (QuerySyntaxError("bad", 3), "query-syntax"),
        (ChainError("gap"), "chain"),
        (VerificationError("seal"), "verification"),
        (ProofError("p"), "proof"),
        (FrameTooLarge("big"), "frame-too-large"),
        (ValueError("not a repro error"), "internal"),
    ])
    def test_most_specific_class_wins(self, exc, code):
        assert error_code_for(exc) == code

    def test_raise_remote_maps_known_codes_to_typed_errors(self):
        with pytest.raises(MissingCommitment):
            raise_remote("missing-commitment", "no window 3")
        with pytest.raises(FrameTooLarge):
            raise_remote("frame-too-large", "17MB")
        with pytest.raises(QuerySyntaxError):
            raise_remote("query-syntax", "unexpected token")

    def test_raise_remote_falls_back_to_remote_error(self):
        with pytest.raises(RemoteError) as info:
            raise_remote("internal", "KeyError: boom")
        assert info.value.code == "internal"

    def test_round_trip_server_exception_to_client_type(self):
        """server catches exc -> code -> client re-raises same family"""
        exc = MissingCommitment("no commitment for r1/3")
        code = error_code_for(exc)
        with pytest.raises(MissingCommitment):
            raise_remote(code, str(exc))


@pytest.fixture(scope="module")
def tiny_service():
    store, bulletin, _count = make_committed_records(24)
    service = ProverService(store, bulletin)
    service.aggregate_window(0)
    return service


class TestWireCodecs:
    def test_commitment_round_trip(self, tiny_service):
        for commitment in tiny_service.bulletin:
            data = encode_commitment(commitment)
            assert Commitment.from_wire(decode(data)) == commitment

    def test_receipt_round_trip(self, tiny_service):
        receipt = tiny_service.chain.latest.receipt
        restored = decode_receipt(encode_receipt(receipt))
        assert encode_receipt(restored) == encode_receipt(receipt)
        assert restored.claim_digest == receipt.claim_digest
        assert restored.journal == receipt.journal

    def test_query_response_round_trip(self, tiny_service):
        response = tiny_service.answer_query(
            "SELECT COUNT(*), SUM(packets) FROM clogs")
        restored = decode_query_response(
            encode_query_response(response))
        assert restored.sql == response.sql
        assert restored.labels == response.labels
        assert restored.values == response.values
        assert restored.matched == response.matched
        assert restored.scanned == response.scanned
        assert restored.round == response.round
        assert restored.root == response.root
        assert restored.groups == response.groups
        assert encode_receipt(restored.receipt) \
            == encode_receipt(response.receipt)

    def test_grouped_response_round_trips(self, tiny_service):
        response = tiny_service.answer_query(
            "SELECT SUM(packets) FROM clogs GROUP BY protocol")
        restored = decode_query_response(
            encode_query_response(response))
        assert restored.group_by == response.group_by
        assert restored.groups == response.groups

    @pytest.mark.parametrize("data", [
        b"",
        b"\x00",                      # None, not a dict
        encode({"sql": "x"}),         # dict missing fields
        encode([1, 2, 3]),
        b"\xff\xff\xff",
    ])
    def test_malformed_bytes_raise_serialization_error(self, data):
        for decoder in (decode_receipt, decode_query_response):
            with pytest.raises(SerializationError):
                decoder(data)
