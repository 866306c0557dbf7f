"""Property tests: wire codecs for receipts and query responses.

Receipts here are structurally valid but cryptographically arbitrary —
the codec must round-trip any well-formed receipt, not only ones the
prover produced.  Conversely, arbitrary bytes fed to the decoders must
fail with SerializationError, never an uncontrolled exception.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query_proof import QueryResponse
from repro.errors import ReproError
from repro.hashing import Digest
from repro.serialization import (
    decode_query_response,
    decode_receipt,
    encode,
    encode_query_response,
    encode_receipt,
)
from repro.zkvm.receipt import (
    GROTH16_SEAL_SIZE,
    Assumption,
    ExitCode,
    Groth16Receipt,
    Journal,
    Receipt,
    ReceiptClaim,
    SuccinctReceipt,
)


def digests():
    return st.binary(min_size=32, max_size=32).map(Digest)


def assumptions():
    return st.builds(Assumption, claim_digest=digests(),
                     image_id=digests())


def claims():
    return st.builds(
        ReceiptClaim,
        image_id=digests(),
        input_digest=digests(),
        journal_digest=digests(),
        exit_code=st.sampled_from(list(ExitCode)),
        total_cycles=st.integers(min_value=0, max_value=2 ** 48),
        segment_count=st.integers(min_value=0, max_value=10_000),
        assumptions=st.lists(assumptions(), max_size=3).map(tuple),
    )


def inner_receipts():
    groth16 = st.binary(
        min_size=GROTH16_SEAL_SIZE,
        max_size=GROTH16_SEAL_SIZE).map(Groth16Receipt)
    succinct = st.binary(max_size=256).map(SuccinctReceipt)
    return st.one_of(groth16, succinct)


def receipts():
    return st.builds(
        Receipt,
        inner=inner_receipts(),
        journal=st.binary(max_size=512).map(Journal),
        claim=claims(),
    )


def scalar_values():
    return st.one_of(st.none(),
                     st.integers(min_value=-2 ** 63, max_value=2 ** 63),
                     st.floats(allow_nan=False))


def query_responses():
    row = st.lists(scalar_values(), min_size=1, max_size=4)
    return st.builds(
        _make_response,
        sql=st.text(max_size=60),
        labels=st.lists(st.text(min_size=1, max_size=12),
                        min_size=1, max_size=4),
        values=row,
        matched=st.integers(min_value=0, max_value=10 ** 9),
        scanned=st.integers(min_value=0, max_value=10 ** 9),
        round=st.integers(min_value=0, max_value=10 ** 6),
        root=digests(),
        receipt=receipts(),
        group_by=st.one_of(st.none(), st.text(min_size=1,
                                              max_size=12)),
        groups=st.lists(
            st.tuples(st.one_of(st.text(max_size=8),
                                st.integers(min_value=-10 ** 9,
                                            max_value=10 ** 9)),
                      row.map(tuple)),
            max_size=4).map(tuple),
    )


def _make_response(sql, labels, values, matched, scanned, round, root,
                   receipt, group_by, groups):
    return QueryResponse(
        sql=sql, labels=tuple(labels), values=tuple(values),
        matched=matched, scanned=scanned, round=round, root=root,
        receipt=receipt, group_by=group_by, groups=groups)


class TestReceiptRoundTrip:
    @given(receipts())
    @settings(max_examples=150)
    def test_decode_inverts_encode(self, receipt):
        restored = decode_receipt(encode_receipt(receipt))
        assert restored.inner == receipt.inner
        assert restored.journal == receipt.journal
        assert restored.claim == receipt.claim
        assert encode_receipt(restored) == encode_receipt(receipt)

    @given(receipts())
    @settings(max_examples=50)
    def test_canonical_bytes_are_deterministic(self, receipt):
        assert encode_receipt(receipt) == encode_receipt(receipt)
        assert encode_receipt(receipt) == encode(receipt.to_wire())


class TestQueryResponseRoundTrip:
    @given(query_responses())
    @settings(max_examples=100)
    def test_decode_inverts_encode(self, response):
        restored = decode_query_response(
            encode_query_response(response))
        assert restored.sql == response.sql
        assert restored.labels == response.labels
        assert restored.values == response.values
        assert restored.matched == response.matched
        assert restored.scanned == response.scanned
        assert restored.round == response.round
        assert restored.root == response.root
        assert restored.group_by == response.group_by
        assert restored.groups == response.groups
        assert encode_receipt(restored.receipt) \
            == encode_receipt(response.receipt)


class TestDecoderRobustness:
    @given(st.binary(max_size=2048))
    @settings(max_examples=300)
    def test_arbitrary_bytes_never_crash_decoders(self, data):
        """Hostile bytes must raise inside the ReproError family —
        a KeyError/TypeError/struct.error escaping the decoder would
        crash a server connection handler."""
        for decoder in (decode_receipt, decode_query_response):
            try:
                decoder(data)
            except ReproError:
                pass
