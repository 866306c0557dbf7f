"""The journal declarations: each parses what its guest commits and
encodes it back to the same bytes, refuses a malformed journal naming
the field, and matches the layout PROTOCOL.md documents."""

import dataclasses
import pathlib
import re

import pytest

from repro.core.aggregation import Aggregator
from repro.core.clog import CLogState
from repro.core.guest_programs import query_guest, query_merge_guest
from repro.core.journals import QueryJournal, RoundHeader
from repro.core.query_proof import QueryProver
from repro.engine import ProvingEngine
from repro.errors import MalformedJournal, VerificationError
from repro.serialization import decode_stream, encode
from repro.zkvm.receipt import Journal

from .test_guest_programs import pinned_windows

PROTOCOL = pathlib.Path(__file__).resolve().parents[2] / "docs" / "PROTOCOL.md"
QUERIES = (
    "SELECT COUNT(*), SUM(packets) FROM clogs WHERE src_port >= 1003",
    "SELECT SUM(octets) FROM clogs GROUP BY protocol",
)


@pytest.fixture(scope="module")
def genesis():
    return Aggregator().aggregate(CLogState(), pinned_windows([0]), None)


@pytest.fixture(scope="module")
def proven(genesis):
    return Aggregator().aggregate(
        genesis.new_state, pinned_windows([1, 2, 3]), genesis.receipt)


def assert_header_reencodes(receipt):
    """Value 0's bytes are ``encode()`` of the parsed header, and what
    follows is exactly ``entries`` per-record items."""
    header = RoundHeader.parse(receipt)
    head = header.encode()
    assert receipt.journal.data[:len(head)] == head
    assert len(list(decode_stream(receipt.journal.data[len(head):]))) \
        == header.entries


def with_journal(receipt, *values):
    return dataclasses.replace(
        receipt, journal=Journal(b"".join(encode(v) for v in values)))


class TestEncodeReproducesGuestBytes:
    def test_update_round(self, proven):
        assert_header_reencodes(proven.receipt)

    @pytest.mark.parametrize("sql", QUERIES)
    def test_full_scan_query(self, proven, sql):
        response, _ = QueryProver().prove_query(
            sql, proven.new_state, proven.receipt)
        assert response.receipt.claim.image_id == query_guest.image_id
        journal = QueryJournal.parse(response.receipt)
        assert journal.encode() == response.receipt.journal.data
        assert response.claim == journal

    @pytest.mark.parametrize("sql", QUERIES)
    def test_merged_query(self, proven, sql):
        with ProvingEngine(backend="serial") as engine:
            response, _ = QueryProver(engine=engine) \
                .prove_query_partitioned(sql, proven.new_state,
                                         proven.receipt, 2)
        assert response.receipt.claim.image_id \
            == query_merge_guest.image_id
        journal = QueryJournal.parse(response.receipt)
        assert journal.encode() == response.receipt.journal.data


class TestParseRefusesMalformedJournals:
    def header(self, receipt):
        return dict(next(receipt.journal.values()))

    def test_is_a_verification_error(self):
        assert issubclass(MalformedJournal, VerificationError)

    def test_empty_round_journal(self, genesis):
        with pytest.raises(MalformedJournal, match="NoneType, not a dict"):
            RoundHeader.parse(with_journal(genesis.receipt))

    def test_missing_field_named(self, genesis):
        header = self.header(genesis.receipt)
        del header["new_root"]
        with pytest.raises(MalformedJournal, match="no 'new_root' field"):
            RoundHeader.parse(with_journal(genesis.receipt, header))

    def test_mistyped_field_named(self, genesis):
        header = self.header(genesis.receipt)
        header["size"] = True  # a bool is not a size
        with pytest.raises(MalformedJournal,
                           match="'size' is bool, not int"):
            RoundHeader.parse(with_journal(genesis.receipt, header))

    def test_unexpected_field_named(self, genesis):
        header = self.header(genesis.receipt)
        header["extra"] = 1
        with pytest.raises(MalformedJournal, match="'extra'"):
            RoundHeader.parse(with_journal(genesis.receipt, header))

    def test_mistyped_window_named(self, genesis):
        header = self.header(genesis.receipt)
        header["windows"] = [dict(header["windows"][0], w="0")]
        with pytest.raises(MalformedJournal,
                           match="window field 'w' is str"):
            RoundHeader.parse(with_journal(genesis.receipt, header))

    def test_query_journal_value_count(self, proven):
        response, _ = QueryProver().prove_query(
            QUERIES[0], proven.new_state, proven.receipt)
        journal = response.receipt.journal.decode_one()
        with pytest.raises(MalformedJournal, match="2 values"):
            QueryJournal.parse(
                with_journal(response.receipt, journal, journal))
        del journal["scanned"]
        with pytest.raises(MalformedJournal, match="no 'scanned' field"):
            QueryJournal.parse(with_journal(response.receipt, journal))


def documented_keys(section: str) -> list[str]:
    """The top-level keys of the first code block under PROTOCOL.md's
    ``## <section>.`` heading."""
    text = PROTOCOL.read_text()
    body = text[text.index(f"\n## {section}. "):]
    block = re.search(r"```\n(.*?)```", body, re.S).group(1).strip()
    assert block[0] == "{" and block[-1] == "}"
    keys, depth, item = [], 0, ""
    for char in block[1:-1] + ",":
        if char == "," and depth == 0:
            keys.append(item.split(":")[0].strip())
            item = ""
            continue
        depth += (char in "[{") - (char in "]}")
        item += char
    return keys


class TestProtocolDocumentsTheDeclarations:
    def test_round_header_keys(self):
        assert documented_keys("8") \
            == [f.name for f in dataclasses.fields(RoundHeader)]

    def test_query_journal_keys(self):
        assert documented_keys("9") \
            == [f.name for f in dataclasses.fields(QueryJournal)]
