"""Unit tests for GROUP BY."""

import pytest

from repro.errors import QueryError, QuerySyntaxError
from repro.query import evaluate, parse_query


def entries():
    return [
        {"protocol": 6, "src_ip": "10.1.0.1", "packets": 100,
         "hop_count": 2},
        {"protocol": 6, "src_ip": "10.1.0.2", "packets": 50,
         "hop_count": 3},
        {"protocol": 17, "src_ip": "10.2.0.1", "packets": 10,
         "hop_count": 1},
    ]


class TestParsing:
    def test_group_by_parses(self):
        query = parse_query(
            "SELECT COUNT(*) FROM clogs GROUP BY protocol")
        assert query.group_by.name == "protocol"

    def test_group_by_after_where(self):
        query = parse_query(
            "SELECT SUM(packets) FROM clogs WHERE packets > 5 "
            "GROUP BY protocol;")
        assert query.where is not None
        assert query.group_by.name == "protocol"

    def test_group_by_unknown_column(self):
        with pytest.raises(QuerySyntaxError, match="unknown column"):
            parse_query("SELECT COUNT(*) FROM clogs GROUP BY bogus")

    def test_group_requires_by(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT COUNT(*) FROM clogs GROUP protocol")


class TestEvaluation:
    def test_groups_partition_matches(self):
        result = evaluate(parse_query(
            "SELECT COUNT(*), SUM(packets) FROM clogs "
            "GROUP BY protocol"), entries())
        assert result.group_by == "protocol"
        assert dict(result.groups) == {6: (2, 150), 17: (1, 10)}
        assert result.matched == 3

    def test_where_applies_before_grouping(self):
        result = evaluate(parse_query(
            "SELECT COUNT(*) FROM clogs WHERE packets >= 50 "
            "GROUP BY protocol"), entries())
        assert dict(result.groups) == {6: (2,)}

    def test_group_accessor(self):
        result = evaluate(parse_query(
            "SELECT SUM(hop_count) FROM clogs GROUP BY protocol"),
            entries())
        assert result.group(6) == {"SUM(hop_count)": 5}
        with pytest.raises(QueryError):
            result.group(99)

    def test_groups_sorted_by_key(self):
        result = evaluate(parse_query(
            "SELECT COUNT(*) FROM clogs GROUP BY src_ip"), entries())
        keys = [key for key, _values in result.groups]
        assert keys == sorted(keys)

    def test_values_accessors_refused_when_grouped(self):
        result = evaluate(parse_query(
            "SELECT COUNT(*) FROM clogs GROUP BY protocol"), entries())
        with pytest.raises(QueryError):
            result.value()
        with pytest.raises(QueryError):
            result.as_dict()

    def test_empty_table(self):
        result = evaluate(parse_query(
            "SELECT COUNT(*) FROM clogs GROUP BY protocol"), [])
        assert result.groups == ()
        assert result.matched == 0


class TestProvenGroupBy:
    def test_grouped_query_proof_roundtrip(self, aggregated_system):
        system = aggregated_system
        response = system.prover.answer_query(
            "SELECT COUNT(*), SUM(lost_packets) FROM clogs "
            "GROUP BY protocol")
        chain = system.verifier.verify_chain(
            system.prover.chain.receipts())
        verified = system.verifier.verify_query(response, chain[-1])
        assert verified.group_by == "protocol"
        assert verified.groups == response.groups
        # Groups exhaust the matched set.
        assert sum(values[0] for _k, values in verified.groups) == \
            verified.matched

    def test_lying_about_groups_rejected(self, aggregated_system):
        import dataclasses
        from repro.errors import VerificationError
        system = aggregated_system
        response = system.prover.answer_query(
            "SELECT COUNT(*) FROM clogs GROUP BY protocol")
        chain = system.verifier.verify_chain(
            system.prover.chain.receipts())
        if not response.groups:
            pytest.skip("no groups in workload")
        key, values = response.groups[0]
        lying = dataclasses.replace(
            response,
            groups=((key, (values[0] + 5,)),) + response.groups[1:])
        with pytest.raises(VerificationError, match="groups"):
            system.verifier.verify_query(lying, chain[-1])
