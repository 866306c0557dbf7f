"""Unit tests for the SQL-subset parser."""

import pytest

from repro.errors import QuerySyntaxError
from repro.query import parse_query
from repro.query.ast import (
    AggFunc,
    BinaryOp,
    Comparison,
    Logical,
    LogicalOp,
    PrefixMatch,
)

PAPER_QUERY = ('SELECT SUM(hop_count) FROM clogs '
               'WHERE src_ip = "1.1.1.1" AND dst_ip = "9.9.9.9";')


class TestSelectList:
    def test_paper_query(self):
        query = parse_query(PAPER_QUERY)
        assert query.source == "clogs"
        assert query.labels == ("SUM(hop_count)",)
        assert isinstance(query.where, Logical)
        assert query.where.op is LogicalOp.AND

    def test_count_star(self):
        query = parse_query("SELECT COUNT(*) FROM clogs")
        assert query.aggregates[0].func is AggFunc.COUNT
        assert query.aggregates[0].field is None
        assert query.where is None

    def test_multiple_aggregates(self):
        query = parse_query(
            "SELECT COUNT(*), AVG(rtt_avg_us), MAX(packets) FROM clogs")
        assert query.labels == ("COUNT(*)", "AVG(rtt_avg_us)",
                                "MAX(packets)")

    @pytest.mark.parametrize("func", ["SUM", "AVG", "MIN", "MAX"])
    def test_star_only_for_count(self, func):
        with pytest.raises(QuerySyntaxError):
            parse_query(f"SELECT {func}(*) FROM clogs")

    def test_unknown_column_rejected_at_parse(self):
        with pytest.raises(QuerySyntaxError, match="unknown column"):
            parse_query("SELECT SUM(bogus_col) FROM clogs")

    def test_missing_from(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT COUNT(*) clogs")


class TestPredicates:
    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_comparison_operators(self, op):
        query = parse_query(
            f"SELECT COUNT(*) FROM clogs WHERE packets {op} 100")
        assert isinstance(query.where, Comparison)
        assert query.where.op is BinaryOp(op)
        assert query.where.value.value == 100

    def test_float_literal(self):
        query = parse_query(
            "SELECT COUNT(*) FROM clogs WHERE loss_rate < 0.01")
        assert query.where.value.value == pytest.approx(0.01)

    def test_string_literal(self):
        query = parse_query(
            'SELECT COUNT(*) FROM clogs WHERE src_ip = "1.2.3.4"')
        assert query.where.value.value == "1.2.3.4"

    def test_prefix_match(self):
        query = parse_query(
            'SELECT COUNT(*) FROM clogs WHERE src_ip IN "10.1.0.0/16"')
        assert isinstance(query.where, PrefixMatch)
        assert query.where.prefix == "10.1.0.0/16"
        assert not query.where.negated

    def test_not_in_prefix(self):
        query = parse_query(
            'SELECT COUNT(*) FROM clogs '
            'WHERE src_ip NOT IN "10.0.0.0/8"')
        assert query.where.negated

    def test_invalid_cidr_rejected(self):
        with pytest.raises(QuerySyntaxError, match="CIDR"):
            parse_query(
                'SELECT COUNT(*) FROM clogs WHERE src_ip IN "10.1/99"')

    def test_and_or_precedence(self):
        query = parse_query(
            "SELECT COUNT(*) FROM clogs "
            "WHERE packets > 1 AND octets > 2 OR hop_count = 3")
        assert query.where.op is LogicalOp.OR
        left = query.where.operands[0]
        assert isinstance(left, Logical) and left.op is LogicalOp.AND

    def test_parentheses_override(self):
        query = parse_query(
            "SELECT COUNT(*) FROM clogs "
            "WHERE packets > 1 AND (octets > 2 OR hop_count = 3)")
        assert query.where.op is LogicalOp.AND

    def test_not_operator(self):
        query = parse_query(
            "SELECT COUNT(*) FROM clogs WHERE NOT packets > 5")
        assert query.where.op is LogicalOp.NOT

    def test_bare_not_without_in_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query(
                "SELECT COUNT(*) FROM clogs WHERE packets NOT 5")

    def test_missing_literal(self):
        with pytest.raises(QuerySyntaxError, match="literal"):
            parse_query("SELECT COUNT(*) FROM clogs WHERE packets =")


class TestWhole:
    def test_trailing_semicolon_optional(self):
        with_semi = parse_query("SELECT COUNT(*) FROM clogs;")
        without = parse_query("SELECT COUNT(*) FROM clogs")
        assert with_semi == without

    def test_trailing_garbage_rejected(self):
        with pytest.raises(QuerySyntaxError, match="trailing"):
            parse_query("SELECT COUNT(*) FROM clogs extra")

    def test_node_count_positive(self):
        assert parse_query(PAPER_QUERY).node_count > 5
