"""Unit tests for query evaluation."""

import pytest

from repro.errors import QueryError
from repro.query import evaluate, parse_query


def entries():
    return [
        {"src_ip": "10.1.0.5", "dst_ip": "172.16.0.1", "packets": 100,
         "octets": 1000, "hop_count": 3, "rtt_avg_us": 5000.0,
         "lost_packets": 2, "src_port": 443},
        {"src_ip": "10.1.0.9", "dst_ip": "172.16.0.2", "packets": 50,
         "octets": 600, "hop_count": 2, "rtt_avg_us": 9000.0,
         "lost_packets": 0, "src_port": 443},
        {"src_ip": "10.2.0.1", "dst_ip": "172.16.0.3", "packets": 10,
         "octets": 90, "hop_count": 1, "rtt_avg_us": 1000.0,
         "lost_packets": 5, "src_port": 80},
    ]


def run(sql, data=None):
    return evaluate(parse_query(sql), data if data is not None
                    else entries())


class TestAggregates:
    def test_sum(self):
        assert run("SELECT SUM(packets) FROM clogs").value() == 160

    def test_count_star(self):
        assert run("SELECT COUNT(*) FROM clogs").value() == 3

    def test_count_column(self):
        assert run("SELECT COUNT(packets) FROM clogs").value() == 3

    def test_avg(self):
        assert run("SELECT AVG(hop_count) FROM clogs").value() == \
            pytest.approx(2.0)

    def test_min_max(self):
        result = run("SELECT MIN(octets), MAX(octets) FROM clogs")
        assert result.as_dict() == {"MIN(octets)": 90,
                                    "MAX(octets)": 1000}

    def test_empty_match_gives_none_except_count(self):
        result = run("SELECT COUNT(*), SUM(packets), AVG(packets), "
                     "MIN(packets), MAX(packets) FROM clogs "
                     "WHERE packets > 99999")
        assert result.values == (0, None, None, None, None)
        assert result.matched == 0
        assert result.scanned == 3

    def test_aggregating_string_column_rejected(self):
        with pytest.raises(QueryError, match="non-numeric"):
            run("SELECT SUM(src_ip) FROM clogs")


class TestFiltering:
    def test_equality(self):
        assert run('SELECT COUNT(*) FROM clogs '
                   'WHERE src_ip = "10.1.0.5"').value() == 1

    def test_numeric_comparisons(self):
        assert run("SELECT COUNT(*) FROM clogs "
                   "WHERE packets >= 50").value() == 2
        assert run("SELECT COUNT(*) FROM clogs "
                   "WHERE rtt_avg_us < 5000").value() == 1

    def test_prefix_membership(self):
        assert run('SELECT COUNT(*) FROM clogs '
                   'WHERE src_ip IN "10.1.0.0/16"').value() == 2
        assert run('SELECT COUNT(*) FROM clogs '
                   'WHERE src_ip NOT IN "10.1.0.0/16"').value() == 1

    def test_and_or_not(self):
        assert run("SELECT COUNT(*) FROM clogs "
                   "WHERE packets > 20 AND lost_packets = 0").value() == 1
        assert run("SELECT COUNT(*) FROM clogs "
                   "WHERE packets = 10 OR packets = 50").value() == 2
        assert run("SELECT COUNT(*) FROM clogs "
                   "WHERE NOT src_port = 443").value() == 1

    def test_matched_vs_scanned(self):
        result = run("SELECT COUNT(*) FROM clogs WHERE packets > 20")
        assert result.matched == 2
        assert result.scanned == 3

    def test_missing_column_in_entry(self):
        with pytest.raises(QueryError, match="missing column"):
            run("SELECT COUNT(*) FROM clogs WHERE packets = 1",
                data=[{"octets": 5}])

    def test_type_confusion_raises(self):
        with pytest.raises(QueryError, match="cannot compare"):
            run('SELECT COUNT(*) FROM clogs WHERE packets < "abc"')


class TestCostHook:
    def test_hook_total_matches_scanned_entries(self):
        # The numpy mask batches invocations; the metered total (what
        # the guest charges) must equal per-entry charging.
        calls = []
        query = parse_query("SELECT COUNT(*) FROM clogs "
                            "WHERE packets > 20")
        evaluate(query, entries(), cost_hook=calls.append)
        assert sum(calls) == 3 * query.node_count

    def test_hook_called_per_entry_on_reference_path(self):
        # Shapes the mask builder refuses are walked entry by entry —
        # one hook call each, not one for the batch: CIDR membership
        # has no numpy form, and neither does a mixed-type column.
        for sql, data in [
            ('SELECT COUNT(*) FROM clogs WHERE src_ip IN "10.1.0.0/16"',
             entries()),
            ("SELECT COUNT(*) FROM clogs WHERE packets > 20",
             entries() + [{"packets": 7.5}]),
        ]:
            calls = []
            query = parse_query(sql)
            result = evaluate(query, data, cost_hook=calls.append)
            assert len(calls) == result.scanned == len(data)
            assert all(c == query.node_count for c in calls)

    def test_walk_charges_only_up_to_the_failing_entry(self):
        # Charge -> test -> feed is interleaved per entry, so an error
        # on entry k surfaces after exactly k + 1 hook calls.
        calls = []
        data = entries() + [{"src_ip": "10.1.0.7", "packets": "many"}] \
            + entries()
        query = parse_query('SELECT SUM(packets) FROM clogs '
                            'WHERE src_ip IN "10.0.0.0/8"')
        with pytest.raises(QueryError, match="non-numeric"):
            evaluate(query, data, cost_hook=calls.append)
        assert len(calls) == 4


class TestResultAccess:
    def test_value_by_label(self):
        result = run("SELECT SUM(packets), COUNT(*) FROM clogs")
        assert result.value("COUNT(*)") == 3

    def test_value_ambiguous_without_label(self):
        result = run("SELECT SUM(packets), COUNT(*) FROM clogs")
        with pytest.raises(QueryError):
            result.value()

    def test_unknown_label(self):
        result = run("SELECT COUNT(*) FROM clogs")
        with pytest.raises(QueryError):
            result.value("SUM(packets)")

    def test_empty_table(self):
        result = run("SELECT COUNT(*), SUM(packets) FROM clogs", data=[])
        assert result.values == (0, None)
