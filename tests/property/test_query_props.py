"""Property tests: query language invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import evaluate, parse_query


def entry_views():
    return st.fixed_dictionaries({
        "src_ip": st.sampled_from(["10.1.0.1", "10.2.0.2", "172.16.0.3"]),
        "dst_ip": st.sampled_from(["172.16.1.1", "172.16.2.2"]),
        "src_port": st.integers(0, 65535),
        "dst_port": st.integers(0, 65535),
        "protocol": st.sampled_from([6, 17]),
        "packets": st.integers(0, 10_000),
        "octets": st.integers(0, 10_000_000),
        "lost_packets": st.integers(0, 100),
        "hop_count": st.integers(1, 8),
        "record_count": st.integers(1, 10),
        "router_count": st.integers(1, 4),
        "first_ms": st.integers(0, 10_000),
        "last_ms": st.integers(10_000, 20_000),
        "rtt_avg_us": st.floats(0, 1e6),
        "jitter_avg_us": st.floats(0, 1e5),
        "loss_rate": st.floats(0, 1),
        "throughput_bps": st.floats(0, 1e10),
    })


tables = st.lists(entry_views(), max_size=30)

numeric_fields = st.sampled_from(
    ["packets", "octets", "lost_packets", "hop_count"])


class TestAggregateInvariants:
    @given(tables, numeric_fields)
    @settings(max_examples=150)
    def test_sum_count_avg_consistent(self, table, field):
        result = evaluate(parse_query(
            f"SELECT SUM({field}), COUNT(*), AVG({field}) FROM clogs"),
            table)
        total, count, average = result.values
        assert count == len(table)
        if count == 0:
            assert total is None and average is None
        else:
            assert total == sum(e[field] for e in table)
            assert average == total / count

    @given(tables, numeric_fields)
    def test_min_max_bound_values(self, table, field):
        result = evaluate(parse_query(
            f"SELECT MIN({field}), MAX({field}) FROM clogs"), table)
        low, high = result.values
        if table:
            assert low == min(e[field] for e in table)
            assert high == max(e[field] for e in table)
            assert low <= high

    @given(tables, st.integers(0, 10_000))
    @settings(max_examples=150)
    def test_predicate_partitions_table(self, table, threshold):
        matched = evaluate(parse_query(
            f"SELECT COUNT(*) FROM clogs WHERE packets >= {threshold}"),
            table).value()
        unmatched = evaluate(parse_query(
            f"SELECT COUNT(*) FROM clogs WHERE packets < {threshold}"),
            table).value()
        assert matched + unmatched == len(table)

    @given(tables)
    def test_not_inverts(self, table):
        base = "packets > 100"
        yes = evaluate(parse_query(
            f"SELECT COUNT(*) FROM clogs WHERE {base}"), table).value()
        no = evaluate(parse_query(
            f"SELECT COUNT(*) FROM clogs WHERE NOT {base}"),
            table).value()
        assert yes + no == len(table)

    @given(tables)
    def test_prefix_in_and_not_in_partition(self, table):
        prefix = "10.0.0.0/8"
        inside = evaluate(parse_query(
            f'SELECT COUNT(*) FROM clogs WHERE src_ip IN "{prefix}"'),
            table).value()
        outside = evaluate(parse_query(
            f'SELECT COUNT(*) FROM clogs '
            f'WHERE src_ip NOT IN "{prefix}"'), table).value()
        assert inside + outside == len(table)


class TestParserInvariants:
    @given(tables, numeric_fields)
    def test_evaluation_deterministic(self, table, field):
        query = parse_query(f"SELECT AVG({field}) FROM clogs")
        assert evaluate(query, table) == evaluate(query, table)
