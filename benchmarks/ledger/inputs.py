"""Seeded inputs: NetFlow windows, their commitments, and SQL queries
with a plain-Python reference answer.

Everything here is a function of the seed alone.  The system under
test only ever sees the generated records and SQL strings.
"""

from __future__ import annotations

import math
import operator
import random
import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Mapping, Sequence

from repro.commitments import Commitment, window_digest
from repro.netflow import NetworkTopology, TrafficGenerator
from repro.netflow.generator import SimFlow, TrafficConfig
from repro.netflow.records import NetFlowRecord

COMMIT_TIME_MS = 5_000


class Traffic:
    """Zipf traffic over the paper's 4-router topology (§6)."""

    def __init__(self, seed: int) -> None:
        self._generator = TrafficGenerator(NetworkTopology.paper_eval(),
                                           TrafficConfig(seed=seed))
        # Which known flows a delta window re-observes.
        self._rng = random.Random(seed * 1_000_003 + 17)
        self._flows: list[SimFlow] = []

    def fresh(self, num_records: int) -> list[NetFlowRecord]:
        """Exactly ``num_records`` records, all from flows never seen
        before (every router on a flow's path reports it)."""
        records: list[NetFlowRecord] = []
        while len(records) < num_records:
            flow = self._generator.generate_flow(now_ms=1_000)
            self._flows.append(flow)
            records.extend(self._generator.observe(flow))
        del records[num_records:]
        return records

    def fresh_flows(self, num_flows: int) -> list[NetFlowRecord]:
        """Every record of exactly ``num_flows`` new flows."""
        records: list[NetFlowRecord] = []
        for _ in range(num_flows):
            flow = self._generator.generate_flow(now_ms=1_000)
            self._flows.append(flow)
            records.extend(self._generator.observe(flow))
        return records

    def delta(self, num_records: int) -> list[NetFlowRecord]:
        """Half the records re-observe known flows (update ops with a
        full sibling path), half come from new flows (inserts)."""
        known = self._rng.sample(self._flows, num_records // 2)
        records = [self._generator.observe(flow)[0] for flow in known]
        return records + self.fresh(num_records - len(records))


def by_router(records: Sequence[NetFlowRecord]
              ) -> list[tuple[str, list[NetFlowRecord]]]:
    grouped: dict[str, list[NetFlowRecord]] = {}
    for record in records:
        grouped.setdefault(record.router_id, []).append(record)
    return sorted(grouped.items())


def append_and_commit(store: Any, window_index: int,
                      records: Sequence[NetFlowRecord],
                      notes: Any = None) -> list[Commitment]:
    """What a router does at a window boundary (``RouterCommitter``):
    append the window's records to the shared store, then hash their
    canonical bytes into a commitment.  The caller publishes; ``notes``
    receives the two layer timings."""
    commitments = []
    append_s = digest_s = 0.0
    for router_id, batch in by_router(records):
        start = time.perf_counter()
        store.append_records(router_id, window_index, batch)
        middle = time.perf_counter()
        blobs = [record.to_bytes() for record in batch]
        digest = window_digest(blobs)
        digest_s += time.perf_counter() - middle
        append_s += middle - start
        commitments.append(Commitment(
            router_id=router_id, window_index=window_index,
            digest=digest, record_count=len(blobs),
            published_at_ms=COMMIT_TIME_MS))
    if notes is not None:
        notes.add("storage.append_ms", append_s * 1e3)
        notes.add("commitments.window_digest_ms", digest_s * 1e3)
    return commitments


# -- SQL ---------------------------------------------------------------------

INT_FIELDS = ("packets", "octets", "lost_packets", "hop_count",
              "record_count", "router_count")
FLOAT_FIELDS = ("rtt_avg_us", "jitter_avg_us", "loss_rate")
GROUP_FIELDS = ("src_net16", "protocol", "router_count", "hop_count")
# (column, operator, lowest literal, highest literal)
PREDICATES = (
    ("packets", ">", 1, 6_000),
    ("packets", "<=", 10, 6_000),
    ("octets", ">", 100, 5_000_000),
    ("dst_port", "<", 33_000, 60_999),
    ("dst_port", ">=", 33_000, 60_999),
    ("lost_packets", "<", 1, 40),
)
_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
            "<=": operator.le, "=": operator.eq}

Row = Mapping[str, Any]
Answer = tuple[tuple, tuple]  # (values, groups) as QueryResponse has them


@dataclass(frozen=True)
class Query:
    """One aggregate query: select list, one predicate, optional
    GROUP BY — and how to answer it without ``repro.query``."""

    aggregates: tuple[tuple[str, str | None], ...]
    where: tuple[str, str, int] | None = None
    group_by: str | None = None

    @property
    def sql(self) -> str:
        select = ", ".join(f"{func}({column or '*'})"
                           for func, column in self.aggregates)
        text = f"SELECT {select} FROM clogs"
        if self.where is not None:
            text += " WHERE {} {} {}".format(*self.where)
        if self.group_by is not None:
            text += f" GROUP BY {self.group_by}"
        return text

    def reference(self, rows: Sequence[Row]) -> Answer:
        if self.where is not None:
            column, op, literal = self.where
            compare = _COMPARE[op]
            rows = [row for row in rows if compare(row[column], literal)]
        if self.group_by is None:
            return self._terms(rows), ()
        buckets: dict[Any, list[Row]] = {}
        for row in rows:
            buckets.setdefault(row[self.group_by], []).append(row)
        return (), tuple((key, self._terms(buckets[key]))
                         for key in sorted(buckets))

    def _terms(self, rows: Sequence[Row]) -> tuple:
        return tuple(_aggregate(func, column, rows)
                     for func, column in self.aggregates)


def _aggregate(func: str, column: str | None, rows: Sequence[Row]):
    if func == "COUNT":
        return len(rows)
    if not rows:
        return None
    values = [row[column] for row in rows]
    if func == "SUM":
        return sum(values)
    if func == "AVG":
        return math.fsum(values) / len(values)
    return min(values) if func == "MIN" else max(values)


def _same(got: Any, want: Any) -> bool:
    """Exact for integers, 1e-9 relative for floats (AVG)."""
    if isinstance(got, float) or isinstance(want, float):
        return got is not None and want is not None \
            and math.isclose(got, want, rel_tol=1e-9)
    return got == want


def answer_matches(response: Any, expected: Answer) -> bool:
    """Does a ``QueryResponse`` carry the reference answer?"""
    values, groups = expected
    if len(response.values) != len(values) \
            or len(response.groups) != len(groups):
        return False
    if not all(map(_same, response.values, values)):
        return False
    for (got_key, got_terms), (key, terms) in zip(response.groups, groups):
        if got_key != key or len(got_terms) != len(terms) \
                or not all(map(_same, got_terms, terms)):
            return False
    return True


class QueryMix:
    """A seeded stream of distinct queries."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._seen: set[str] = set()

    def next(self) -> Query:
        while True:
            query = self._draw()
            if query.sql not in self._seen:
                self._seen.add(query.sql)
                return query

    def _draw(self) -> Query:
        rng = self._rng
        terms: list[tuple[str, str | None]] = []
        while len(terms) < rng.choice((1, 1, 2)):
            func = rng.choice(("COUNT", "SUM", "AVG", "MIN", "MAX"))
            if func == "COUNT":
                term = (func, None)
            elif func == "AVG":
                term = (func, rng.choice(INT_FIELDS + FLOAT_FIELDS))
            else:
                term = (func, rng.choice(INT_FIELDS))
            if term not in terms:
                terms.append(term)
        column, op, low, high = rng.choice(PREDICATES)
        group_by = rng.choice(GROUP_FIELDS) if rng.random() < 0.3 else None
        return Query(tuple(terms), (column, op, rng.randint(low, high)),
                     group_by)


def zipf_picker(count: int, seed: int, alpha: float = 1.2):
    """``pick()`` draws an index in ``range(count)``, rank ``r`` with
    weight ``r ** -alpha``."""
    rng = random.Random(seed)
    cumulative = list(accumulate((rank + 1) ** -alpha
                                 for rank in range(count)))
    population = range(count)

    def pick() -> int:
        return rng.choices(population, cum_weights=cumulative)[0]

    return pick
