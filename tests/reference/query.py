"""The query scan as the plain loops ``repro.query.evaluator`` shipped
before its one ``_scan``: every entry is charged, tested against the
predicate AST and fed, one at a time, with no numpy anywhere.  The
accumulators and the predicate walk are ``src``'s own — what this pins
is that finding the matching rows by mask, and bucketing them by
``np.unique``, changes no result, no partial state and no summed cost.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.query.ast import Query
from repro.query.evaluator import (
    EntryView,
    PartialQueryResult,
    QueryResult,
    _Accumulator,
    _field_value,
    _sort_key,
    evaluate_predicate,
)


def evaluate(
    query: Query,
    entries: Iterable[EntryView],
    cost_hook: Callable[[int], None] | None = None,
) -> QueryResult:
    """Run ``query``; ``cost_hook(nodes)`` is invoked once per scanned entry."""
    per_entry_nodes = query.node_count
    matched = 0
    scanned = 0
    if query.group_by is None:
        accumulators = [_Accumulator(a) for a in query.aggregates]
        for entry in entries:
            scanned += 1
            if cost_hook is not None:
                cost_hook(per_entry_nodes)
            if not evaluate_predicate(query.where, entry):
                continue
            matched += 1
            for accumulator in accumulators:
                accumulator.feed(entry)
        return QueryResult(
            labels=query.labels,
            values=tuple(a.result() for a in accumulators),
            matched=matched,
            scanned=scanned,
        )
    # GROUP BY: one accumulator row per distinct key.
    group_field = query.group_by.name
    buckets: dict[Any, list[_Accumulator]] = {}
    for entry in entries:
        scanned += 1
        if cost_hook is not None:
            cost_hook(per_entry_nodes)
        if not evaluate_predicate(query.where, entry):
            continue
        matched += 1
        key = _field_value(entry, group_field)
        bucket = buckets.get(key)
        if bucket is None:
            bucket = [_Accumulator(a) for a in query.aggregates]
            buckets[key] = bucket
        for accumulator in bucket:
            accumulator.feed(entry)
    groups = tuple(
        (key, tuple(a.result() for a in buckets[key])) for key in sorted(buckets, key=_sort_key)
    )
    return QueryResult(
        labels=query.labels,
        values=(),
        matched=matched,
        scanned=scanned,
        group_by=group_field,
        groups=groups,
    )


def evaluate_partial(
    query: Query,
    entries: Iterable[EntryView],
    cost_hook: Callable[[int], None] | None = None,
) -> PartialQueryResult:
    """:func:`evaluate` stopping short of finalization."""
    per_entry_nodes = query.node_count
    matched = 0
    scanned = 0
    if query.group_by is None:
        accumulators = [_Accumulator(a) for a in query.aggregates]
        for entry in entries:
            scanned += 1
            if cost_hook is not None:
                cost_hook(per_entry_nodes)
            if not evaluate_predicate(query.where, entry):
                continue
            matched += 1
            for accumulator in accumulators:
                accumulator.feed(entry)
        return PartialQueryResult(
            matched=matched,
            scanned=scanned,
            group_by=None,
            states=tuple(a.state() for a in accumulators),
        )
    group_field = query.group_by.name
    buckets: dict[Any, list[_Accumulator]] = {}
    for entry in entries:
        scanned += 1
        if cost_hook is not None:
            cost_hook(per_entry_nodes)
        if not evaluate_predicate(query.where, entry):
            continue
        matched += 1
        key = _field_value(entry, group_field)
        bucket = buckets.get(key)
        if bucket is None:
            bucket = [_Accumulator(a) for a in query.aggregates]
            buckets[key] = bucket
        for accumulator in bucket:
            accumulator.feed(entry)
    return PartialQueryResult(
        matched=matched,
        scanned=scanned,
        group_by=group_field,
        states=(),
        group_states=tuple(
            (key, tuple(a.state() for a in buckets[key])) for key in sorted(buckets, key=_sort_key)
        ),
    )
