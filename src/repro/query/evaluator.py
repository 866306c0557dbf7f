"""Query evaluation over CLog entry views.

The evaluator is deliberately free of host-only dependencies so the zkVM
guest can run it verbatim; the optional ``cost_hook`` receives the number
of AST nodes evaluated per entry, which the guest maps to cycle charges.
"""

from __future__ import annotations

import ipaddress
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..errors import QueryError
from .ast import (
    AggFunc,
    Aggregate,
    BinaryOp,
    Comparison,
    Logical,
    LogicalOp,
    Predicate,
    PrefixMatch,
    Query,
)

EntryView = Mapping[str, Any]


@dataclass(frozen=True)
class QueryResult:
    """Result of one query execution.

    For an ungrouped query, ``values`` holds one value per select-list
    term.  For ``GROUP BY`` queries, ``values`` is empty and ``groups``
    holds ``(group_key, per-term values)`` rows sorted by key.
    """

    labels: tuple[str, ...]
    values: tuple[int | float | None, ...]
    matched: int
    scanned: int
    group_by: str | None = None
    groups: tuple[tuple[Any, tuple[int | float | None, ...]], ...] = ()

    def value(self, label: str | None = None) -> int | float | None:
        """The result for ``label`` (or the only one if unambiguous)."""
        if self.group_by is not None:
            raise QueryError(
                "grouped query: read .groups instead of .value()")
        if label is None:
            if len(self.values) != 1:
                raise QueryError(
                    f"query has {len(self.values)} result columns; "
                    "name one")
            return self.values[0]
        try:
            return self.values[self.labels.index(label)]
        except ValueError:
            raise QueryError(f"no result column {label!r}") from None

    def as_dict(self) -> dict[str, int | float | None]:
        if self.group_by is not None:
            raise QueryError(
                "grouped query: read .groups instead of .as_dict()")
        return dict(zip(self.labels, self.values))

    def group(self, key: Any) -> dict[str, int | float | None]:
        """The per-term values for one group key."""
        for group_key, values in self.groups:
            if group_key == key:
                return dict(zip(self.labels, values))
        raise QueryError(f"no group {key!r}")


def _match_prefix(value: Any, prefix: str) -> bool:
    try:
        return ipaddress.IPv4Address(str(value)) in \
            ipaddress.IPv4Network(prefix)
    except ValueError:
        return False


_COMPARATORS: dict[BinaryOp, Callable[[Any, Any], bool]] = {
    BinaryOp.EQ: lambda a, b: a == b,
    BinaryOp.NE: lambda a, b: a != b,
    BinaryOp.LT: lambda a, b: a < b,
    BinaryOp.LE: lambda a, b: a <= b,
    BinaryOp.GT: lambda a, b: a > b,
    BinaryOp.GE: lambda a, b: a >= b,
}


def _field_value(entry: EntryView, name: str) -> Any:
    try:
        return entry[name]
    except KeyError:
        raise QueryError(f"entry view is missing column {name!r}") from None


def evaluate_predicate(predicate: Predicate | None,
                       entry: EntryView) -> bool:
    """Does ``entry`` satisfy the predicate?"""
    if predicate is None:
        return True
    if isinstance(predicate, Comparison):
        actual = _field_value(entry, predicate.field.name)
        expected = predicate.value.value
        try:
            return _COMPARATORS[predicate.op](actual, expected)
        except TypeError as exc:
            raise QueryError(
                f"cannot compare {predicate.field.name} "
                f"({type(actual).__name__}) with "
                f"{type(expected).__name__}") from exc
    if isinstance(predicate, PrefixMatch):
        matched = _match_prefix(
            _field_value(entry, predicate.field.name), predicate.prefix)
        return matched != predicate.negated
    if isinstance(predicate, Logical):
        if predicate.op is LogicalOp.AND:
            return all(evaluate_predicate(o, entry)
                       for o in predicate.operands)
        if predicate.op is LogicalOp.OR:
            return any(evaluate_predicate(o, entry)
                       for o in predicate.operands)
        return not evaluate_predicate(predicate.operands[0], entry)
    raise QueryError(f"unknown predicate {type(predicate).__name__}")


class _Accumulator:
    """Streaming accumulator for one aggregate term.

    Float sums are accumulated as exact rationals (every finite float is
    a dyadic ``Fraction``), so the running total is independent of the
    order — and, crucially, of the *grouping* — of the additions.  That
    is what lets a partitioned query prove per-partition partial states
    and fold them in a merge guest while staying bit-identical to the
    single-pass result: ``result()`` rounds the exact total to a float
    exactly once, at the end.
    """

    __slots__ = ("aggregate", "count", "total", "minimum", "maximum")

    def __init__(self, aggregate: Aggregate) -> None:
        self.aggregate = aggregate
        self.count = 0
        self.total: int | float | Fraction = 0
        self.minimum: int | float | None = None
        self.maximum: int | float | None = None

    def feed(self, entry: EntryView) -> None:
        self.count += 1
        field = self.aggregate.field
        if field is None:
            return
        value = _field_value(entry, field.name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise QueryError(
                f"cannot aggregate non-numeric column {field.name!r}")
        if isinstance(value, float) and math.isfinite(value):
            self.total += Fraction(value)
        else:
            self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def state(self) -> dict[str, Any]:
        """The mergeable partial state, in canonical wire-safe form."""
        total: Any = self.total
        if isinstance(total, Fraction):
            total = [total.numerator, total.denominator]
        return {"c": self.count, "t": total,
                "mn": self.minimum, "mx": self.maximum}

    def absorb(self, state: Mapping[str, Any]) -> None:
        """Fold another accumulator's ``state()`` into this one."""
        try:
            count = state["c"]
            total = state["t"]
            minimum = state["mn"]
            maximum = state["mx"]
        except (KeyError, TypeError) as exc:
            raise QueryError("malformed partial aggregate state") from exc
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise QueryError("malformed partial aggregate count")
        if isinstance(total, (list, tuple)):
            if len(total) != 2 or not all(
                    isinstance(part, int) and not isinstance(part, bool)
                    for part in total):
                raise QueryError("malformed partial aggregate total")
            total = Fraction(total[0], total[1])
        elif not isinstance(total, (int, float)) or isinstance(total, bool):
            raise QueryError("malformed partial aggregate total")
        self.count += count
        self.total += total
        if minimum is not None and (self.minimum is None
                                    or minimum < self.minimum):
            self.minimum = minimum
        if maximum is not None and (self.maximum is None
                                    or maximum > self.maximum):
            self.maximum = maximum

    def result(self) -> int | float | None:
        func = self.aggregate.func
        if func is AggFunc.COUNT:
            return self.count
        if self.count == 0:
            return None
        if func is AggFunc.SUM:
            if isinstance(self.total, Fraction):
                return float(self.total)
            return self.total
        if func is AggFunc.AVG:
            value = self.total / self.count
            if isinstance(value, Fraction):
                return float(value)
            return value
        if func is AggFunc.MIN:
            return self.minimum
        if func is AggFunc.MAX:
            return self.maximum
        raise QueryError(f"unknown aggregate {func!r}")


def _sort_key(key: Any) -> tuple[str, Any]:
    return (str(type(key)), key)


# ``(group_key, accumulators)`` in key order; an ungrouped query has the
# single row ``(None, accumulators)``.
_Rows = list[tuple[Any, list[_Accumulator]]]


def _fed(aggregates: Sequence[Aggregate], matching: Iterable[EntryView],
         count: int | None = None) -> list[_Accumulator]:
    """Fresh accumulators fed every entry of ``matching`` — or, for a
    COUNT(*)-only select list whose caller already knows how many
    entries that is, just told the ``count``."""
    accumulators = [_Accumulator(a) for a in aggregates]
    if count is not None:
        for accumulator in accumulators:
            accumulator.count = count
    else:
        for entry in matching:
            for accumulator in accumulators:
                accumulator.feed(entry)
    return accumulators


def _bucketed(aggregates: Sequence[Aggregate], group_field: str,
              matching: Iterable[EntryView]) -> _Rows:
    """GROUP BY: one accumulator row per distinct key of ``matching``."""
    buckets: dict[Any, list[_Accumulator]] = {}
    for entry in matching:
        key = _field_value(entry, group_field)
        bucket = buckets.get(key)
        if bucket is None:
            bucket = [_Accumulator(a) for a in aggregates]
            buckets[key] = bucket
        for accumulator in bucket:
            accumulator.feed(entry)
    return [(key, buckets[key]) for key in sorted(buckets, key=_sort_key)]


def _scan(query: Query, entries: Iterable[EntryView],
          cost_hook: Callable[[int], None] | None,
          ) -> tuple[int, int, _Rows]:
    """The one pass over ``entries``: ``(matched, scanned, rows)``.

    How the matching entries are found depends on the shape of the
    input alone.  Where :mod:`.vectorized` can build the WHERE mask it
    charges ``cost_hook`` once for the whole batch (same total — every
    in-tree hook is linear, so metered cycles are unchanged) and names
    the matching indices and, for GROUP BY, each bucket's.  Where it
    answers ``None`` the entries are walked lazily, so each is charged,
    then tested, then fed before the next is touched: an error on entry
    *k* surfaces after exactly *k + 1* hook calls.  Either way the same
    accumulators are fed the same entries in the same order.
    """
    # Imported here, not at module level: numpy is ~12 MiB of resident
    # memory that a process proving only rounds never needs.
    from . import vectorized
    if not isinstance(entries, (list, tuple)):
        entries = list(entries)
    aggregates = query.aggregates
    columns: dict[str, Any] = {}
    indices = vectorized.matched_indices(query, entries, cost_hook, columns)
    matched = 0 if indices is None else len(indices)

    def walk() -> Iterator[EntryView]:
        nonlocal matched
        per_entry_nodes = query.node_count
        for entry in entries:
            if cost_hook is not None:
                cost_hook(per_entry_nodes)
            if evaluate_predicate(query.where, entry):
                matched += 1
                yield entry

    pick = entries.__getitem__
    matching = walk() if indices is None else map(pick, indices)
    # With the indices in hand, COUNT(*) needs sizes and reads no entry.
    count_only = indices is not None \
        and all(a.field is None for a in aggregates)
    if query.group_by is None:
        rows = [(None, _fed(aggregates, matching,
                            matched if count_only else None))]
    else:
        group_field = query.group_by.name
        members = None if indices is None else vectorized.bucket_members(
            group_field, entries, indices, columns)
        if members is None:
            rows = _bucketed(aggregates, group_field, matching)
        else:
            rows = [(key, _fed(aggregates, map(pick, bucket),
                               len(bucket) if count_only else None))
                    for key, bucket in members]
    return matched, len(entries), rows


def _result(query: Query, matched: int, scanned: int,
            rows: _Rows) -> QueryResult:
    values = tuple((key, tuple(a.result() for a in accumulators))
                   for key, accumulators in rows)
    if query.group_by is None:
        return QueryResult(labels=query.labels, values=values[0][1],
                           matched=matched, scanned=scanned)
    return QueryResult(labels=query.labels, values=(), matched=matched,
                       scanned=scanned, group_by=query.group_by.name,
                       groups=values)


def evaluate(query: Query, entries: Iterable[EntryView],
             cost_hook: Callable[[int], None] | None = None) -> QueryResult:
    """Run ``query`` over entry views.

    ``cost_hook(nodes)`` receives the number of AST nodes evaluation
    touched — per scanned entry, or once for the whole batch with the
    same total (see :func:`_scan`); the zkVM guest uses it to charge
    compute cycles.
    """
    return _result(query, *_scan(query, entries, cost_hook))


@dataclass(frozen=True)
class PartialQueryResult:
    """Mergeable partial aggregates for one slice of the entry set.

    ``states`` holds one accumulator state per select-list term for an
    ungrouped query; grouped queries use ``group_states`` rows of
    ``(group_key, per-term states)`` sorted by key.  The wire form is
    what the partition guest commits and the merge guest folds.
    """

    matched: int
    scanned: int
    group_by: str | None
    states: tuple[dict[str, Any], ...]
    group_states: tuple[tuple[Any, tuple[dict[str, Any], ...]], ...] = ()

    def to_wire(self) -> dict[str, Any]:
        return {
            "matched": self.matched,
            "scanned": self.scanned,
            "states": [dict(s) for s in self.states],
            "groups": [[key, [dict(s) for s in states]]
                       for key, states in self.group_states],
        }


def evaluate_partial(
        query: Query, entries: Iterable[EntryView],
        cost_hook: Callable[[int], None] | None = None,
) -> PartialQueryResult:
    """Run ``query`` over a slice of the entry set, stopping short of
    finalization: the result carries raw accumulator states that
    ``merge_partials`` folds across slices.  Metering via ``cost_hook``
    is identical to :func:`evaluate`.
    """
    matched, scanned, rows = _scan(query, entries, cost_hook)
    states = tuple((key, tuple(a.state() for a in accumulators))
                   for key, accumulators in rows)
    if query.group_by is None:
        return PartialQueryResult(matched=matched, scanned=scanned,
                                  group_by=None, states=states[0][1])
    return PartialQueryResult(matched=matched, scanned=scanned,
                              group_by=query.group_by.name, states=(),
                              group_states=states)


def merge_partials(
        query: Query, partials: Sequence[Mapping[str, Any]],
        cost_hook: Callable[[int], None] | None = None,
) -> QueryResult:
    """Fold partial wire forms (``PartialQueryResult.to_wire()``) into
    the final :class:`QueryResult`.

    Because accumulation is exact (see :class:`_Accumulator`), the fold
    is associative and the merged result is bit-identical to running
    :func:`evaluate` over the concatenated slices.  ``cost_hook(n)`` is
    invoked once per absorbed accumulator state so the merge guest can
    charge compute cycles.
    """
    num_terms = len(query.aggregates)
    matched = 0
    scanned = 0
    if query.group_by is None:
        accumulators = [_Accumulator(a) for a in query.aggregates]
        for partial in partials:
            matched += partial["matched"]
            scanned += partial["scanned"]
            states = partial["states"]
            if len(states) != num_terms or partial["groups"]:
                raise QueryError(
                    "partial state shape does not match the query")
            if cost_hook is not None:
                cost_hook(num_terms)
            for accumulator, state in zip(accumulators, states):
                accumulator.absorb(state)
        return _result(query, matched, scanned, [(None, accumulators)])
    buckets: dict[Any, list[_Accumulator]] = {}
    for partial in partials:
        matched += partial["matched"]
        scanned += partial["scanned"]
        if partial["states"]:
            raise QueryError(
                "partial state shape does not match the query")
        for row in partial["groups"]:
            key, states = row
            if len(states) != num_terms:
                raise QueryError(
                    "partial group shape does not match the query")
            bucket = buckets.get(key)
            if bucket is None:
                bucket = [_Accumulator(a) for a in query.aggregates]
                buckets[key] = bucket
            if cost_hook is not None:
                cost_hook(num_terms)
            for accumulator, state in zip(bucket, states):
                accumulator.absorb(state)
    return _result(query, matched, scanned, [
        (key, buckets[key]) for key in sorted(buckets, key=_sort_key)])
