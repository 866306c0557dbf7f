"""What numpy computes for a query scan: the WHERE mask and GROUP BY
bucket membership.

Left to itself, :func:`repro.query.evaluator._scan` walks the predicate
AST once per entry — for a partition of tens of thousands of slots that
tree walk dominates query guest time.  This module evaluates the WHERE
clause as numpy column masks instead and hands back the *matching*
indices (and, for GROUP BY, which of them share a key); the scan then
feeds exactly those entries through its one ``_Accumulator`` loop, so
results — including the order-independent ``Fraction`` sums that make
partitioned queries bit-identical — do not depend on which way the rows
were found.

The choice between the mask and the per-entry walk is made from the
*shape of the input*, never by a switch.  Strictness over speed: the
mask builder vectorizes only cases whose numpy semantics provably match
the walk's Python semantics —

* int columns within int64 compared to int64-range int literals;
* float columns compared to float literals (or ints exactly
  representable as float64);
* str columns compared to str literals (both sides compare by unicode
  code point);

— and returns ``None`` for anything else (mixed-type columns, bools,
``PrefixMatch``, out-of-range literals, missing columns), in which case
the scan walks entry by entry with its exact error behavior.
``cost_hook`` is invoked once with the batch total instead of once per
entry; every in-tree hook charges ``env.tick`` linearly, so metered
cycle totals are identical (property-tested against the plain loop in
``tests/reference/query.py``, which also pins which shapes take which
way).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as _np

from .ast import BinaryOp, Comparison, Logical, LogicalOp, Predicate, Query
from .evaluator import EntryView

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
# Largest int magnitude exactly representable as a float64.
_FLOAT_EXACT_INT = 1 << 53


def _build_column(entries: Sequence[EntryView],
                  name: str) -> tuple[str, Any] | None:
    """Materialize one column as ``(kind, ndarray)``; None if unsafe."""
    values = []
    append = values.append
    for entry in entries:
        try:
            append(entry[name])
        except KeyError:
            return None  # the walk raises the canonical QueryError
    has_int = has_float = has_str = False
    for value in values:
        if type(value) is int:
            if not _INT64_MIN <= value <= _INT64_MAX:
                return None
            has_int = True
        elif type(value) is float:
            has_float = True
        elif type(value) is str:
            has_str = True
        else:
            return None  # bools, None, bytes, subclasses: walk
    if has_str:
        if has_int or has_float:
            return None
        return "str", _np.array(values)
    if has_float:
        if has_int:
            return None  # mixed exactness — keep the walk's semantics
        return "float", _np.array(values, dtype=_np.float64)
    if has_int:
        return "int", _np.array(values, dtype=_np.int64)
    return None  # empty column: nothing to vectorize


def _comparison_mask(predicate: Comparison, entries: Sequence[EntryView],
                     columns: dict[str, Any]) -> Any | None:
    name = predicate.field.name
    if name not in columns:
        columns[name] = _build_column(entries, name)
    column = columns[name]
    if column is None:
        return None
    kind, array = column
    literal = predicate.value.value
    if isinstance(literal, bool):
        return None
    if kind == "int":
        if not isinstance(literal, int) \
                or not _INT64_MIN <= literal <= _INT64_MAX:
            return None
    elif kind == "float":
        if isinstance(literal, int):
            if not -_FLOAT_EXACT_INT <= literal <= _FLOAT_EXACT_INT:
                return None
            literal = float(literal)
        elif not isinstance(literal, float):
            return None
        if math.isnan(literal):
            # NaN comparisons agree between numpy and Python, but numpy
            # emits RuntimeWarnings; keep the run quiet-clean.
            return None
    else:  # str
        if not isinstance(literal, str):
            return None
    op = predicate.op
    if op is BinaryOp.EQ:
        return array == literal
    if op is BinaryOp.NE:
        return array != literal
    if op is BinaryOp.LT:
        return array < literal
    if op is BinaryOp.LE:
        return array <= literal
    if op is BinaryOp.GT:
        return array > literal
    if op is BinaryOp.GE:
        return array >= literal
    return None


def _predicate_mask(predicate: Predicate | None,
                    entries: Sequence[EntryView],
                    columns: dict[str, Any]) -> Any | None:
    """Boolean mask for ``predicate``, or None if not vectorizable."""
    if predicate is None:
        return _np.ones(len(entries), dtype=bool)
    if isinstance(predicate, Comparison):
        return _comparison_mask(predicate, entries, columns)
    if isinstance(predicate, Logical):
        masks = []
        for operand in predicate.operands:
            mask = _predicate_mask(operand, entries, columns)
            if mask is None:
                return None
            masks.append(mask)
        if predicate.op is LogicalOp.AND:
            return _np.logical_and.reduce(masks)
        if predicate.op is LogicalOp.OR:
            return _np.logical_or.reduce(masks)
        return ~masks[0]
    return None  # PrefixMatch (CIDR membership) is walked per entry


def matched_indices(query: Query, entries: Sequence[EntryView],
                    cost_hook: Callable[[int], None] | None,
                    columns: dict[str, Any]) -> Any | None:
    """Indices of the entries satisfying WHERE, or None to walk instead.

    ``columns`` caches the arrays built on the way, for
    :func:`bucket_members`.  Nothing is charged when the answer is None.
    """
    mask = _predicate_mask(query.where, entries, columns)
    if mask is None:
        return None
    scanned = len(entries)
    if cost_hook is not None and scanned:
        # One batch charge; in-tree hooks are linear (`env.tick(n * k)`),
        # so the metered total equals `scanned` per-entry invocations.
        cost_hook(query.node_count * scanned)
    return _np.nonzero(mask)[0]


def bucket_members(group_field: str, entries: Sequence[EntryView],
                   indices: Any, columns: dict[str, Any]
                   ) -> list[tuple[Any, Any]] | None:
    """GROUP BY membership: ``(key, indices)`` per bucket, in key order.

    The per-row key extraction, dict insert and final sort of the
    bucket loop collapse into one ``np.unique(..., return_inverse=True)``
    over the group column plus a stable argsort, reusing any column the
    WHERE mask already built.  Returns ``None`` when the group column is
    not safely vectorizable — float columns keep the dict loop because
    ``np.unique`` totally orders NaN while ``sorted`` raises — and the
    caller then buckets the same ``indices`` itself: ``cost_hook`` has
    already been charged for the scan by the time grouping starts.
    """
    if group_field not in columns:
        columns[group_field] = _build_column(entries, group_field)
    column = columns[group_field]
    if column is None:
        return None
    kind, array = column
    if kind == "float":
        return None
    uniques, inverse = _np.unique(array[indices], return_inverse=True)
    order = _np.argsort(inverse, kind="stable")
    splits = _np.flatnonzero(_np.diff(inverse[order])) + 1
    # `.tolist()` yields native int/str keys — identical to the dict
    # loop's `_field_value` keys, so journals stay byte-identical;
    # np.unique's ascending order equals `sorted(..., key=_sort_key)`
    # for a homogeneous int64 or str column.
    return list(zip(uniques.tolist(), _np.split(indices[order], splits)))
