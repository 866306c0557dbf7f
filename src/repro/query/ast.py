"""Typed AST for the query language.

Every node has a ``node_count``, so the evaluator can charge cycles in
proportion to the work per entry.  A query crosses every boundary (the
wire, the guest input, the journal) as its SQL text, never as an AST.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from ..errors import QueryError


class AggFunc(enum.Enum):
    SUM = "SUM"
    COUNT = "COUNT"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"


class BinaryOp(enum.Enum):
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


class LogicalOp(enum.Enum):
    AND = "AND"
    OR = "OR"
    NOT = "NOT"


@dataclass(frozen=True)
class FieldRef:
    """A column reference."""

    name: str

    @property
    def node_count(self) -> int:
        return 1


@dataclass(frozen=True)
class Literal:
    """A constant (int, float, or string)."""

    value: int | float | str

    @property
    def node_count(self) -> int:
        return 1


@dataclass(frozen=True)
class Comparison:
    """``field <op> literal``."""

    op: BinaryOp
    field: FieldRef
    value: Literal

    @property
    def node_count(self) -> int:
        return 1 + self.field.node_count + self.value.node_count


@dataclass(frozen=True)
class PrefixMatch:
    """``field IN "10.1.0.0/16"`` — CIDR membership."""

    field: FieldRef
    prefix: str
    negated: bool = False

    @property
    def node_count(self) -> int:
        return 2 + self.field.node_count


@dataclass(frozen=True)
class Logical:
    """``a AND b``, ``a OR b`` or ``NOT a``."""

    op: LogicalOp
    operands: tuple["Predicate", ...]

    @property
    def node_count(self) -> int:
        return 1 + sum(o.node_count for o in self.operands)


Predicate = Union[Comparison, PrefixMatch, Logical]


@dataclass(frozen=True)
class Aggregate:
    """One select-list term: ``FUNC(field)`` or ``COUNT(*)``."""

    func: AggFunc
    field: FieldRef | None  # None only for COUNT(*)

    def __post_init__(self) -> None:
        if self.field is None and self.func is not AggFunc.COUNT:
            raise QueryError(f"{self.func.value} requires a column")

    @property
    def label(self) -> str:
        column = self.field.name if self.field else "*"
        return f"{self.func.value}({column})"

    @property
    def node_count(self) -> int:
        return 1 + (self.field.node_count if self.field else 0)


@dataclass(frozen=True)
class Query:
    """A full parsed query."""

    aggregates: tuple[Aggregate, ...]
    where: Predicate | None
    source: str = "clogs"
    group_by: FieldRef | None = None

    @property
    def node_count(self) -> int:
        total = sum(a.node_count for a in self.aggregates)
        if self.where is not None:
            total += self.where.node_count
        if self.group_by is not None:
            total += 2  # key extraction + bucket lookup
        return total

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(a.label for a in self.aggregates)
