"""In-memory spans around the ledger's own calls into ``repro``.

A span is (name, start, end, parent, op id).  Spans live in a list
until the run ends; nothing is written or formatted while an op is
being timed.  ``repro.obs`` stays off — these spans wrap the calls the
benchmark makes, from outside.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

OP = "op"


@dataclass(slots=True)
class Span:
    name: str
    op_id: str
    parent: "Span | None"
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; each thread keeps its own stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op_id: str | None = None) -> Iterator[Span]:
        stack: list[Span] = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if op_id is None:
            op_id = parent.op_id if parent is not None else ""
        span = Span(name, op_id, parent, time.perf_counter())
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def op(self, op_id: str):
        """The root span of one traced op."""
        return self.span(OP, op_id)

    def by_op(self) -> dict[str, dict[str, float]]:
        """op id -> {span name: summed seconds of the op's *direct*
        children}, plus the op's own duration under ``"op"``."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if span.name == OP:
                out.setdefault(span.op_id, {})[OP] = span.seconds
            elif span.parent is not None and span.parent.name == OP:
                row = out.setdefault(span.op_id, {})
                row[span.name] = row.get(span.name, 0.0) + span.seconds
        return out

    def to_wire(self) -> list[dict]:
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [{"name": s.name, "op": s.op_id, "start": s.start,
                 "end": s.end,
                 "parent": index[id(s.parent)] if s.parent else None}
                for s in self.spans]
