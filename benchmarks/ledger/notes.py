"""Where per-layer measurements are written down during a run."""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from functools import wraps
from typing import Callable, Iterable, Iterator


class Notes:
    """Values noted per declared per-layer metric; a metric's figure is
    the median of its values.

    Only declared names are accepted, so the ledger cannot emit a
    metric ``BENCHMARK.json`` does not list.  Lists are created up
    front: client threads only ever append.
    """

    def __init__(self, declared: Iterable[str]) -> None:
        self.values: dict[str, list[float]] = {n: [] for n in declared}
        self.reasons: dict[str, str] = {}

    def add(self, name: str, value: float) -> None:
        self.values[name].append(value)

    @contextmanager
    def ms(self, name: str) -> Iterator[None]:
        """Note the wall time of the block, in milliseconds."""
        start = time.perf_counter()
        yield
        self.add(name, (time.perf_counter() - start) * 1e3)

    def median(self, name: str) -> float | None:
        values = self.values[name]
        return statistics.median(values) if values else None


def probe(*names: str) -> Callable:
    """Mark ``fn(notes, ...)`` as a layer probe that notes ``names``.

    A probe that raises — a public function it calls was renamed, or
    its inputs changed shape — leaves its metrics empty and the reason
    in ``notes.reasons``; it never fails the run, because end-to-end
    numbers must survive refactors of the layers underneath.
    """
    def decorate(fn: Callable) -> Callable:
        @wraps(fn)
        def guarded(notes: Notes, *args, **kwargs) -> None:
            try:
                fn(notes, *args, **kwargs)
            except Exception as exc:  # boundary: report, keep running
                for name in names:
                    notes.reasons[name] = f"{fn.__name__}: {exc!r}"
        return guarded
    return decorate
