"""The host's one declaration of each fixed-shape journal it reads.

PROTOCOL §8's round header (value 0 of every aggregation journal) and
§9's query journal are declared here once.  Every host reader — the
verifier, the chain, the round frame, checkpoint restore, the CLI and
the wire client — goes through :meth:`parse`, which refuses a missing,
extra or mistyped field with :class:`~repro.errors.MalformedJournal`;
:meth:`encode` gives back the bytes the guest committed for the value.
The guests still write these layouts literally: editing a guest moves
its image id.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from typing import Any

from ..errors import MalformedJournal
from ..hashing import Digest
from ..serialization import encode
from ..zkvm import Receipt

#: What each field annotation the declarations use decodes from; a
#: ``tuple[...]`` field travels as a list.
_WIRE_TYPES = {"int": (int,), "str": (str,), "Digest": (Digest,), "str | None": (str, type(None))}
_WINDOW_TYPES = {"r": (str,), "w": (int,), "c": (Digest,)}


@cache
def _wire_types(declaration: type) -> dict[str, tuple[type, ...]]:
    return {
        f.name: (list,) if f.type.startswith("tuple[") else _WIRE_TYPES[f.type]
        for f in fields(declaration)
    }


def _read(value: Any, what: str, types: dict[str, tuple[type, ...]]) -> dict[str, Any]:
    """``value``, once it is a dict of exactly ``types``' keys, each
    holding one of its types (``bool`` is not an ``int`` here)."""
    if type(value) is not dict:
        raise MalformedJournal(f"{what} is {type(value).__name__}, not a dict")
    for key, allowed in types.items():
        if key not in value:
            raise MalformedJournal(f"{what} has no {key!r} field")
        if type(value[key]) not in allowed:
            expected = " or ".join(t.__name__ for t in allowed)
            raise MalformedJournal(
                f"{what} field {key!r} is {type(value[key]).__name__}, not {expected}"
            )
    if len(value) != len(types):
        raise MalformedJournal(f"{what} has unexpected field(s) {sorted(set(value) - set(types))}")
    return value


@dataclass(frozen=True)
class RoundHeader:
    """PROTOCOL §8, value 0: what an aggregation round publicly
    establishes.  ``windows`` holds ``(router_id, window_index,
    commitment)`` triples in journal order."""

    round: int
    prev_root: Digest
    new_root: Digest
    size: int
    depth: int
    windows: tuple[tuple[str, int, Digest], ...]
    policy: Digest
    entries: int

    @classmethod
    def parse(cls, receipt: Receipt) -> "RoundHeader":
        """Value 0 of ``receipt``'s journal; the per-record items after
        it are never decoded."""
        header = _read(
            next(receipt.journal.values(), None), "round journal header", _wire_types(cls)
        )
        windows = tuple(
            (w["r"], w["w"], w["c"])
            for w in (_read(w, "round journal window", _WINDOW_TYPES) for w in header["windows"])
        )
        return cls(**{**header, "windows": windows})

    def encode(self) -> bytes:
        """The bytes the guest committed as value 0."""
        windows = [{"r": r, "w": w, "c": c} for r, w, c in self.windows]
        return encode({**vars(self), "windows": windows})

    @property
    def consumed(self) -> tuple[tuple[str, int], ...]:
        """The ``(router_id, window_index)`` pairs the round consumed."""
        return tuple((r, w) for r, w, _ in self.windows)


@dataclass(frozen=True)
class QueryJournal:
    """PROTOCOL §9: the one value a query receipt commits, whether a
    full scan or a fan-out merge proved it.  ``groups`` holds
    ``(key, values)`` pairs."""

    query: str
    root: Digest
    round: int
    labels: tuple[str, ...]
    values: tuple[int | float | None, ...]
    matched: int
    scanned: int
    group_by: str | None
    groups: tuple[tuple[Any, tuple[int | float | None, ...]], ...]

    @classmethod
    def parse(cls, receipt: Receipt) -> "QueryJournal":
        values = receipt.journal.decode()
        if len(values) != 1:
            raise MalformedJournal(f"query journal holds {len(values)} values, not 1")
        journal = _read(values[0], "query journal", _wire_types(cls))
        groups = []
        for group in journal["groups"]:
            if type(group) is not list or len(group) != 2 or type(group[1]) is not list:
                raise MalformedJournal(
                    "query journal field 'groups' holds a group that is not a [key, values] pair"
                )
            groups.append((group[0], tuple(group[1])))
        return cls(
            **{
                **journal,
                "labels": tuple(journal["labels"]),
                "values": tuple(journal["values"]),
                "groups": tuple(groups),
            }
        )

    def encode(self) -> bytes:
        """The bytes the guest committed (tuples encode as lists)."""
        return encode(vars(self))


__all__ = ["QueryJournal", "RoundHeader"]
