"""Counted host work: what a block of code asks of the codec and the
address parser, read off public seams instead of timed.

Wall-clock on a shared machine resolves only large changes; a count
resolves every one and says which way it went.  ``count_host_work``
wraps each seam for the length of a ``with`` block:

* ``encode`` / ``decode`` / ``decode_stream`` — top-level codec calls,
  wherever a module bound the function by name;
* ``_encode`` / ``_decode_fast`` — every value the codec walks, nested
  ones included (the recursion goes through the module global);
* ``CLogEntry.to_payload`` — CLog leaf payloads written;
* ``FlowKey.unpack`` — keys rebuilt from packed bytes;
* ``IPv4Address`` — ``ipaddress`` parses and formats.

The codec's dict-key prefix table starts empty inside the block, so
counts do not depend on what ran earlier in the process.

``count_durable_io`` does the same for the checkpoint KV of both
concrete stores (:data:`KV_SEAMS`): ``get_checkpoint`` and
``put_checkpoint`` calls, and ``checkpoint_bytes`` — the bytes handed
to ``put_checkpoint``.
"""

from __future__ import annotations

import functools
import ipaddress
import sys
from collections import Counter
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Iterator
from unittest import mock

import repro.serialization as serialization
from repro.core.clog import CLogEntry
from repro.netflow.records import FlowKey
from repro.storage import MemoryLogStore, SqliteLogStore

SEAMS = ("encode", "decode", "decode_stream", "_encode", "_decode_fast",
         "CLogEntry.to_payload", "FlowKey.unpack", "IPv4Address")

KV_SEAMS = ("get_checkpoint", "put_checkpoint", "checkpoint_bytes")


def _counting(counts: Counter, name: str,
              fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _bindings(target: Any) -> Iterator[tuple[Any, str]]:
    """Every ``repro`` module attribute bound to ``target``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is target:
                yield module, attr


@contextmanager
def count_host_work() -> Iterator[Counter]:
    """Count calls to every seam in :data:`SEAMS` inside the block; the
    yielded counter holds a zero for each seam never reached."""
    counts: Counter = Counter({name: 0 for name in SEAMS})
    with ExitStack() as stack:
        stack.enter_context(
            mock.patch.dict(serialization._KEY_PREFIXES, clear=True))
        for name in ("encode", "decode", "decode_stream"):
            fn = getattr(serialization, name)
            wrapper = _counting(counts, name, fn)
            for module, attr in list(_bindings(fn)):
                stack.enter_context(
                    mock.patch.object(module, attr, wrapper))
        for name in ("_encode", "_decode_fast"):
            stack.enter_context(mock.patch.object(
                serialization, name,
                _counting(counts, name, getattr(serialization, name))))
        stack.enter_context(mock.patch.object(
            CLogEntry, "to_payload", _counting(
                counts, "CLogEntry.to_payload", CLogEntry.to_payload)))
        stack.enter_context(mock.patch.object(
            FlowKey, "unpack", classmethod(_counting(
                counts, "FlowKey.unpack", FlowKey.unpack.__func__))))
        stack.enter_context(mock.patch.object(
            ipaddress.IPv4Address, "__init__", _counting(
                counts, "IPv4Address", ipaddress.IPv4Address.__init__)))
        yield counts


@contextmanager
def count_durable_io() -> Iterator[Counter]:
    """Count checkpoint-KV traffic on every :class:`MemoryLogStore` and
    :class:`SqliteLogStore` inside the block (:data:`KV_SEAMS`)."""
    counts: Counter = Counter({name: 0 for name in KV_SEAMS})

    def sizing(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(self: Any, name: str, data: bytes) -> None:
            counts["checkpoint_bytes"] += len(data)
            return fn(self, name, data)
        return wrapper

    with ExitStack() as stack:
        for store in (MemoryLogStore, SqliteLogStore):
            stack.enter_context(mock.patch.object(
                store, "get_checkpoint", _counting(
                    counts, "get_checkpoint", store.get_checkpoint)))
            stack.enter_context(mock.patch.object(
                store, "put_checkpoint", _counting(
                    counts, "put_checkpoint",
                    sizing(store.put_checkpoint))))
        yield counts
