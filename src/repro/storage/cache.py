"""One sealed two-tier cache: a locked, bounded LRU over the checkpoint KV.

Proving is deterministic, so a receipt or a proven answer is pure content, safe to replay from
any tier.  :class:`SealedCache` is the one place that decides whether a stored blob is served;
:class:`~repro.engine.cache.ReceiptCache` and :class:`~repro.qserve.cache.QueryResultCache` are
codecs over it.  The persistent tier, the :class:`~repro.storage.backend.LogStore` checkpoint
KV, is **not trusted** (``repro worker --db`` shares it with untrusted nodes): every blob is
sealed under its content digest and re-checked by the codec before it is promoted, so a flipped
byte or a misfiled entry is a logged miss.  The first :class:`~repro.errors.StorageError` on a
read or a write degrades the cache to memory-only: a flaky store never fails a prove or a query.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from typing import Any, Callable

from ..errors import ConfigurationError, ReproError, StorageError
from ..hashing import Digest, open_blob, seal_blob
from ..obs import runtime as obs
from .backend import LogStore

logger = logging.getLogger(__name__)


class SealedCache:
    """Locked LRU memory tier over an optional sealed checkpoint-KV tier: ``prefix`` names the
    checkpoints, ``counter`` the ``(tier, result)`` counter and ``encode`` the payload of a
    value."""

    def __init__(
        self,
        prefix: str,
        counter: str,
        encode: Callable[[Any], bytes],
        store: LogStore | None = None,
        memory_entries: int = 256,
    ) -> None:
        if memory_entries < 1:
            raise ConfigurationError("memory_entries must be >= 1")
        self._prefix = prefix
        self._counter = counter
        self._encode = encode
        self._store = store
        self._persistent_ok = store is not None
        self._memory: OrderedDict[bytes, Any] = OrderedDict()
        self._memory_max = memory_entries
        self._lock = threading.Lock()
        self._hits = self._misses = self._stores = self._evictions = 0

    def lookup(self, key: Digest, accept: Callable[[bytes], Any]) -> Any:
        """The value cached under ``key``, or ``None``.

        A persistent entry is served only if its seal opens and ``accept`` turns the payload
        into a value without raising :class:`~repro.errors.ReproError`; it is then promoted
        into the memory tier.
        """
        with self._lock:
            value = self._memory.get(key.raw)
            if value is not None:
                self._memory.move_to_end(key.raw)
                self._hits += 1
        if value is not None:
            self._count("memory", "hit")
            return value
        self._count("memory", "miss")
        value = self._get_persistent(key, accept)
        if value is not None:
            self._count("persistent", "hit")
            with self._lock:
                self._hits += 1
                self._remember(key, value)
            return value
        if self._persistent_ok:
            self._count("persistent", "miss")
        with self._lock:
            self._misses += 1
        return None

    def remember(self, key: Digest, value: Any) -> None:
        """Keep ``value`` in both tiers (best-effort persistence)."""
        with self._lock:
            self._remember(key, value)
            self._stores += 1
        self._count("memory", "store")
        if not self._persistent_ok:
            return
        try:
            self._store.put_checkpoint(self._name(key), seal_blob(self._encode(value)))
            self._count("persistent", "store")
        except StorageError:
            self._degrade("write")

    def clear(self) -> None:
        """Drop the memory tier; persistent entries stay."""
        with self._lock:
            self._memory.clear()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "memory_entries": len(self._memory),
                "memory_max": self._memory_max,
                "persistent": self._persistent_ok,
                "hits": self._hits,
                "misses": self._misses,
                "stores": self._stores,
                "evictions": self._evictions,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
            }

    def _count(self, tier: str, result: str) -> None:
        obs.registry().counter(self._counter, ("tier", "result")).inc(tier=tier, result=result)

    def _remember(self, key: Digest, value: Any) -> None:
        """Insert into the LRU (caller holds the lock)."""
        self._memory[key.raw] = value
        self._memory.move_to_end(key.raw)
        if len(self._memory) > self._memory_max:
            self._memory.popitem(last=False)
            self._evictions += 1
            self._count("memory", "evict")

    def _name(self, key: Digest) -> str:
        return f"{self._prefix}/{key.hex()}"

    def _get_persistent(self, key: Digest, accept: Callable[[bytes], Any]) -> Any:
        if not self._persistent_ok:
            return None
        try:
            blob = self._store.get_checkpoint(self._name(key))
        except StorageError:
            self._degrade("read")
            return None
        if blob is None:
            return None
        payload = open_blob(blob)
        if payload is None:
            logger.warning("%s: dropping entry %s (digest mismatch)", self._prefix, key.short())
            return None
        try:
            return accept(payload)
        except ReproError as exc:
            logger.warning("%s: dropping entry %s (%s)", self._prefix, key.short(), exc)
            return None

    def _degrade(self, op: str) -> None:
        if self._persistent_ok:
            self._persistent_ok = False
            logger.warning("%s: persistent tier failed on %s; memory-only now", self._prefix, op)
