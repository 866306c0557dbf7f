"""The tiered query-result cache: (sql, round, root) → QueryResponse.

PR 3 gave :class:`~repro.core.prover_service.ProverService` an
in-process LRU of proven responses; PR 5 keyed it by (sql, round,
*root*) so a diverged chain at the same round number can never replay a
stale receipt.  This module promotes that dict to a real cache with the
same two-tier contract as :class:`~repro.engine.cache.ReceiptCache`:

* **Memory tier**: a locked, bounded LRU of
  :class:`~repro.core.query_proof.QueryResponse` objects — safe under
  the server's concurrent executor threads (the old ``OrderedDict`` was
  mutated unlocked, which corrupts under load).
* **Persistent tier**: the :class:`~repro.storage.backend.LogStore`
  checkpoint KV, so proven answers survive restarts and are shareable
  between the in-process query path and the multi-tenant query service.
  Backends without checkpoint support degrade to memory-only (one
  warning); a flaky persistent tier must never fail a query.

The committed **root is part of the key**, which is what makes the
persistent tier safe across crash/restore divergence: a re-aggregated
round at the same index commits a different root and therefore misses.
Persistent entries are sealed under a content digest and, after
decoding, cross-checked against the requested (sql, root) before being
served — *any* corruption of a stored blob is a miss, never a wrong
answer (and the receipt inside remains client-verifiable regardless).

``repro_qserve_cache_total`` counters are **opt-in** (``observe=True``
or :meth:`enable_observation`): the default in-process service keeps
its seed telemetry namespace, while the query service flips them on.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from typing import Any

from ..errors import ConfigurationError, ReproError, StorageError
from ..hashing import (
    TAG_QSERVE_KEY,
    Digest,
    open_blob,
    seal_blob,
    tagged_hash,
)
from ..obs import names as obs_names
from ..obs import runtime as obs
from ..serialization import (
    decode_query_response,
    encode_query_response,
)
from ..storage.backend import LogStore

logger = logging.getLogger(__name__)

#: Checkpoint-KV name prefix for the persistent tier.
QSERVE_CACHE_NAMESPACE = "query-results"


def result_cache_key(sql: str, round_index: int, root: Digest) -> Digest:
    """The content address of one proven answer.

    Proving is deterministic, so (sql, round, root) fully determines
    the response bytes — the same argument that makes the engine's
    receipt cache sound.
    """
    return tagged_hash(
        TAG_QSERVE_KEY,
        sql.encode("utf-8"),
        int(round_index).to_bytes(8, "big"),
        root.raw,
    )


class QueryResultCache:
    """Locked LRU memory tier over an optional persistent KV tier."""

    def __init__(self, store: LogStore | None = None,
                 memory_entries: int = 256,
                 namespace: str = QSERVE_CACHE_NAMESPACE,
                 observe: bool = False) -> None:
        if memory_entries < 1:
            raise ConfigurationError("memory_entries must be >= 1")
        self._memory: OrderedDict[bytes, Any] = OrderedDict()
        self._memory_entries = memory_entries
        self._store = store
        self._namespace = namespace
        self._persistent_ok = store is not None
        self._observe = observe
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0

    # -- configuration -------------------------------------------------------

    def enable_observation(self) -> None:
        """Start emitting ``repro_qserve_cache_total`` counters."""
        self._observe = True

    def attach_store(self, store: LogStore | None) -> None:
        """Late-bind a persistent tier (no-op when one is attached).

        Lets the query service promote the service's memory-only cache
        to the shared persistent tier without rebuilding it — both
        paths then serve each other's proven answers.
        """
        with self._lock:
            if self._store is None and store is not None:
                self._store = store
                self._persistent_ok = True

    # -- lookup --------------------------------------------------------------

    def get(self, sql: str, round_index: int, root: Digest) -> Any:
        """The cached :class:`QueryResponse`, or ``None``.

        A persistent-tier hit is promoted into the memory tier.
        """
        key = result_cache_key(sql, round_index, root)
        with self._lock:
            cached = self._memory.get(key.raw)
            if cached is not None:
                self._memory.move_to_end(key.raw)
                self._hits += 1
        if cached is not None:
            self._count("memory", "hit")
            return cached
        self._count("memory", "miss")
        response = self._get_persistent(key, sql, root)
        if response is not None:
            self._count("persistent", "hit")
            with self._lock:
                self._hits += 1
                self._remember(key, response)
            return response
        if self._persistent_ok:
            self._count("persistent", "miss")
        with self._lock:
            self._misses += 1
        return None

    def put(self, response: Any) -> None:
        """Remember a proven response in both tiers (best-effort
        persistence).  The key is derived from the response itself —
        its journal-committed (sql, round, root) — so a caller can
        never file an answer under the wrong identity."""
        key = result_cache_key(response.sql, response.round,
                               response.root)
        with self._lock:
            self._remember(key, response)
            self._stores += 1
        self._count("memory", "store")
        self._put_persistent(key, response)

    def clear(self) -> None:
        """Drop the memory tier (restore path).

        Persistent entries stay: they are root-keyed, so state adopted
        from a checkpoint either reproduces the same root (and the
        entries are valid) or a different one (and they can never be
        served).
        """
        with self._lock:
            self._memory.clear()

    # -- status --------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            hits, misses = self._hits, self._misses
            stores, evictions = self._stores, self._evictions
            entries = len(self._memory)
        lookups = hits + misses
        return {
            "memory_entries": entries,
            "memory_max": self._memory_entries,
            "persistent": self._persistent_ok,
            "hits": hits,
            "misses": misses,
            "stores": stores,
            "evictions": evictions,
            "hit_rate": (hits / lookups) if lookups else 0.0,
        }

    # -- internals -----------------------------------------------------------

    def _count(self, tier: str, result: str) -> None:
        if not self._observe:
            return
        obs.registry().counter(obs_names.QSERVE_CACHE,
                               ("tier", "result")).inc(
            tier=tier, result=result)

    def _remember(self, key: Digest, response: Any) -> None:
        """Insert into the LRU (caller holds the lock)."""
        self._memory[key.raw] = response
        self._memory.move_to_end(key.raw)
        while len(self._memory) > self._memory_entries:
            self._memory.popitem(last=False)
            self._evictions += 1
            if self._observe:
                obs.registry().counter(
                    obs_names.QSERVE_CACHE, ("tier", "result")).inc(
                    tier="memory", result="evict")

    def _checkpoint_name(self, key: Digest) -> str:
        return f"{self._namespace}/{key.hex()}"

    def _get_persistent(self, key: Digest, sql: str,
                        root: Digest) -> Any:
        if not self._persistent_ok:
            return None
        try:
            blob = self._store.get_checkpoint(self._checkpoint_name(key))
        except StorageError:
            self._degrade("read")
            return None
        if blob is None:
            return None
        payload = open_blob(blob)
        if payload is None:
            logger.warning("query result cache: dropping corrupt "
                           "entry %s (digest mismatch)", key.short())
            return None
        try:
            response = decode_query_response(payload)
        except ReproError as exc:
            # A corrupt entry is a miss, never an error: re-prove.
            logger.warning("query result cache: dropping undecodable "
                           "entry %s (%s)", key.short(), exc)
            return None
        if response.sql != sql or response.root != root:
            logger.warning("query result cache: entry %s does not "
                           "match its key; dropping it", key.short())
            return None
        return response

    def _put_persistent(self, key: Digest, response: Any) -> None:
        if not self._persistent_ok:
            return
        try:
            self._store.put_checkpoint(
                self._checkpoint_name(key),
                seal_blob(encode_query_response(response)))
            self._count("persistent", "store")
        except StorageError:
            self._degrade("write")

    def _degrade(self, op: str) -> None:
        if self._persistent_ok:
            self._persistent_ok = False
            logger.warning(
                "query result cache: persistent tier failed on %s; "
                "continuing memory-only", op)
