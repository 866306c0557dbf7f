"""Content-addressed receipt cache: two tiers, one key.

Proving is deterministic — identical ``(guest image, env commitment,
opts digest)`` always yields a byte-identical receipt — so a receipt is
pure content: safe to replay forever, from any tier, on any backend.

* **Memory tier**: a bounded LRU of :class:`~repro.engine.jobs.
  JobResult` objects (zero-copy replay within one process).
* **Persistent tier**: the :class:`~repro.storage.backend.LogStore`
  checkpoint KV, so identical partition proofs survive daemon restarts.
  Backends without checkpoint support degrade to memory-only silently
  (one warning); a flaky persistent tier must never fail a prove.

The persistent tier is **not trusted**: ``repro worker --db`` shares it
with untrusted nodes.  Entries are sealed under a content digest (any
byte flip is a miss), and a hit is re-verified — seal, image id, exit
code, journal digest, input binding — exactly like a remote worker's
result before it is promoted to the memory tier.  A failing entry is a
logged miss: the job re-proves.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from typing import Any

from ..errors import ReproError, StorageError
from ..hashing import Digest, open_blob, seal_blob
from ..obs import names as obs_names
from ..obs import runtime as obs
from ..serialization import decode, encode
from ..storage.backend import LogStore
from .jobs import JobResult, ProofJob, verify_job_receipt

logger = logging.getLogger(__name__)

#: Checkpoint-KV name prefix for the persistent tier.
CACHE_NAMESPACE = "receipt-cache"


class ReceiptCache:
    """LRU memory tier over an optional persistent checkpoint-KV tier."""

    def __init__(self, store: LogStore | None = None,
                 memory_entries: int = 256,
                 namespace: str = CACHE_NAMESPACE) -> None:
        if memory_entries < 1:
            from ..errors import ConfigurationError
            raise ConfigurationError("memory_entries must be >= 1")
        self._memory: OrderedDict[bytes, JobResult] = OrderedDict()
        self._memory_entries = memory_entries
        self._store = store
        self._namespace = namespace
        self._persistent_ok = store is not None
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0

    # -- lookup --------------------------------------------------------------

    def get(self, key: Digest, job: ProofJob,
            image_id: Digest) -> JobResult | None:
        """Return the cached result for ``key`` or ``None``.

        ``job`` and its guest's ``image_id`` are what ``key`` was
        derived from: a persistent-tier hit must verify against them
        before it is promoted into the memory tier.  Every lookup lands
        one ``repro_engine_cache_total`` series.
        """
        counter = obs.registry().counter(obs_names.ENGINE_CACHE,
                                        ("tier", "result"))
        with self._lock:
            cached = self._memory.get(key.raw)
            if cached is not None:
                self._memory.move_to_end(key.raw)
                self._hits += 1
        if cached is not None:
            counter.inc(tier="memory", result="hit")
            return cached.replace_cached(True)
        counter.inc(tier="memory", result="miss")
        result = self._get_persistent(key, job, image_id)
        if result is not None:
            counter.inc(tier="persistent", result="hit")
            with self._lock:
                self._hits += 1
                self._remember(key, result)
            return result.replace_cached(True)
        if self._persistent_ok:
            counter.inc(tier="persistent", result="miss")
        with self._lock:
            self._misses += 1
        return None

    def put(self, key: Digest, result: JobResult) -> None:
        """Remember ``result`` in both tiers (best-effort persistence)."""
        stored = result.replace_cached(False)
        with self._lock:
            self._remember(key, stored)
            self._stores += 1
        obs.registry().counter(obs_names.ENGINE_CACHE,
                               ("tier", "result")).inc(
            tier="memory", result="store")
        self._put_persistent(key, stored)

    # -- status --------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            hits, misses, stores = self._hits, self._misses, self._stores
            entries = len(self._memory)
        lookups = hits + misses
        return {
            "memory_entries": entries,
            "memory_max": self._memory_entries,
            "persistent": self._persistent_ok,
            "hits": hits,
            "misses": misses,
            "stores": stores,
            "hit_rate": (hits / lookups) if lookups else 0.0,
        }

    # -- internals -----------------------------------------------------------

    def _remember(self, key: Digest, result: JobResult) -> None:
        """Insert into the LRU (caller holds the lock)."""
        self._memory[key.raw] = result
        self._memory.move_to_end(key.raw)
        while len(self._memory) > self._memory_entries:
            self._memory.popitem(last=False)

    def _checkpoint_name(self, key: Digest) -> str:
        return f"{self._namespace}/{key.hex()}"

    def _get_persistent(self, key: Digest, job: ProofJob,
                        image_id: Digest) -> JobResult | None:
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
            logger.warning("receipt cache: dropping corrupt entry %s "
                           "(digest mismatch)", key.short())
            return None
        try:
            result = JobResult.from_wire(decode(payload))
            verify_job_receipt(result.receipt, image_id,
                               job.env_commitment)
        except ReproError as exc:
            # A bad entry is a miss, never an error: re-prove.
            logger.warning("receipt cache: dropping entry %s that does "
                           "not verify (%s)", key.short(), exc)
            return None
        return result

    def _put_persistent(self, key: Digest, result: JobResult) -> None:
        if not self._persistent_ok:
            return
        # The worker-side metrics snapshot is per-execution telemetry,
        # not proof content — don't persist it.
        slim = JobResult(receipt=result.receipt, stats=result.stats)
        try:
            self._store.put_checkpoint(self._checkpoint_name(key),
                                       seal_blob(encode(slim.to_wire())))
            obs.registry().counter(obs_names.ENGINE_CACHE,
                                   ("tier", "result")).inc(
                tier="persistent", result="store")
        except StorageError:
            self._degrade("write")

    def _degrade(self, op: str) -> None:
        if self._persistent_ok:
            self._persistent_ok = False
            logger.warning(
                "receipt cache: persistent tier failed on %s; "
                "continuing memory-only", op)
