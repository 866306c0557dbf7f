"""The query-result cache: the (sql, round, root) → QueryResponse codec over
:class:`~repro.storage.cache.SealedCache`, stored under ``query-results/<key hex>``.

The committed **root is part of the key**, so a diverged chain at the same round number can
never replay a stale answer.  A persistent entry is served only when the key recomputed from the
decoded response's own (sql, round, root) is the key that was looked up.  Every lookup lands in
``repro_qserve_cache_total{tier,result}``.
"""

from __future__ import annotations

from typing import Any

from ..errors import VerificationError
from ..hashing import TAG_QSERVE_KEY, Digest, tagged_hash
from ..obs import names as obs_names
from ..serialization import decode_query_response, encode_query_response
from ..storage.backend import LogStore
from ..storage.cache import SealedCache


def result_cache_key(sql: str, round_index: int, root: Digest) -> Digest:
    """The content address of one proven answer.

    Proving is deterministic, so (sql, round, root) fully determines the response bytes —
    the same argument that makes the engine's receipt cache sound.
    """
    return tagged_hash(
        TAG_QSERVE_KEY, sql.encode("utf-8"), int(round_index).to_bytes(8, "big"), root.raw
    )


class QueryResultCache(SealedCache):
    """Proven responses by (sql, round, root)."""

    def __init__(self, store: LogStore | None = None, memory_entries: int = 256) -> None:
        super().__init__(
            "query-results",
            obs_names.QSERVE_CACHE,
            encode_query_response,
            store,
            memory_entries,
        )

    def get(self, sql: str, round_index: int, root: Digest) -> Any:
        """The cached :class:`~repro.core.query_proof.QueryResponse`, or ``None``."""
        key = result_cache_key(sql, round_index, root)

        def accept(payload: bytes) -> Any:
            response = decode_query_response(payload)
            if result_cache_key(response.sql, response.round, response.root) != key:
                raise VerificationError("entry does not match its key")
            return response

        return self.lookup(key, accept)

    def put(self, response: Any) -> None:
        """Remember a proven response in both tiers (best-effort persistence).

        The key is derived from the response itself — its journal-committed (sql, round,
        root) — so a caller can never file an answer under the wrong identity.
        """
        self.remember(result_cache_key(response.sql, response.round, response.root), response)
