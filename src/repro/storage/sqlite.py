"""SQLite-backed log store — the offline stand-in for PostgreSQL.

One connection guarded by a lock serves all router threads (sqlite
serializes writers anyway); WAL mode keeps concurrent reader latency low.
Rows are keyed ``(router_id, window_index, seq)`` exactly like the
in-memory store, so the two are interchangeable in every experiment.
"""

from __future__ import annotations

import sqlite3
import threading
from contextlib import contextmanager
from typing import Iterator

from ..errors import StorageError
from ..netflow.records import NetFlowRecord
from . import schema
from .backend import LogStore


class SqliteLogStore(LogStore):
    """Shared SQL store for raw telemetry logs."""

    def __init__(self, path: str = ":memory:") -> None:
        self._lock = threading.RLock()
        try:
            self._conn = sqlite3.connect(path, check_same_thread=False)
        except sqlite3.Error as exc:
            raise StorageError(f"cannot open sqlite store {path!r}: "
                               f"{exc}") from exc
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute(schema.CREATE_RLOGS)
        self._conn.execute(schema.CREATE_RLOGS_WINDOW_INDEX)
        self._conn.execute(schema.CREATE_CHECKPOINTS)
        self._conn.commit()
        self._closed = False

    @contextmanager
    def _guarded(self, action: str) -> Iterator[sqlite3.Connection]:
        """The open connection, under the lock; any ``sqlite3.Error``
        rolls back and surfaces as a typed :class:`StorageError`."""
        with self._lock:
            self._check_open()
            try:
                yield self._conn
            except sqlite3.Error as exc:
                self._conn.rollback()
                raise StorageError(f"{action} failed: {exc}") from exc

    def append_records(self, router_id: str, window_index: int,
                       records: list[NetFlowRecord]) -> None:
        blobs = [record.to_bytes() for record in records]
        with self._guarded("append") as conn:
            (next_seq,) = conn.execute(
                schema.SELECT_MAX_SEQ,
                (router_id, window_index)).fetchone()
            next_seq += 1
            conn.executemany(
                schema.INSERT_ROW,
                [(router_id, window_index, next_seq + i, blob)
                 for i, blob in enumerate(blobs)])
            conn.commit()

    def overwrite_raw(self, router_id: str, window_index: int, seq: int,
                      data: bytes) -> None:
        with self._guarded("overwrite") as conn:
            cursor = conn.execute(
                schema.UPDATE_ROW, (bytes(data), router_id, window_index,
                                    seq))
            conn.commit()
        if cursor.rowcount != 1:
            raise StorageError(
                f"no row ({router_id!r}, {window_index}, {seq})")

    def replace_window(self, router_id: str, window_index: int,
                       blobs: list[bytes]) -> None:
        with self._guarded("replace") as conn:
            conn.execute(schema.DELETE_WINDOW, (router_id, window_index))
            conn.executemany(
                schema.INSERT_ROW,
                [(router_id, window_index, seq, bytes(blob))
                 for seq, blob in enumerate(blobs)])
            conn.commit()

    def purge_window(self, router_id: str, window_index: int) -> int:
        with self._guarded("purge") as conn:
            cursor = conn.execute(
                schema.DELETE_WINDOW, (router_id, window_index))
            conn.commit()
        return cursor.rowcount

    def window_blobs(self, router_id: str,
                     window_index: int) -> list[bytes]:
        with self._guarded("window read") as conn:
            rows = conn.execute(
                schema.SELECT_WINDOW_BLOBS,
                (router_id, window_index)).fetchall()
        return [bytes(row[0]) for row in rows]

    def window_indices(self, router_id: str) -> list[int]:
        with self._guarded("window list") as conn:
            rows = conn.execute(
                schema.SELECT_WINDOW_INDICES, (router_id,)).fetchall()
        return [row[0] for row in rows]

    def router_ids(self) -> list[str]:
        with self._guarded("router list") as conn:
            rows = conn.execute(schema.SELECT_ROUTER_IDS).fetchall()
        return [row[0] for row in rows]

    def put_checkpoint(self, name: str, data: bytes) -> None:
        with self._guarded("checkpoint write") as conn:
            conn.execute(schema.UPSERT_CHECKPOINT, (name, bytes(data)))
            conn.commit()

    def get_checkpoint(self, name: str) -> bytes | None:
        with self._guarded("checkpoint read") as conn:
            row = conn.execute(schema.SELECT_CHECKPOINT, (name,)).fetchone()
        return bytes(row[0]) if row is not None else None

    def checkpoint_names(self) -> list[str]:
        with self._guarded("checkpoint list") as conn:
            rows = conn.execute(schema.SELECT_CHECKPOINT_NAMES).fetchall()
        return [row[0] for row in rows]

    def delete_checkpoint(self, name: str) -> bool:
        with self._guarded("checkpoint delete") as conn:
            cursor = conn.execute(schema.DELETE_CHECKPOINT, (name,))
            conn.commit()
        return cursor.rowcount > 0

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._conn.close()
                self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("store is closed")
