"""Abstract log-store interface.

Windows are the unit of commitment (§3: routers commit a hash over each
5-second window of logs).  The store therefore keys raw logs by
``(router_id, window_index, seq)`` and exposes both decoded records and
the raw canonical bytes — the bytes are what gets hashed, and what the
tamper experiments mutate.
"""

from __future__ import annotations

import abc

from ..errors import StorageError
from ..netflow.records import NetFlowRecord


class LogStore(abc.ABC):
    """Shared store for raw telemetry logs (RLogs)."""

    # -- writes -----------------------------------------------------------------

    @abc.abstractmethod
    def append_records(self, router_id: str, window_index: int,
                       records: list[NetFlowRecord]) -> None:
        """Append a router's records to a window (order-preserving)."""

    @abc.abstractmethod
    def overwrite_raw(self, router_id: str, window_index: int, seq: int,
                      data: bytes) -> None:
        """Replace one stored row's bytes (tamper-injection hook)."""

    @abc.abstractmethod
    def replace_window(self, router_id: str, window_index: int,
                       blobs: list[bytes]) -> None:
        """Replace a window's rows wholesale (tamper-injection hook:
        truncation, reordering, record injection)."""

    @abc.abstractmethod
    def purge_window(self, router_id: str, window_index: int) -> int:
        """Drop a window's raw logs (logs are ephemeral, §2.2);
        returns the number of rows removed."""

    # -- reads -------------------------------------------------------------------

    @abc.abstractmethod
    def window_blobs(self, router_id: str,
                     window_index: int) -> list[bytes]:
        """Raw canonical bytes of one router window, in append order."""

    @abc.abstractmethod
    def window_indices(self, router_id: str) -> list[int]:
        """All window indices this router has rows for, ascending."""

    @abc.abstractmethod
    def router_ids(self) -> list[str]:
        """All routers with stored rows, sorted."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release backend resources."""

    # -- checkpoints -------------------------------------------------------------
    #
    # A small named-blob KV the prover uses for crash-safe snapshots
    # (see :meth:`repro.core.prover_service.ProverService.checkpoint`).
    # Concrete no-support defaults rather than abstract methods, so
    # minimal LogStore subclasses (test doubles, read-only adapters)
    # keep working without opting in.

    def put_checkpoint(self, name: str, data: bytes) -> None:
        """Store (or overwrite) a named checkpoint blob."""
        raise StorageError(
            f"{type(self).__name__} does not support checkpoints")

    def get_checkpoint(self, name: str) -> bytes | None:
        """Fetch a named checkpoint blob, or None if absent."""
        raise StorageError(
            f"{type(self).__name__} does not support checkpoints")

    def checkpoint_names(self) -> list[str]:
        """All stored checkpoint names, sorted."""
        raise StorageError(
            f"{type(self).__name__} does not support checkpoints")

    def delete_checkpoint(self, name: str) -> bool:
        """Drop a named checkpoint; returns True if one existed."""
        raise StorageError(
            f"{type(self).__name__} does not support checkpoints")

    # -- conveniences ------------------------------------------------------------------

    def window_records(self, router_id: str,
                       window_index: int) -> list[NetFlowRecord]:
        """Decoded records of one router window."""
        from ..serialization import decode
        records = []
        for blob in self.window_blobs(router_id, window_index):
            wire = decode(blob)
            if not isinstance(wire, dict):
                raise StorageError(
                    "stored record does not decode to a dict")
            records.append(NetFlowRecord.from_wire(wire))
        return records

    def window_count(self, router_id: str, window_index: int) -> int:
        return len(self.window_blobs(router_id, window_index))

    def __enter__(self) -> "LogStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
