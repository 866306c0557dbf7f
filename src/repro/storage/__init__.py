"""Shared telemetry log store (the paper's PostgreSQL backend).

The evaluation writes all router logs "to a shared PostgreSQL backend"
(§6).  Offline, we substitute two backends behind one interface:

* :class:`~repro.storage.memory.MemoryLogStore` — dict-backed, fastest,
  used by most tests;
* :class:`~repro.storage.sqlite.SqliteLogStore` — stdlib ``sqlite3``,
  exercising the same code path as the paper (a real SQL store shared by
  concurrent router writers, with transactions and indices).

Records are stored as their canonical bytes — the exact bytes routers
hash into commitments — so the tamper experiments can flip stored bytes
and watch the integrity checks fire (Figure 3).
"""

from .backend import LogStore
from .memory import MemoryLogStore
from .sqlite import SqliteLogStore

__all__ = ["LogStore", "MemoryLogStore", "SqliteLogStore"]
