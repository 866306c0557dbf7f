"""Delegating wrappers that wire an injector into live components.

Each wrapper is a transparent proxy around the real object, calling
``injector.fire(<site>)`` before the operations a deployment can lose
to infrastructure faults.  Writes and integrity-critical paths are
deliberately *not* fault sites: the system's core guarantee is that a
round either fully proves or changes nothing, so chaos testing targets
the read/prove paths where retries and quarantine must do the work.

:func:`inject_faults` rewires a :class:`~repro.core.prover_service.
ProverService` in place — the one-liner every chaos test uses.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..commitments import BulletinBoard, Commitment
from ..storage.backend import LogStore
from .injector import FaultInjector
from . import plan as sites


class FaultyLogStore(LogStore):
    """A :class:`LogStore` whose reads pass through the injector."""

    def __init__(self, inner: LogStore, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector

    # reads (fault sites)
    def window_blobs(self, router_id: str,
                     window_index: int) -> list[bytes]:
        self.injector.fire(sites.STORE_WINDOW_BLOBS)
        return self.inner.window_blobs(router_id, window_index)

    def window_indices(self, router_id: str) -> list[int]:
        self.injector.fire(sites.STORE_WINDOW_INDICES)
        return self.inner.window_indices(router_id)

    def router_ids(self) -> list[str]:
        self.injector.fire(sites.STORE_ROUTER_IDS)
        return self.inner.router_ids()

    # writes (transparent)
    def append_records(self, router_id: str, window_index: int,
                       records: list) -> None:
        self.inner.append_records(router_id, window_index, records)

    def overwrite_raw(self, router_id: str, window_index: int, seq: int,
                      data: bytes) -> None:
        self.inner.overwrite_raw(router_id, window_index, seq, data)

    def replace_window(self, router_id: str, window_index: int,
                       blobs: list[bytes]) -> None:
        self.inner.replace_window(router_id, window_index, blobs)

    def purge_window(self, router_id: str, window_index: int) -> int:
        return self.inner.purge_window(router_id, window_index)

    # checkpoints (transparent — recovery must work during an outage
    # of the *read* path; checkpoint durability is the backend's job)
    def put_checkpoint(self, name: str, data: bytes) -> None:
        self.inner.put_checkpoint(name, data)

    def get_checkpoint(self, name: str) -> bytes | None:
        return self.inner.get_checkpoint(name)

    def checkpoint_names(self) -> list[str]:
        return self.inner.checkpoint_names()

    def delete_checkpoint(self, name: str) -> bool:
        return self.inner.delete_checkpoint(name)

    def close(self) -> None:
        self.inner.close()


class FaultyBulletin:
    """A :class:`BulletinBoard` proxy injecting on ``get``.

    Models a flaky transparency-log endpoint: published state is intact,
    but individual fetches can fail.
    """

    def __init__(self, inner: BulletinBoard,
                 injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector

    def publish(self, commitment: Commitment) -> None:
        self.inner.publish(commitment)

    def get(self, router_id: str, window_index: int) -> Commitment:
        self.injector.fire(sites.BULLETIN_GET)
        return self.inner.get(router_id, window_index)

    def for_window(self, window_index: int) -> dict[str, Commitment]:
        return self.inner.for_window(window_index)

    def windows(self) -> list[int]:
        return self.inner.windows()

    def __len__(self) -> int:
        return len(self.inner)

    def __iter__(self) -> Iterator[Commitment]:
        return iter(self.inner)


class FaultyAggregator:
    """An aggregator proxy injecting on ``prover.prove``.

    Fires *before* delegating, so an injected fault aborts the round
    with no proof and no state change — the same contract as a real
    prover crash.
    """

    def __init__(self, inner: Any, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector

    def aggregate(self, state: Any, inputs: Any,
                  prev_receipt: Any) -> Any:
        self.injector.fire(sites.PROVER_PROVE)
        return self.inner.aggregate(state, inputs, prev_receipt)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


def inject_faults(service: Any, injector: FaultInjector) -> Any:
    """Rewire a ProverService's store, bulletin and aggregator through
    ``injector`` (in place); returns the service for chaining.

    This is the explicit wiring step chaos tests perform — nothing in
    the library calls it on its own.  When the service runs a proving
    engine, its pool is pointed at the same injector, so ``engine.worker``
    faults fire at job dispatch — the host-side moment a worker crash
    surfaces — deterministically on every backend.
    """
    service.store = FaultyLogStore(service.store, injector)
    service.bulletin = FaultyBulletin(service.bulletin, injector)
    service._aggregator = FaultyAggregator(service._aggregator, injector)
    engine = getattr(service, "engine", None)
    if engine is not None:
        engine.pool.injector = injector
    return service
