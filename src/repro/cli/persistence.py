"""File-backed persistence shared by the CLI commands.

The CLI persists everything as plain files so each stage can run in a
separate process (or on a separate machine, as the paper's off-path
aggregation intends):

* the shared log store is a sqlite database (``--db``),
* the bulletin board is a JSON file of published commitments,
* receipts are JSON files in a directory (one per round).
"""

from __future__ import annotations

import json
import pathlib

from ..commitments import BulletinBoard, Commitment
from ..core.journals import RoundHeader
from ..core.prover_service import ProverService
from ..errors import ReproError
from ..hashing import Digest
from ..storage import SqliteLogStore
from ..zkvm import Receipt


def save_bulletin(bulletin: BulletinBoard, path: pathlib.Path) -> None:
    entries = [{
        "router_id": c.router_id,
        "window_index": c.window_index,
        "digest": c.digest.hex(),
        "record_count": c.record_count,
        "published_at_ms": c.published_at_ms,
    } for c in bulletin]
    path.write_text(json.dumps({"commitments": entries}, indent=2))


def load_bulletin(path: pathlib.Path) -> BulletinBoard:
    bulletin = BulletinBoard()
    data = json.loads(path.read_text())
    for entry in data["commitments"]:
        bulletin.publish(Commitment(
            router_id=entry["router_id"],
            window_index=entry["window_index"],
            digest=Digest.from_hex(entry["digest"]),
            record_count=entry["record_count"],
            published_at_ms=entry["published_at_ms"],
        ))
    return bulletin


def save_receipts(receipts: list[Receipt], directory: pathlib.Path
                  ) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for round_index, receipt in enumerate(receipts):
        (directory / f"round-{round_index:04d}.json").write_bytes(
            receipt.to_json_bytes())


def load_receipts(directory: pathlib.Path) -> list[Receipt]:
    receipts = []
    for path in sorted(directory.glob("round-*.json")):
        receipts.append(Receipt.from_json_bytes(path.read_bytes()))
    if not receipts:
        raise ReproError(f"no receipts found under {directory}")
    return receipts


def rebuild_service(db: pathlib.Path, bulletin_path: pathlib.Path,
                    receipts_dir: pathlib.Path | None,
                    auto_checkpoint: bool = False,
                    restore: bool = False,
                    pool_backend: str | None = None,
                    prove_workers: int | None = None,
                    prove_nodes: tuple[str, ...] | None = None,
                    query_partitions: int | None = None
                    ) -> ProverService:
    """A prover service over the persisted store/bulletin.

    With ``restore=True``, load the latest verified checkpoint from the
    store (fast recovery — no re-proving).  Otherwise, if a receipt
    directory is given, replay the recorded rounds to restore state
    (from-genesis re-aggregation, the slow path ``bench_recovery.py``
    measures).
    """
    store = SqliteLogStore(str(db))
    bulletin = load_bulletin(bulletin_path)
    service = ProverService(store, bulletin,
                            auto_checkpoint=auto_checkpoint,
                            pool_backend=pool_backend,
                            prove_workers=prove_workers,
                            prove_nodes=prove_nodes,
                            query_partitions=query_partitions)
    if restore:
        if service.restore():
            return service
        print("no checkpoint found; falling back to receipt replay"
              if receipts_dir is not None else
              "no checkpoint found; starting from genesis")
    if receipts_dir is not None and receipts_dir.exists():
        recorded = [RoundHeader.parse(receipt)
                    for receipt in load_receipts(receipts_dir)]
        for header in recorded:
            service.aggregate_windows(sorted({w for _, w, _ in header.windows}))
        if [link.header.new_root for link in service.chain] \
                != [header.new_root for header in recorded]:
            raise ReproError(
                "replayed rounds do not reproduce the recorded roots — "
                "the store changed since the receipts were produced")
    return service
