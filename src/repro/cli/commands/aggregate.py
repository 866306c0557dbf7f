"""``repro aggregate`` — prove aggregation rounds."""

from __future__ import annotations

import argparse
import pathlib

from ...zkvm.costmodel import CostModel
from ..framework import CommandResult, register
from ..options import add_bulletin, add_db
from ..persistence import rebuild_service, save_receipts


@register
class AggregateCommand:
    name = "aggregate"
    help = "prove aggregation rounds"

    def configure(self, parser: argparse.ArgumentParser) -> None:
        add_db(parser)
        add_bulletin(parser)
        parser.add_argument("--receipts", type=pathlib.Path,
                            required=True,
                            help="directory for round receipts")

    def run(self, args: argparse.Namespace) -> CommandResult:
        service = rebuild_service(args.db, args.bulletin, None)
        results = service.aggregate_all_committed()
        # Receipts over a chain that skips a window are not written.
        service.require_unquarantined(str(args.db))
        if not results:
            print("nothing to aggregate (no committed windows)")
            return CommandResult.failure(
                "nothing to aggregate (no committed windows)")
        save_receipts(service.chain.receipts(), args.receipts)
        model = CostModel()
        for result in results:
            modeled = model.prove_seconds(result.info.stats) / 60
            print(f"round {result.round}: {result.record_count} "
                  f"records -> {len(result.new_state)} flows, root "
                  f"{result.new_root.short()}…, modeled prove "
                  f"{modeled:.1f} min")
        print(f"{len(results)} receipts -> {args.receipts}")
        service.store.close()
        return CommandResult.ok(rounds=len(results))
