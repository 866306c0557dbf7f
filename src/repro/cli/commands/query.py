"""``repro query`` — prove and verify a SQL query, local or remote."""

from __future__ import annotations

import argparse
import pathlib

from ...core.journals import QueryJournal
from ...core.verifier_client import VerifierClient
from ...errors import ReproError
from ..framework import CommandResult, register
from ..options import add_bulletin, add_db
from ..persistence import load_bulletin, rebuild_service


def print_results(verified: QueryJournal) -> None:
    for label, value in zip(verified.labels, verified.values):
        print(f"  {label} = {value}")
    for key, values in verified.groups:
        print(f"  [{key}] "
              + ", ".join(f"{label}={value}" for label, value
                          in zip(verified.labels, values)))


def print_verified_query(args: argparse.Namespace, response,
                         verified: QueryJournal) -> None:
    print(f"query: {args.sql}")
    print_results(verified)
    print(f"  matched {verified.matched}/{verified.scanned} flows; "
          f"round {verified.round}, root {verified.root.short()}…")
    if args.out is not None:
        args.out.write_bytes(response.receipt.to_json_bytes())
        print(f"  query receipt -> {args.out}")


@register
class QueryCommand:
    name = "query"
    help = "prove + verify a SQL query"

    def configure(self, parser: argparse.ArgumentParser) -> None:
        add_db(parser, required=False)
        add_bulletin(parser, required=False)
        parser.add_argument("--receipts", type=pathlib.Path,
                            default=None)
        parser.add_argument("--connect", metavar="HOST:PORT",
                            default=None,
                            help="query a running `repro serve` "
                                 "instance instead of local files; "
                                 "the answer is verified against "
                                 "--bulletin when given, else "
                                 "against the prover's own board")
        parser.add_argument("--out", type=pathlib.Path, default=None,
                            help="write the query receipt JSON here")
        parser.add_argument("--tenant", default=None,
                            help="tenant id sent with --connect "
                                 "queries; the server rate-limits "
                                 "and fair-queues per tenant")
        parser.add_argument("--query-partitions", type=int,
                            default=None, metavar="K",
                            help="split the query proof into up to K "
                                 "slot-range partitions proven in "
                                 "parallel when the planner models "
                                 "that faster (implies the engine)")
        parser.add_argument("sql",
                            help="e.g. 'SELECT COUNT(*) FROM clogs'")

    def run(self, args: argparse.Namespace) -> CommandResult:
        if args.connect is not None:
            return self._run_remote(args)
        if args.db is None or args.bulletin is None \
                or args.receipts is None:
            raise ReproError(
                "query needs either --connect HOST:PORT or all of "
                "--db/--bulletin/--receipts")
        service = rebuild_service(args.db, args.bulletin, args.receipts,
                                  query_partitions=args.query_partitions)
        try:
            response = service.answer_query(args.sql)
            verified = VerifierClient(service.bulletin).verify_response(
                response, service.chain.receipts())
        finally:
            service.close()
            service.store.close()
        print_verified_query(args, response, verified)
        return CommandResult.ok(matched=verified.matched,
                                scanned=verified.scanned)

    def _run_remote(self, args: argparse.Namespace) -> CommandResult:
        """Issue the query over the wire; verify it against the
        ``--bulletin`` file, or the prover's own board without one."""
        from ...net import QueryClient
        bulletin = (load_bulletin(args.bulletin)
                    if args.bulletin is not None else None)
        with QueryClient(args.connect, bulletin=bulletin) as client:
            response, verified = client.verified_query(
                args.sql, tenant=args.tenant)
        print_verified_query(args, response, verified)
        print(f"  anchor: {args.bulletin or 'prover'}")
        return CommandResult.ok(matched=verified.matched,
                                scanned=verified.scanned)
