"""Client-side verification commands: chain, bundle, query receipt."""

from __future__ import annotations

import argparse
import pathlib

from ...core.query_proof import response_from_receipt
from ...core.verifier_client import VerifierClient
from ...errors import ReproError
from ...zkvm import Receipt
from ..framework import CommandResult, register
from ..options import add_bulletin
from ..persistence import load_bulletin, load_receipts
from .query import print_results


@register
class VerifyCommand:
    name = "verify"
    help = "client-side chain verification"

    def configure(self, parser: argparse.ArgumentParser) -> None:
        add_bulletin(parser)
        parser.add_argument("--receipts", type=pathlib.Path,
                            required=True)

    def run(self, args: argparse.Namespace) -> CommandResult:
        bulletin = load_bulletin(args.bulletin)
        receipts = load_receipts(args.receipts)
        verifier = VerifierClient(bulletin)
        try:
            verified = verifier.verify_chain(receipts)
        except ReproError as exc:
            print(f"VERIFICATION FAILED: {exc}")
            return CommandResult.failure(str(exc))
        for link in verified:
            print(f"round {link.round}: OK — {link.entries} records "
                  f"over windows {sorted(set(link.consumed))}, root "
                  f"{link.new_root.short()}…")
        print(f"chain of {len(verified)} rounds verified")
        return CommandResult.ok(rounds=len(verified))


@register
class VerifyBundleCommand:
    name = "verify-bundle"
    help = "standalone audit-bundle verification"

    def configure(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--bundle", type=pathlib.Path,
                            required=True)

    def run(self, args: argparse.Namespace) -> CommandResult:
        from ...core.audit import AuditBundle, verify_bundle
        try:
            bundle = AuditBundle.from_json_bytes(
                args.bundle.read_bytes())
            report = verify_bundle(bundle)
        except ReproError as exc:
            print(f"BUNDLE VERIFICATION FAILED: {exc}")
            return CommandResult.failure(str(exc))
        print(report.summary())
        return CommandResult.ok()


@register
class VerifyQueryCommand:
    name = "verify-query"
    help = "client-side query-receipt verification"

    def configure(self, parser: argparse.ArgumentParser) -> None:
        add_bulletin(parser)
        parser.add_argument("--receipts", type=pathlib.Path,
                            required=True)
        parser.add_argument("--query-receipt", type=pathlib.Path,
                            required=True)

    def run(self, args: argparse.Namespace) -> CommandResult:
        bulletin = load_bulletin(args.bulletin)
        receipts = load_receipts(args.receipts)
        query_receipt = Receipt.from_json_bytes(
            args.query_receipt.read_bytes())
        verifier = VerifierClient(bulletin)
        try:
            verified = verifier.verify_response(
                response_from_receipt(query_receipt), receipts)
        except ReproError as exc:
            print(f"QUERY VERIFICATION FAILED: {exc}")
            return CommandResult.failure(str(exc))
        print(f"query: {verified.query}")
        print_results(verified)
        print(f"  VERIFIED against round {verified.round} "
              f"(root {verified.root.short()}…)")
        return CommandResult.ok(round=verified.round)
