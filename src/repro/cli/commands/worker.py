"""``repro worker`` — proving worker daemon (repro.cluster)."""

from __future__ import annotations

import argparse
import pathlib

from ...cluster.worker import WORKER_BACKENDS, WorkerServer
from ...storage import SqliteLogStore
from ..framework import CommandResult, register, serve_until_interrupted


@register
class WorkerCommand:
    name = "worker"
    help = "run a proving worker daemon (repro.cluster)"

    def configure(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--host", default="127.0.0.1")
        parser.add_argument("--port", type=int, default=0,
                            help="TCP port (0 picks an ephemeral one; "
                                 "the bound port is printed on "
                                 "startup)")
        parser.add_argument("--backend", default="thread",
                            choices=WORKER_BACKENDS,
                            help="the worker's local proving pool "
                                 "backend")
        parser.add_argument("--workers", type=int, default=None,
                            metavar="N",
                            help="local pool width (default: backend "
                                 "default)")
        parser.add_argument("--db", type=pathlib.Path, default=None,
                            help="optional store whose checkpoint KV "
                                 "backs a persistent receipt-cache "
                                 "tier")
        parser.add_argument("--idle-timeout", type=float, default=30.0)
        parser.add_argument("--metrics", action="store_true",
                            help="enable the repro.obs registry; "
                                 "`repro metrics --connect` then "
                                 "reads the worker's counters")

    def run(self, args: argparse.Namespace) -> CommandResult:
        """Run a proving worker daemon for a remote-backend pool.

        Workers are untrusted by construction — the dispatcher
        re-verifies every receipt before adoption — so they need no
        bulletin, no chain state, and no shared filesystem.  An
        optional ``--db`` points at a store whose checkpoint KV becomes
        a persistent receipt-cache tier shared between restarts (and,
        if several workers point at the same file, between workers).
        """
        from ...faults import FaultInjector
        if args.metrics:
            from ...obs import runtime as obs_runtime
            obs_runtime.enable()
        store = None
        if args.db is not None:
            store = SqliteLogStore(str(args.db))
        server = WorkerServer(
            args.host, args.port,
            backend=args.backend,
            max_workers=args.workers,
            store=store,
            injector=FaultInjector.from_env(),
            idle_timeout=args.idle_timeout)
        try:
            self._serve(server, store, args)
        finally:
            if store is not None:
                store.close()
        return CommandResult.ok()

    def _serve(self, server, store, args: argparse.Namespace) -> None:
        """Run the accept loop until interrupted (tests stub this)."""
        serve_until_interrupted(
            server, f"backend={args.backend}"
                    + (", persistent cache" if store is not None else "")
                    + (", metrics on" if args.metrics else ""))
