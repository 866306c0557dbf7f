"""``repro serve`` — serve the prover over TCP (repro.net)."""

from __future__ import annotations

import argparse
import pathlib

from ..framework import CommandResult, register, serve_until_interrupted
from ..options import add_bulletin, add_db
from ..persistence import rebuild_service


@register
class ServeCommand:
    name = "serve"
    help = "serve the prover over TCP (repro.net)"

    def configure(self, parser: argparse.ArgumentParser) -> None:
        add_db(parser)
        add_bulletin(parser)
        parser.add_argument("--receipts", type=pathlib.Path,
                            default=None,
                            help="replay recorded rounds from this "
                                 "directory")
        parser.add_argument("--host", default="127.0.0.1")
        parser.add_argument("--port", type=int, default=7423,
                            help="TCP port (0 picks an ephemeral one)")
        parser.add_argument("--request-timeout", type=float,
                            default=60.0)
        parser.add_argument("--idle-timeout", type=float, default=30.0)
        parser.add_argument("--metrics", action="store_true",
                            help="enable the repro.obs registry/tracer; "
                                 "the `metrics` wire endpoint then "
                                 "serves live counters")
        parser.add_argument("--auto-checkpoint", action="store_true",
                            help="write a verified checkpoint into the "
                                 "store after every proven round")
        parser.add_argument("--restore", action="store_true",
                            help="resume from the store's latest "
                                 "checkpoint (verified before "
                                 "acceptance) instead of replaying "
                                 "receipts")
        parser.add_argument("--prove-workers", type=int, default=None,
                            metavar="N",
                            help="prove through the repro.engine pool "
                                 "with N workers (process backend "
                                 "unless --pool-backend says "
                                 "otherwise); receipts are reused via "
                                 "the content-addressed cache")
        parser.add_argument("--pool-backend", default=None,
                            choices=["serial", "thread", "process",
                                     "remote"],
                            help="proving pool backend (implies the "
                                 "engine even without --prove-workers)")
        parser.add_argument("--prove-nodes", default=None,
                            metavar="HOST:PORT,HOST:PORT",
                            help="dispatch proving to these `repro "
                                 "worker` daemons (implies "
                                 "--pool-backend=remote)")
        parser.add_argument("--query-partitions", type=int,
                            default=None, metavar="K",
                            help="answer queries as up to K partial "
                                 "proofs merged through the engine "
                                 "when the planner models that faster "
                                 "(implies the engine)")
        parser.add_argument("--max-inflight", type=int, default=64,
                            help="queries admitted at once; past the "
                                 "bound a query gets a typed "
                                 "admission-rejected error")
        parser.add_argument("--tenant-rate", type=float, default=None,
                            help="per-tenant query admission rate "
                                 "(tokens/sec; default: unlimited)")
        parser.add_argument("--tenant-burst", type=float, default=None,
                            help="per-tenant token-bucket burst "
                                 "capacity (default: one second of "
                                 "--tenant-rate)")
        parser.add_argument("--batch-window", type=float,
                            default=0.005,
                            help="seconds a query waits to batch "
                                 "with compatible ones into one shared "
                                 "scan; applies only where batching "
                                 "exists, i.e. with an engine (e.g. "
                                 "--query-partitions); without one a "
                                 "query is proven at once")

    def run(self, args: argparse.Namespace) -> CommandResult:
        from ...net import ProverServer
        from ...qserve import QueryService
        if args.metrics:
            from ...obs import runtime as obs_runtime
            obs_runtime.enable()
        prove_nodes = None
        if args.prove_nodes:
            from ...cluster import parse_nodes
            prove_nodes = parse_nodes(args.prove_nodes)
        service = rebuild_service(
            args.db, args.bulletin, args.receipts,
            auto_checkpoint=args.auto_checkpoint,
            restore=args.restore,
            pool_backend=args.pool_backend,
            prove_workers=args.prove_workers,
            prove_nodes=prove_nodes,
            query_partitions=args.query_partitions)
        qserve = QueryService(
            service, max_inflight=args.max_inflight,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
            batch_window=args.batch_window)
        server = ProverServer(
            service, host=args.host, port=args.port,
            qserve=qserve,
            request_timeout=args.request_timeout,
            idle_timeout=args.idle_timeout)
        try:
            self._serve(server, service, args)
        finally:
            service.close()
            service.store.close()
        return CommandResult.ok(rounds=len(service.chain))

    def _serve(self, server, service, args: argparse.Namespace) -> None:
        """Run the accept loop until interrupted (tests stub this)."""
        serve_until_interrupted(
            server, f"{len(service.chain)} rounds restored, "
                    f"{len(service.bulletin)} commitments"
                    + (", metrics on" if args.metrics else ""))
