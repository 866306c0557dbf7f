"""``repro serve`` — serve the prover over TCP (repro.net)."""

from __future__ import annotations

import argparse
import pathlib

from ..framework import CommandResult, register
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
                                 "--pool-backend=remote; "
                                 "REPRO_PROVE_NODES does the same)")
        parser.add_argument("--query-partitions", type=int,
                            default=None, metavar="K",
                            help="answer queries as up to K partial "
                                 "proofs merged through the engine "
                                 "when the planner models that faster "
                                 "(implies the engine)")
        parser.add_argument("--stream", action="store_true",
                            help="streaming composition: prove "
                                 "per-batch deltas as windows commit "
                                 "and fold them recursively, so each "
                                 "round boundary pays O(delta) instead "
                                 "of O(window) (implies the engine; "
                                 "REPRO_STREAM=1 does the same on an "
                                 "engine-backed service)")
        parser.add_argument("--max-inflight", type=int, default=None,
                            help="enable the multi-tenant query "
                                 "service with a bounded admission "
                                 "queue of this many in-flight queries "
                                 "(typed admission-rejected errors "
                                 "past the bound)")
        parser.add_argument("--tenant-rate", type=float, default=None,
                            help="per-tenant query admission rate "
                                 "(tokens/sec; implies the "
                                 "multi-tenant query service)")
        parser.add_argument("--tenant-burst", type=float, default=None,
                            help="per-tenant token-bucket burst "
                                 "capacity (default: one second of "
                                 "--tenant-rate)")
        parser.add_argument("--batch-window", type=float,
                            default=0.005,
                            help="seconds the query service waits to "
                                 "batch compatible queries into one "
                                 "shared scan (batching needs an "
                                 "engine, e.g. --query-partitions)")
        parser.add_argument("--stream-crossover", action="store_true",
                            help="with --stream, let the planner's "
                                 "cost model fall back to the "
                                 "monolithic guest for rounds it "
                                 "prices cheaper (tiny or single-batch "
                                 "rounds)")

    def run(self, args: argparse.Namespace) -> CommandResult:
        from ...net import ProverServer
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
            query_partitions=args.query_partitions,
            stream=args.stream or None,
            stream_crossover=args.stream_crossover)
        qserve = None
        if args.max_inflight is not None \
                or args.tenant_rate is not None:
            from ...qserve import QueryService
            qserve = QueryService(
                service,
                max_inflight=(args.max_inflight
                              if args.max_inflight is not None
                              else 64),
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
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            service.close()
            service.store.close()
        return CommandResult.ok(rounds=len(service.chain))

    def _serve(self, server, service, args: argparse.Namespace) -> None:
        """Run the accept loop until interrupted (tests stub this)."""
        import asyncio

        async def run() -> None:
            await server.start()
            print(f"prover server listening on {server.host}:"
                  f"{server.port} ({len(service.chain)} rounds "
                  f"restored, {len(service.bulletin)} commitments"
                  + (", metrics on" if args.metrics else "") + ")",
                  flush=True)
            await server.serve_forever()

        asyncio.run(run())
