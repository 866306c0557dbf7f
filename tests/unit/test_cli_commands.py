"""Command-registry tests: every registered scenario smoke-runs
through the invoker, hooks observe each run, and the help output
advertises the full registry."""

import argparse
import contextlib
import dataclasses

import pytest

from repro.cli import (
    REGISTRY,
    CommandInvoker,
    CommandRegistry,
    CommandResult,
)
from repro.cli.commands.serve import ServeCommand
from repro.cli.commands.worker import WorkerCommand
from repro.errors import ConfigurationError
from repro.qserve import QueryService
from repro.storage import SqliteLogStore

EXPECTED_COMMANDS = (
    "simulate", "aggregate", "query", "serve", "worker", "metrics",
    "verify", "verify-bundle", "verify-query", "bundle", "tamper",
    "info", "federate",
)


class RecordingHook:
    def __init__(self):
        self.events = []

    def before(self, command, args):
        self.events.append(("before", command.name))

    def after(self, command, args, result):
        assert isinstance(result, CommandResult)
        self.events.append(("after", command.name))


class TestRegistry:
    def test_all_builtin_commands_registered(self):
        assert REGISTRY.names() == EXPECTED_COMMANDS

    def test_duplicate_registration_rejected(self):
        registry = CommandRegistry()
        first = ServeCommand()
        registry.register(first)
        # Re-registering the same instance is an idempotent no-op …
        registry.register(first)
        # … but a second command claiming the name is a config error.
        with pytest.raises(ConfigurationError,
                           match="already registered"):
            registry.register(ServeCommand())

    def test_unknown_command_lookup(self):
        with pytest.raises(ConfigurationError, match="unknown CLI"):
            CommandRegistry().get("replicate")

    def test_help_lists_every_registered_scenario(self, capsys):
        parser = CommandInvoker(REGISTRY).build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        for name in REGISTRY.names():
            assert name in help_text


class TestCommandResult:
    def test_frozen(self):
        result = CommandResult.ok("done", records=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.exit_code = 5

    def test_data_mapping_read_only(self):
        result = CommandResult.ok(records=3)
        assert result.data["records"] == 3
        with pytest.raises(TypeError):
            result.data["records"] = 4

    def test_failure_carries_exit_code(self):
        result = CommandResult.failure("boom", exit_code=3, reason="x")
        assert not result.success
        assert result.exit_code == 3
        assert result.data["reason"] == "x"


class TestHookOrdering:
    def test_before_in_order_after_reversed(self):
        registry = CommandRegistry()

        class Noop:
            name = "noop"
            help = "noop"

            def configure(self, parser):
                pass

            def run(self, args):
                return CommandResult.ok()

        command = Noop()
        registry.register(command)
        trace = []

        class Tagged:
            def __init__(self, tag):
                self.tag = tag

            def before(self, cmd, args):
                trace.append(("before", self.tag))

            def after(self, cmd, args, result):
                trace.append(("after", self.tag))

        invoker = CommandInvoker(registry,
                                 hooks=[Tagged("a"), Tagged("b")])
        invoker.invoke(command, argparse.Namespace())
        assert trace == [("before", "a"), ("before", "b"),
                         ("after", "b"), ("after", "a")]


def run_smoke_sweep(tmp_path, monkeypatch, capsys,
                    step=contextlib.nullcontext):
    """Drive each registered command end-to-end through the invoker.

    One ordered sweep over a shared workspace: simulate seeds the
    store, aggregate proves it, and the later commands consume those
    artifacts.  serve/worker have their accept loops stubbed so they
    exercise construction + teardown without binding a socket forever.
    Each command runs inside ``step(name)``.  Returns the recording
    hook, the stubbed daemons that ran and the query services serve
    built.
    """
    db = tmp_path / "logs.db"
    bulletin = tmp_path / "bulletin.json"
    receipts = tmp_path / "receipts"
    bundle_path = tmp_path / "bundle.json"
    query_receipt = tmp_path / "query.receipt.json"
    metrics_out = tmp_path / "metrics.json"

    served = []
    query_services = []

    def serve(self, server, service, args):
        served.append("serve")
        query_services.append(server.qserve)

    monkeypatch.setattr(ServeCommand, "_serve", serve)
    monkeypatch.setattr(
        WorkerCommand, "_serve",
        lambda self, server, store, args: served.append("worker"))

    count_sql = "SELECT COUNT(*) FROM clogs"
    base = ["--db", str(db), "--bulletin", str(bulletin)]
    sweep = [
        ("simulate", base + ["--records", "60", "--routers", "3"]),
        ("aggregate", base + ["--receipts", str(receipts)]),
        ("query", base + ["--receipts", str(receipts),
                          "--out", str(query_receipt), count_sql]),
        ("bundle", base + ["--receipts", str(receipts),
                           "--out", str(bundle_path),
                           "--query", count_sql]),
        ("verify", ["--bulletin", str(bulletin),
                    "--receipts", str(receipts)]),
        ("verify-bundle", ["--bundle", str(bundle_path)]),
        ("verify-query", ["--bulletin", str(bulletin),
                          "--receipts", str(receipts),
                          "--query-receipt", str(query_receipt)]),
        ("info", ["--db", str(db)]),
        ("metrics", ["--out", str(metrics_out)]),
        ("serve", base + ["--receipts", str(receipts)]),
        ("worker", []),
        ("federate", ["--providers", "2", "--flows", "8",
                      "--seed", "3"]),
        # Last: corrupts the store, so nothing may run after it.
        ("tamper", ["--db", str(db), "--window", "0",
                    "--router", None]),  # router filled below
    ]
    assert {name for name, _ in sweep} == set(REGISTRY.names()), \
        "smoke sweep must cover every registered command"

    hook = RecordingHook()
    invoker = CommandInvoker(REGISTRY, hooks=[hook])
    for name, argv in sweep:
        if name == "tamper":
            store = SqliteLogStore(str(db))
            router = sorted(store.router_ids())[0]
            store.close()
            argv = [a if a is not None else router for a in argv]
        with step(name):
            exit_code = invoker.main([name] + argv)
        captured = capsys.readouterr()
        assert exit_code == 0, \
            f"{name} exited {exit_code}: {captured.err}"
    return hook, served, query_services


class TestEveryCommandSmokeRuns:
    def test_sweep_covers_registry_and_hooks_fire(self, tmp_path,
                                                  monkeypatch, capsys):
        hook, served, query_services = run_smoke_sweep(
            tmp_path, monkeypatch, capsys)
        for name in REGISTRY.names():
            assert ("before", name) in hook.events
            assert ("after", name) in hook.events

        assert served == ["serve", "worker"]
        # Without --max-inflight, serve still answers through a query
        # service, bounded at 64 queries in flight.
        (qserve,) = query_services
        assert isinstance(qserve, QueryService)
        assert qserve.stats()["max_inflight"] == 64
        assert (tmp_path / "bundle.json").exists()
        assert (tmp_path / "query.receipt.json").exists()
        assert (tmp_path / "metrics.json").exists()

    def test_aggregate_empty_store_fails_cleanly(self, tmp_path,
                                                 capsys):
        db = tmp_path / "empty.db"
        bulletin = tmp_path / "bulletin.json"
        bulletin.write_text('{"commitments": []}')
        SqliteLogStore(str(db)).close()
        invoker = CommandInvoker(REGISTRY)
        exit_code = invoker.main([
            "aggregate", "--db", str(db), "--bulletin", str(bulletin),
            "--receipts", str(tmp_path / "receipts")])
        assert exit_code == 1
        assert "nothing to aggregate" in capsys.readouterr().out

    def test_aggregate_reports_quarantined_windows(self, tmp_path,
                                                   capsys):
        db = tmp_path / "logs.db"
        receipts = tmp_path / "receipts"
        base = ["--db", str(db), "--bulletin", str(tmp_path / "b.json")]
        invoker = CommandInvoker(REGISTRY)
        assert invoker.main(["simulate", *base, "--records", "40",
                             "--routers", "2"]) == 0
        store = SqliteLogStore(str(db))
        router = sorted(store.router_ids())[0]
        window = min(store.window_indices(router))
        store.close()
        assert invoker.main(["tamper", "--db", str(db), "--router",
                             router, "--window", str(window)]) == 0
        capsys.readouterr()
        exit_code = invoker.main(["aggregate", *base,
                                  "--receipts", str(receipts)])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "has quarantined window(s)" in err
        assert f"window {window}: GuestAbort" in err
        assert "commitment mismatch" in err
        assert not receipts.exists()


class TestLocalQueryClosesService:
    def test_service_closed_on_success_and_failure(self, tmp_path,
                                                   monkeypatch):
        """The local ``query`` path releases the service (and with it
        the engine's worker pool) whether or not proving raised."""
        from repro.core.prover_service import ProverService
        closed = []
        close = ProverService.close

        def recording_close(self):
            closed.append(self.engine is not None)
            close(self)

        monkeypatch.setattr(ProverService, "close", recording_close)
        base = ["--db", str(tmp_path / "logs.db"),
                "--bulletin", str(tmp_path / "bulletin.json"),
                "--receipts", str(tmp_path / "receipts")]
        invoker = CommandInvoker(REGISTRY)
        assert invoker.main(["simulate", *base[:4], "--records", "40",
                             "--routers", "2"]) == 0
        assert invoker.main(["aggregate", *base]) == 0
        query = ["query", *base, "--query-partitions", "2"]
        assert invoker.main([*query, "SELECT COUNT(*) FROM clogs"]) == 0
        assert closed == [True]
        assert invoker.main([*query, "SELECT nonsense"]) != 0
        assert closed == [True, True]


class TestReceiptReplayRefusesMalformedJournal:
    def test_empty_round_journal_is_a_typed_error(self, tmp_path, capsys):
        """``--receipts`` replay (``serve``, local ``query``) reads each
        recorded round header through its declaration: a receipt file
        whose journal is empty is a ``ReproError`` (exit 2), not a bare
        ``StopIteration``."""
        from repro.cli.persistence import rebuild_service
        from repro.errors import MalformedJournal
        from repro.zkvm import Receipt
        from repro.zkvm.receipt import Journal
        db, bulletin = tmp_path / "logs.db", tmp_path / "bulletin.json"
        receipts = tmp_path / "receipts"
        base = ["--db", str(db), "--bulletin", str(bulletin),
                "--receipts", str(receipts)]
        invoker = CommandInvoker(REGISTRY)
        assert invoker.main(["simulate", *base[:4], "--records", "20",
                             "--routers", "2"]) == 0
        assert invoker.main(["aggregate", *base]) == 0
        path = sorted(receipts.glob("round-*.json"))[0]
        receipt = Receipt.from_json_bytes(path.read_bytes())
        path.write_bytes(dataclasses.replace(
            receipt, journal=Journal(b"")).to_json_bytes())
        with pytest.raises(MalformedJournal, match="round journal header"):
            rebuild_service(db, bulletin, receipts)
        capsys.readouterr()
        assert invoker.main(["query", *base,
                             "SELECT COUNT(*) FROM clogs"]) == 2
        assert "round journal header" in capsys.readouterr().err
