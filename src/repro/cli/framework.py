"""Command-pattern scaffolding for the CLI.

``cli.py`` used to be one ~700-line module of ``cmd_*`` functions wired
into a single ``build_parser``; every new scenario (serve, worker,
qserve, streaming) grew it further, and ROADMAP item 4 (federation)
would have again.  This package replaces that with a small framework:

* :class:`CommandResult` — frozen outcome record (exit code, message,
  read-only data mapping) so scenarios can be driven programmatically,
  not just through ``sys.exit`` codes;
* :class:`Command` — the protocol a scenario implements: ``name``,
  ``help``, ``configure(parser)``, ``run(args)``;
* :class:`CommandRegistry` — ordered name → command map; registration
  order is presentation order in ``repro --help``;
* :class:`CommandInvoker` — builds the argparse tree from the registry
  and executes commands through pre/post :class:`CommandHook`\\ s.

New scenarios register with the :func:`register` decorator from their
own module under ``repro/cli/commands/`` and appear in the parser, the
help text, and the smoke-test sweep automatically.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Protocol, runtime_checkable

from ..errors import ConfigurationError, ReproError

_EMPTY_DATA: Mapping[str, Any] = MappingProxyType({})


@dataclass(frozen=True)
class CommandResult:
    """Outcome of one command execution.

    ``data`` is a read-only mapping of scenario-specific outputs (record
    counts, paths written, …) for callers driving the CLI in-process;
    human-readable output goes to stdout inside ``run`` as before.
    """

    success: bool
    exit_code: int = 0
    message: str = ""
    data: Mapping[str, Any] = field(
        default_factory=lambda: _EMPTY_DATA)

    @classmethod
    def ok(cls, message: str = "", **data: Any) -> "CommandResult":
        return cls(success=True, exit_code=0, message=message,
                   data=MappingProxyType(dict(data)))

    @classmethod
    def failure(cls, message: str = "", exit_code: int = 1,
                **data: Any) -> "CommandResult":
        return cls(success=False, exit_code=exit_code, message=message,
                   data=MappingProxyType(dict(data)))


@runtime_checkable
class Command(Protocol):
    """A CLI scenario: argparse surface plus execution."""

    name: str
    help: str

    def configure(self, parser: argparse.ArgumentParser) -> None:
        """Add this command's arguments to its subparser."""
        ...

    def run(self, args: argparse.Namespace) -> CommandResult:
        """Execute with parsed arguments."""
        ...


@runtime_checkable
class CommandHook(Protocol):
    """Pre/post observer around every invocation."""

    def before(self, command: Command,
               args: argparse.Namespace) -> None:
        ...

    def after(self, command: Command, args: argparse.Namespace,
              result: CommandResult) -> None:
        ...


class CommandRegistry:
    """Ordered name → :class:`Command` map."""

    def __init__(self) -> None:
        self._commands: dict[str, Command] = {}

    def register(self, command: Command) -> Command:
        name = command.name
        existing = self._commands.get(name)
        if existing is not None and existing is not command:
            raise ConfigurationError(
                f"CLI command {name!r} is already registered by "
                f"{type(existing).__name__}")
        self._commands[name] = command
        return command

    def get(self, name: str) -> Command:
        try:
            return self._commands[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown CLI command {name!r}; registered: "
                f"{sorted(self._commands)}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(self._commands)

    def commands(self) -> tuple[Command, ...]:
        return tuple(self._commands.values())


# The process-global registry every command module registers into.
REGISTRY = CommandRegistry()


def register(command: Command | type) -> Command | type:
    """Class or instance decorator adding a command to :data:`REGISTRY`.

    Returns its argument unchanged so ``@register`` on a class leaves
    the module-level name bound to the class (tests subclass and
    monkeypatch it); the registry holds one instance either way.
    """
    instance = command() if isinstance(command, type) else command
    REGISTRY.register(instance)
    return command


def serve_until_interrupted(server: Any, details: str) -> None:
    """Bind a frame server, print its banner, serve until Ctrl-C or
    SIGTERM.

    The one foreground runner of the long-running commands (``serve``,
    ``worker``); the banner names the bound port, so ``--port 0``
    callers can read it.  Either signal stops the server through
    :meth:`~repro.net.server.FrameServer.stop`, so what it started (a
    worker's process pool, a query service) is shut down before exit.
    """
    import asyncio
    import signal

    async def run() -> None:
        await server.start()
        print(f"{server.label} listening on {server.endpoint} "
              f"({details})", flush=True)
        serving = asyncio.ensure_future(server.serve_forever())
        terminated = False

        def terminate() -> None:
            nonlocal terminated
            terminated = True
            serving.cancel()

        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, terminate)
        try:
            await serving
        except asyncio.CancelledError:
            if not terminated:
                raise
        finally:
            loop.remove_signal_handler(signal.SIGTERM)
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    print("shutting down")


class CommandInvoker:
    """Builds the parser from a registry and runs commands through hooks."""

    def __init__(self, registry: CommandRegistry = REGISTRY,
                 hooks: Iterable[CommandHook] = ()) -> None:
        self._registry = registry
        self._hooks: list[CommandHook] = list(hooks)

    def build_parser(self) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(
            prog="repro",
            description="verifiable network telemetry (HotNets '25 "
                        "reproduction)")
        sub = parser.add_subparsers(dest="command", required=True)
        for command in self._registry.commands():
            subparser = sub.add_parser(command.name, help=command.help)
            command.configure(subparser)
            subparser.set_defaults(_command=command)
        return parser

    def invoke(self, command: Command,
               args: argparse.Namespace) -> CommandResult:
        """Run one command through the pre/post hooks.

        ``before`` hooks run in registration order, ``after`` hooks in
        reverse.  Exceptions propagate to the caller (``main`` maps
        :class:`~repro.errors.ReproError` to exit code 2); ``after``
        hooks only observe completed runs.
        """
        for hook in self._hooks:
            hook.before(command, args)
        result = command.run(args)
        for hook in reversed(self._hooks):
            hook.after(command, args, result)
        return result

    def main(self, argv: list[str] | None = None) -> int:
        args = self.build_parser().parse_args(argv)
        command: Command = args._command
        try:
            result = self.invoke(command, args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return result.exit_code


_DEFAULT_INVOKER: CommandInvoker | None = None


def default_invoker() -> CommandInvoker:
    """The shared invoker over :data:`REGISTRY` (built lazily)."""
    global _DEFAULT_INVOKER
    if _DEFAULT_INVOKER is None:
        _DEFAULT_INVOKER = CommandInvoker(REGISTRY)
    return _DEFAULT_INVOKER
