"""Command-line interface: drive the full pipeline from a shell.

The CLI is a command-pattern registry (see :mod:`repro.cli.framework`):
each scenario under :mod:`repro.cli.commands` registers a
:class:`~repro.cli.framework.Command` that owns its argparse surface
and execution, and the shared invoker assembles ``repro --help`` and
runs commands through pre/post hooks.  File persistence (sqlite store,
bulletin JSON, receipt directories) lives in
:mod:`repro.cli.persistence`.

Typical session::

    python -m repro simulate  --db logs.db --bulletin bulletin.json --records 400
    python -m repro aggregate --db logs.db --bulletin bulletin.json --receipts out/
    python -m repro query     --db logs.db --bulletin bulletin.json --receipts out/ \
        'SELECT COUNT(*) FROM clogs'
    python -m repro verify    --bulletin bulletin.json --receipts out/
    python -m repro tamper    --db logs.db --router r1 --window 1 --kind modify-field
"""

from __future__ import annotations

import argparse

from .framework import (
    REGISTRY,
    Command,
    CommandHook,
    CommandInvoker,
    CommandRegistry,
    CommandResult,
    default_invoker,
    register,
)
from .persistence import (
    load_bulletin,
    load_receipts,
    rebuild_service,
    save_bulletin,
    save_receipts,
)
from . import commands  # noqa: F401  (registers the built-in scenarios)

__all__ = [
    "REGISTRY",
    "Command",
    "CommandHook",
    "CommandInvoker",
    "CommandRegistry",
    "CommandResult",
    "default_invoker",
    "load_bulletin",
    "load_receipts",
    "main",
    "rebuild_service",
    "register",
    "save_bulletin",
    "save_receipts",
]


def main(argv: list[str] | None = None) -> int:
    """Console entry point (``repro`` / ``python -m repro``)."""
    return default_invoker().main(argv)
