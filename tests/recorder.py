"""A stdlib call recorder: which ``repro`` functions a run executes.

``sys.setprofile`` sees every Python frame a thread enters, and
``threading.setprofile`` carries the hook into threads started while
it is on.  :class:`CallRecorder` keeps the code object of each frame;
:func:`modules_of` and :func:`functions_of` name the ``repro`` ones.
The profile hook, unlike ``sys.settrace``, leaves a running coverage
tracer alone.

Child processes (the ledger runs each workload in a fresh subprocess,
the engine's process pools fork or spawn workers) are recorded through
``tests/recorder_site/sitecustomize.py``: with that directory and the
repository root on ``PYTHONPATH`` and ``CALL_RECORD_DIR`` naming a
directory, every interpreter appends each ``repro`` function it enters
for the first time to ``CALL_RECORD_DIR/calls-<pid>.txt``.  Lines are
written as they are seen, so a worker that leaves through ``os._exit``
loses nothing.  :func:`load_records` reads the directory back.
"""

from __future__ import annotations

import ast
import functools
import os
import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Iterable

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
SITE_DIR = REPO_ROOT / "tests" / "recorder_site"
RECORD_DIR_VARIABLE = "CALL_RECORD_DIR"

_MODULE_CODE = "<module>"


@functools.cache
def module_name(filename: str) -> str | None:
    """``repro.x.y`` for a file under ``src/repro``, else ``None``."""
    try:
        relative = Path(filename).resolve().relative_to(SRC_ROOT)
    except ValueError:
        return None
    parts = relative.with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(("repro",) + parts)


def all_modules() -> list[str]:
    """Every module under ``src/repro``, sorted."""
    return sorted(module_name(str(path)) for path in SRC_ROOT.rglob("*.py"))


@functools.cache
def modules_with_functions() -> frozenset[str]:
    """The modules that define at least one function or method; a
    module of declarations only can do no more than be imported."""
    found = set()
    for path in SRC_ROOT.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)
        if any(isinstance(node, functions) for node in ast.walk(tree)):
            found.add(module_name(str(path)))
    return frozenset(found)


class CallRecorder:
    """Collect the code objects every thread enters while on.

    ``with CallRecorder() as recorder: ...`` records the calling
    thread and every thread started inside the block; a thread that
    outlives the block drops its hook at its next call.
    """

    def __init__(self) -> None:
        self.codes: set[CodeType] = set()
        self._on = False

    def _profile(self, frame, event, arg):
        if event == "call":
            if self._on:
                self.codes.add(frame.f_code)
            else:
                sys.setprofile(None)

    def __enter__(self) -> "CallRecorder":
        self._on = True
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)
        self._on = False

    def modules(self) -> set[str]:
        return modules_of((code.co_filename, code.co_name) for code in self.codes)

    def functions(self) -> set[str]:
        return functions_of((code.co_filename, code.co_qualname) for code in self.codes)


def modules_of(calls: Iterable[tuple[str, str]]) -> set[str]:
    """The ``repro`` modules that ran a function, from ``(filename,
    name)`` pairs; module-level code counts for a module that defines
    no function."""
    plain = modules_with_functions()
    found = set()
    for filename, name in calls:
        module = module_name(filename)
        if module is not None and (name != _MODULE_CODE or module not in plain):
            found.add(module)
    return found


def functions_of(calls: Iterable[tuple[str, str]]) -> set[str]:
    """``module:qualname`` for every ``repro`` function in ``calls``."""
    found = set()
    for filename, qualname in calls:
        module = module_name(filename)
        if module is not None and qualname != _MODULE_CODE:
            found.add(f"{module}:{qualname}")
    return found


class _FileSink:
    """The child-process recorder: the first sight of a code object
    under ``src/repro`` appends ``filename<TAB>qualname`` to this
    process's file."""

    def __init__(self, directory: str) -> None:
        self._directory = directory
        self._prefix = str(SRC_ROOT) + os.sep
        self._seen: set[CodeType] = set()
        self._pid = -1
        self._fd = -1

    def _write(self, code: CodeType) -> None:
        if os.getpid() != self._pid:  # a forked child gets its own file
            self._pid = os.getpid()
            path = os.path.join(self._directory, f"calls-{self._pid}.txt")
            self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            self._seen = set()
        self._seen.add(code)
        os.write(self._fd, f"{code.co_filename}\t{code.co_qualname}\n".encode("utf-8"))

    def profile(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in self._seen and code.co_filename.startswith(self._prefix):
                self._write(code)


def start_from_environment() -> None:
    """Record this process into ``$CALL_RECORD_DIR`` if it is set."""
    directory = os.environ.get(RECORD_DIR_VARIABLE)
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    sink = _FileSink(directory)
    threading.setprofile(sink.profile)
    sys.setprofile(sink.profile)


def recording_environment(directory: Path) -> dict[str, str]:
    """This process's environment, set so that every Python child
    records itself into ``directory``."""
    path = os.pathsep.join(str(p) for p in (SITE_DIR, REPO_ROOT, REPO_ROOT / "src"))
    return dict(os.environ, PYTHONPATH=path, **{RECORD_DIR_VARIABLE: str(directory)})


def load_records(directory: str | os.PathLike) -> set[tuple[str, str]]:
    """Every ``(filename, qualname)`` the processes recorded."""
    calls = set()
    for path in Path(directory).glob("calls-*.txt"):
        for line in path.read_text(encoding="utf-8").splitlines():
            filename, _, qualname = line.partition("\t")
            calls.add((filename, qualname))
    return calls
