"""Start :mod:`tests.recorder` in every interpreter that imports this.

With this directory and the repository root on ``PYTHONPATH`` and
``CALL_RECORD_DIR`` set, each Python process (ledger workload
subprocesses and pool workers included) records the ``repro``
functions it runs into that directory.
"""

try:
    from tests.recorder import start_from_environment
except ImportError:  # the repository root is not on the path
    pass
else:
    start_from_environment()
