"""Read by ``benchmarks/ledger/run.py``, which records ``enabled()`` in
every result's ``environment``; there is one implementation and no switch."""


def enabled() -> bool:
    return True
