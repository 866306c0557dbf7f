"""Baseline comparators for the paper's motivation (§1, §2).

The paper argues against the prior TEE-based approach (TrustSketch-style
enclaves on every vantage point) on *deployment complexity* and
*scalability* grounds, and against naive signed logs on
*confidentiality* grounds.  These models make that comparison concrete:

* :mod:`~baselines.tee` — an SGX-style enclave telemetry model:
  per-vantage hardware requirement, attestation, EPC paging behaviour;
* :mod:`~baselines.signed` — plain per-window signatures:
  integrity without confidentiality (the verifier must see raw logs);
* :mod:`~baselines.comparison` — the deployment/scalability
  comparison harness behind ``benchmarks/bench_baseline_tee.py``.

They are comparison models, not part of the ``repro`` library, so they
live beside their one bench and import as ``baselines`` with
``benchmarks/`` on ``sys.path`` (``benchmarks/conftest.py`` puts it there).
"""

from .comparison import ApproachProfile, compare_approaches
from .signed import SignedLogBaseline, SignedWindow
from .tee import EnclaveSpec, TEETelemetryModel

__all__ = [
    "ApproachProfile",
    "EnclaveSpec",
    "SignedLogBaseline",
    "SignedWindow",
    "TEETelemetryModel",
    "compare_approaches",
]
