"""Sketching telemetry algorithms (§1: "can use any logging or sketching
algorithm").

The paper positions its commitment/proof pipeline as agnostic to the
logging algorithm — raw NetFlow records, or compact sketches as in the
cited line of work (UnivMon, NitroSketch, CocoSketch, OctoSketch,
TrustSketch).  This package provides deterministic, canonically
serializable sketches whose state can be committed and proven over
exactly like raw logs:

* :class:`~repro.sketch.countmin.CountMinSketch` — frequency estimation
  (always overestimates);
* :class:`~repro.sketch.spacesaving.SpaceSaving` — top-k heavy hitters.

These are the two :mod:`repro.core.sketch_proof` proves over.

All hash choices are seeded, tag-separated SHA-256 derivations, so two
parties sketching the same stream always produce byte-identical
states — a requirement for hash-commitment checking.
"""

from .countmin import CountMinSketch
from .spacesaving import SpaceSaving

__all__ = ["CountMinSketch", "SpaceSaving"]
