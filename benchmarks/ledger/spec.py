"""What the ledger declares: the metric and workload names in
``BENCHMARK.json`` at the repository root.

Every other module reads names, units and bounds from here, so the
JSON file is the one place a metric is declared.
"""

from __future__ import annotations

import json
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: Counts, not timings: the same seed must reproduce them bit for bit.
EXACT_METRICS = ("metered_mcycles_per_op", "proof_bytes_per_op")


class Spec:
    """Parsed ``BENCHMARK.json``."""

    def __init__(self, path: Path = BENCHMARK_JSON) -> None:
        raw = json.loads(path.read_text())
        self.run_seconds: int = raw["run_seconds"]
        self.workloads: list[str] = [w["name"] for w in raw["workloads"]]
        self.end_to_end: dict[str, dict] = {
            m["name"]: m for m in raw["end_to_end"]}
        self.per_layer: dict[str, dict] = {
            m["name"]: m for m in raw["per_layer"]}

    def unit(self, name: str) -> str:
        metric = self.end_to_end.get(name) or self.per_layer[name]
        return metric["unit"]
