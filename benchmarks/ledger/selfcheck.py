#!/usr/bin/env python3
"""Checks on the ledger itself: ``python benchmarks/ledger/selfcheck.py``.

Plain asserts, no pytest, so ``benchmarks/conftest.py`` is not
inherited.  Takes about a minute: two smoke runs of the whole ledger
plus two direct runs.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # puts the checkout's src/ on sys.path
from inputs import QueryMix, Traffic
from spec import EXACT_METRICS, LEDGER_DIR, REPO_ROOT, Spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: What a careless shell leaves behind; must not reach a measured run.
LEAKED = {"REPRO_HOTPATH": "0", "REPRO_OBS": "1"}


def ledger(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), *args], cwd=REPO_ROOT,
        env={**os.environ, **LEAKED}, capture_output=True, text=True)


def smoke(out: Path, seed: int) -> dict:
    done = ledger("--smoke", "--seed", str(seed), "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text())


def check_declared_names(spec: Spec) -> None:
    names = [*spec.workloads, *spec.end_to_end, *spec.per_layer]
    assert len(set(names)) == len(names), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), f"bad name {name!r}"


def check_seeded_inputs() -> None:
    def draw(seed: int) -> tuple:
        traffic = Traffic(seed)
        mix = QueryMix(seed)
        return ([r.to_bytes() for r in traffic.fresh(20) + traffic.delta(8)],
                [mix.next().sql for _ in range(5)])
    assert draw(7) == draw(7), "same seed, different inputs"
    assert draw(7)[0] != draw(8)[0], "another seed, same records"
    assert draw(7)[1] != draw(8)[1], "another seed, same SQL"


def check_report(report: dict, spec: Spec) -> None:
    assert report["ok"]
    assert list(report["workloads"]) == spec.workloads
    alive: set[str] = set()
    for name, entry in report["workloads"].items():
        assert list(entry["end_to_end"]) == list(spec.end_to_end), name
        assert list(entry["per_layer"]) == list(spec.per_layer), name
        for section in ("end_to_end", "per_layer"):
            for metric, cell in entry[section].items():
                assert cell["unit"] == spec.unit(metric), (name, metric)
        for metric, cell in entry["end_to_end"].items():
            assert cell["median"], f"{name}: {metric} is 0 or missing"
        alive |= {m for m, cell in entry["per_layer"].items()
                  if cell["median"] is not None}
        assert all(entry["controls"].values()), (name, entry["controls"])
        assert entry["failed"] == 0, (name, entry["errors"])
        assert entry["environment"] == {"hotpath": True, "obs": False}, \
            f"{name}: a leaked REPRO_* variable reached the child"
    dead = set(spec.per_layer) - alive
    assert not dead, f"no workload measures {sorted(dead)}"
    for field in ("git_sha", "seed", "repeats", "python", "nproc",
                  "load_1m_at_start", "calibration_ms", "wall_seconds"):
        assert field in report["provenance"], field


def check_contract_line(spec: Spec) -> None:
    """The form the driver calls: the last line, and nothing leaked."""
    for trace, declared in ((0, spec.end_to_end), (1, spec.per_layer)):
        done = ledger("--workload", "round_delta", "--seed", "7",
                      "--seconds", "1", "--trace", str(trace), "--smoke")
        assert done.returncode == 0, done.stderr[-2000:]
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1 \
            and result["failed"] == 0
        assert list(result["metrics"]) == list(declared)
        for name, cell in result["metrics"].items():
            assert set(cell) == {"value", "unit"}, name
            assert isinstance(cell["value"], (int, float)), name
            assert cell["unit"] == spec.unit(name), name
        detail = json.loads(lines[-2][len(run.DETAIL_PREFIX):])
        assert detail["environment"] == {"hotpath": True, "obs": False}


def main() -> None:
    spec = Spec()
    check_declared_names(spec)
    check_seeded_inputs()
    with tempfile.TemporaryDirectory(dir=REPO_ROOT) as scratch:
        first = smoke(Path(scratch) / "a.json", seed=7)
        second = smoke(Path(scratch) / "b.json", seed=7)
    check_report(first, spec)
    for name in spec.workloads:
        for metric in EXACT_METRICS:
            a, b = (report["workloads"][name]["end_to_end"][metric]
                    for report in (first, second))
            assert a["repeats"] == b["repeats"], \
                f"{name}: {metric} differs between two runs of one seed"
    check_contract_line(spec)
    print("selfcheck ok")


if __name__ == "__main__":
    main()
