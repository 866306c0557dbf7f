#!/usr/bin/env python3
"""The committed ledger trajectory, in one currency.

Reads only the root ``BENCH_<n>.json`` files (and a change's
same-machine ``BENCH_<n>.parent.json``) and prints, per workload and in
PR order:

* the exact metrics, raw: they are counts and do not depend on the box;
* the wall metrics raw and in calibration units — each divided by that
  run's own ``loadgen.calibration_ms`` median (1 MiB of chained SHA-256
  on the same box, in the same process), rates multiplied by it — with
  the calibration's median and spread beside them.

A row is flagged ``DRIFT`` when its calibration moved from the row
before by more than the wider spread of the two: the raw wall columns
of that pair then compare two machines, not two commits.  The verdict
of ``benchmarks/ledger/compare.py`` is not changed; this only reads.

    python3 benchmarks/trajectory.py            # every committed file
    python3 benchmarks/trajectory.py --root DIR # BENCH_*.json in DIR
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
EXACT = ("metered_mcycles_per_op", "proof_bytes_per_op")
# Wall metric -> +1 when it is a time (divided by the calibration), -1
# when it is a rate (multiplied by it).
WALL = {"setup_s": 1, "op_p10_ms": 1, "ops_per_s": -1}
CALIBRATION = "loadgen.calibration_ms"
_NAME = re.compile(r"BENCH_(\d+)(\.parent)?\.json$")


def spread(values: list[float]) -> float:
    """(max - min) / median, as ``compare.py`` measures a side."""
    middle = abs(statistics.median(values))
    return (max(values) - min(values)) / middle if middle else 0.0


def bench_files(root: Path) -> list[Path]:
    """``BENCH_*.json`` under ``root`` in PR order, a parent run just
    before its change's."""
    found = []
    for path in root.glob("BENCH_*.json"):
        match = _NAME.search(path.name)
        if match:
            found.append(((int(match[1]), match[2] is None), path))
    return [path for _key, path in sorted(found)]


def rows(runs: dict[str, dict], workload: str) -> list[dict]:
    """One row per run (file) that ran ``workload``."""
    out = []
    for run, workloads in runs.items():
        entry = workloads.get(workload)
        if entry is None:
            continue
        calibration = entry["per_layer"].get(CALIBRATION, {})
        repeats = [v for v in calibration.get("repeats", []) if v is not None]
        end_to_end = entry["end_to_end"]
        out.append(
            {
                "run": run,
                "cal": statistics.median(repeats) if repeats else None,
                "cal_spread": spread(repeats) if repeats else None,
                "values": {name: end_to_end[name]["median"] for name in (*EXACT, *WALL)},
            }
        )
    return out


def drifted(before: dict, after: dict) -> bool:
    if before["cal"] is None or after["cal"] is None:
        return False
    moved = abs(after["cal"] - before["cal"]) / before["cal"]
    return moved > max(before["cal_spread"], after["cal_spread"])


def render(workload: str, table: list[dict]) -> list[str]:
    head = f"{'run':<10}{'cal ms':>8}{'spread':>8}"
    head += "".join(f"{name:>24}" for name in EXACT)
    head += "".join(f"{name:>14}{'(cal)':>9}" for name in WALL)
    lines = [f"== {workload}", head]
    for index, row in enumerate(table):
        cal = row["cal"]
        line = f"{row['run']:<10}"
        line += f"{cal:>8.3f}{row['cal_spread']:>8.3f}" if cal else f"{'-':>8}{'-':>8}"
        line += "".join(f"{row['values'][name]:>24.6g}" for name in EXACT)
        for name, sign in WALL.items():
            raw = row["values"][name]
            line += f"{raw:>14.4g}"
            line += f"{raw / cal if sign > 0 else raw * cal:>9.4g}" if cal else f"{'-':>9}"
        if index and drifted(table[index - 1], row):
            line += "  DRIFT"
        lines.append(line)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT, help="directory holding BENCH_*.json")
    args = parser.parse_args(argv)
    paths = bench_files(args.root)
    if not paths:
        print(f"no BENCH_*.json under {args.root}", file=sys.stderr)
        return 1
    runs = {
        path.stem.removeprefix("BENCH_"): json.loads(path.read_text())["workloads"]
        for path in paths
    }
    workloads = list(dict.fromkeys(name for run in runs.values() for name in run))
    print(
        "wall metrics raw and (cal) = divided by the run's own calibration "
        "median (times) or multiplied by it (rates); DRIFT = calibration "
        "moved more than its spread since the row before"
    )
    for workload in workloads:
        print()
        print("\n".join(render(workload, rows(runs, workload))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
