#!/usr/bin/env python3
"""Compare two ledger result files: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload): both medians, the ratio
B / A (A is the base), the widest per-repeat spread of the two sides,
and a verdict against the bound ``BENCHMARK.json`` fixes:

``ok``          B is no worse than A by more than the bound
``worse``       it is — the command exits non-zero
``unresolved``  the runs of one side spread wider than the bound, and
                the sides overlap: the data cannot tell

``--strict`` is for two runs of the *same* commit: ``unresolved`` rows
and exact counts that differ also fail.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from spec import EXACT_METRICS, Spec


def spread(values: list[float]) -> float:
    """(max - min) / median of one side's repeats."""
    middle = abs(statistics.median(values))
    return (max(values) - min(values)) / middle if middle else 0.0


def verdict(a: list[float], b: list[float], lower_is_better: bool,
            bound: float) -> str:
    if not lower_is_better:
        a, b = [-v for v in a], [-v for v in b]
    base, new = statistics.median(a), statistics.median(b)
    worsening = (new - base) / abs(base) if base else 0.0
    if max(spread(a), spread(b)) > bound:
        if max(b) <= min(a):
            return "ok"  # every B run beats every A run
        if min(b) <= max(a) + bound * abs(base):
            return "unresolved"
    return "worse" if worsening > bound else "ok"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--strict", action="store_true",
                        help="same commit twice: unresolved rows and "
                             "differing exact counts fail too")
    args = parser.parse_args()
    spec = Spec()
    with open(args.a) as handle:
        side_a = json.load(handle)["workloads"]
    with open(args.b) as handle:
        side_b = json.load(handle)["workloads"]

    bad = 0
    print(f"{'workload':<13}{'metric':<24}{'A':>13}{'B':>13}"
          f"{'B/A':>8}{'spread':>8}{'bound':>7}  verdict")
    for workload in spec.workloads:
        if workload not in side_a or workload not in side_b:
            continue
        for name, metric in spec.end_to_end.items():
            a = side_a[workload]["end_to_end"][name]
            b = side_b[workload]["end_to_end"][name]
            word = verdict(a["repeats"], b["repeats"],
                           metric["better"] == "lower", metric["bound"])
            if name in EXACT_METRICS:
                same = a["repeats"] == b["repeats"]
                word += " identical" if same else " differs"
                bad += args.strict and not same
            bad += word.startswith("worse") \
                or (args.strict and word.startswith("unresolved"))
            widest = max(spread(a["repeats"]), spread(b["repeats"]))
            print(f"{workload:<13}{name:<24}{a['median']:>13.6g}"
                  f"{b['median']:>13.6g}{b['median'] / a['median']:>8.3f}"
                  f"{widest:>8.3f}{metric['bound']:>7.3f}  {word}")
        for side, label in ((side_a, "A"), (side_b, "B")):
            if side[workload]["failed"]:
                print(f"{workload:<13}{label} had "
                      f"{side[workload]['failed']} failed ops")
                bad += 1
    print("no regression" if not bad else f"{bad} row(s) fail")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
