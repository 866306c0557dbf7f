#!/usr/bin/env python3
"""The ledger: one benchmark for rounds, queries and the wire.

Two ways to call it, from the root of a checkout:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload in this process.  The last line of
    standard output is the result object ``BENCHMARK.json``'s contract
    describes: end-to-end metrics with ``--trace 0``, per-layer
    metrics with ``--trace 1``.

``run.py [--seed 7] [--repeats 3] [--workload NAME] [--out FILE] [--smoke]``
    The whole ledger: every workload, each repeat of each pass in a
    fresh subprocess (``REPRO_*`` scrubbed, ``PYTHONHASHSEED`` fixed),
    workloads interleaved A B C … A B C so that drift of the machine
    lands on all of them alike; the figure of a metric is the median
    over repeats.  Exits non-zero if any op failed, any output differed
    from its reference, or any negative control was accepted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import LEDGER_DIR, REPO_ROOT, Spec

# ``repro`` is measured from the checkout this file sits in, never
# from an installed copy.
sys.path.insert(0, str(REPO_ROOT / "src"))

DETAIL_PREFIX = "LEDGER-DETAIL "
SMOKE_SECONDS = 1.0


def scrubbed_environment() -> dict[str, str]:
    """The parent's environment without ``REPRO_*`` — a leaked
    ``REPRO_HOTPATH=0`` or ``REPRO_OBS=1`` would measure another
    program — and with hash randomisation pinned."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def show(metrics: dict[str, float | None], spec: Spec,
         prefix: str = "") -> None:
    for name, value in metrics.items():
        text = "null" if value is None else f"{value:.6g}"
        print(f"{prefix}{name:<36} {text:>14} {spec.unit(name)}")


# -- one run, in this process --------------------------------------------------

def run_one(args: argparse.Namespace, spec: Spec) -> int:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    start = time.perf_counter()
    import repro.hotpath
    import repro.obs.runtime
    import controls
    import loadgen
    import_seconds = time.perf_counter() - start

    result = loadgen.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke, spec, import_seconds)
    result["controls"] = controls.run_controls(args.seed)
    result["environment"] = {"hotpath": repro.hotpath.enabled(),
                             "obs": repro.obs.runtime.is_enabled()}
    correct = result["failed"] == 0 and all(result["controls"].values())

    spans = result.pop("spans")
    if args.spans:
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        Path(args.spans).write_text(json.dumps(spans))
    reported = result["per_layer" if args.trace else "end_to_end"]
    show(reported, spec)
    for name, refused in result["controls"].items():
        print(f"control {name}: {'refused' if refused else 'ACCEPTED'}")
    for error in result["errors"]:
        print(f"failed op: {error}")
    for name, reason in result["probe_errors"].items():
        print(f"probe failed, {name} is null: {reason}")
    print(DETAIL_PREFIX + json.dumps(result))
    # The contract wants a number for every declared metric: a layer
    # this workload does not exercise did no work, and reads 0.
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": 0.0 if value is None else value,
                           "unit": spec.unit(name)}
                    for name, value in reported.items()},
    }))
    return 0 if correct else 1


# -- the whole ledger, one subprocess per run ---------------------------------

def child(args: argparse.Namespace, workload: str, trace: int,
          seconds: float, spans: Path | None) -> dict | None:
    command = [sys.executable, str(LEDGER_DIR / "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    if spans is not None:
        command += ["--spans", str(spans)]
    done = subprocess.run(command, cwd=REPO_ROOT, env=scrubbed_environment(),
                          capture_output=True, text=True)
    for line in done.stdout.splitlines():
        if line.startswith(DETAIL_PREFIX):
            detail = json.loads(line[len(DETAIL_PREFIX):])
            detail["exit_code"] = done.returncode
            return detail
    sys.stderr.write(done.stderr)
    return None


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summarise(details: list[dict], section: str, spec: Spec) -> dict:
    """metric -> {median, unit, repeats} over one workload's runs."""
    out = {}
    for name in details[0][section]:
        values = [d[section][name] for d in details]
        present = [v for v in values if v is not None]
        out[name] = {
            "median": statistics.median(present) if present else None,
            "unit": spec.unit(name),
            "repeats": values,
        }
    return out


def orchestrate(args: argparse.Namespace, spec: Spec) -> int:
    began = time.time()
    load_1m = os.getloadavg()[0]
    workloads = [args.workload] if args.workload else spec.workloads
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke
                               else spec.run_seconds)
    # A traced run measures its untraced half too, so a smoke run
    # needs only the traced pass to see every metric.
    passes = (1,) if args.smoke else (0, 1)
    runs: dict[str, dict[int, list[dict]]] = {
        w: {p: [] for p in passes} for w in workloads}
    ok = True
    for repeat in range(args.repeats):
        for trace in passes:
            for workload in workloads:
                spans = None
                if args.out and trace:
                    spans = Path(args.out + ".spans") \
                        / f"{workload}-r{repeat}.json"
                detail = child(args, workload, trace, seconds, spans)
                if detail is None:
                    print(f"{workload} trace={trace} repeat={repeat}: "
                          "no result")
                    ok = False
                    continue
                runs[workload][trace].append(detail)
                ok = ok and detail["exit_code"] == 0
                print(f"{workload} trace={trace} repeat={repeat}: "
                      f"{detail['attempted']} ops, "
                      f"{detail['failed']} failed", flush=True)

    report: dict = {"workloads": {}}
    for workload, by_pass in runs.items():
        untraced, traced = by_pass[passes[0]], by_pass[1]
        if not untraced or not traced:
            continue
        entry = report["workloads"][workload] = {
            "end_to_end": summarise(untraced, "end_to_end", spec),
            "per_layer": summarise(traced, "per_layer", spec),
            "probe_errors": {name: reason for d in traced
                             for name, reason in d["probe_errors"].items()},
            "ops": [d["ops"] for d in untraced],
            "failed": sum(d["failed"] for d in untraced + traced),
            "attempted": sum(d["attempted"] for d in untraced + traced),
            "errors": sorted({e for d in untraced + traced
                              for e in d["errors"]}),
            "controls": {name: all(d["controls"][name]
                                   for d in untraced + traced)
                         for name in traced[0]["controls"]},
            "environment": traced[0]["environment"],
        }
        print(f"\n== {workload}")
        show({n: m["median"] for n, m in entry["end_to_end"].items()}, spec)
        show({n: m["median"] for n, m in entry["per_layer"].items()}, spec,
             prefix="  ")
        for name, refused in entry["controls"].items():
            print(f"control {name}: {'refused' if refused else 'ACCEPTED'}")
    ok = ok and len(report["workloads"]) == len(workloads)
    report["ok"] = ok
    report["provenance"] = {
        "git_sha": git_sha(),
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": seconds,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load_1m_at_start": load_1m,
        "calibration_ms": {
            w: [d["per_layer"]["loadgen.calibration_ms"]
                for p in passes for d in runs[w][p]] for w in workloads},
        "wall_seconds": time.time() - began,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nledger {'ok' if ok else 'FAILED'} in "
          f"{report['provenance']['wall_seconds']:.0f} s")
    return 0 if ok else 1


def main() -> int:
    spec = Spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spec.workloads)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help=f"measuring time of one run (default "
                             f"{spec.run_seconds}, {SMOKE_SECONDS} "
                             f"with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run once, here: 0 end-to-end, 1 per-layer")
    parser.add_argument("--repeats", type=int,
                        help="default 3, 1 with --smoke")
    parser.add_argument("--smoke", action="store_true",
                        help="shapes / 10, one second: does it all run?")
    parser.add_argument("--out", help="write the result file here")
    parser.add_argument("--spans", help="(with --trace 1) dump spans here")
    args = parser.parse_args()
    if args.trace is None:
        args.repeats = args.repeats or (1 if args.smoke else 3)
        return orchestrate(args, spec)
    if args.workload is None:
        parser.error("--trace needs --workload")
    args.seconds = args.seconds or (SMOKE_SECONDS if args.smoke
                                    else spec.run_seconds)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
