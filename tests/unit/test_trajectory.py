"""Smoke test of ``benchmarks/trajectory.py`` over the committed
``BENCH_*.json`` files, plus its ordering and drift flag on two
hand-made runs."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_trajectory():
    spec = importlib.util.spec_from_file_location(
        "trajectory", REPO_ROOT / "benchmarks" / "trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_run(path, calibration, op_p10_ms):
    metric = {"median": op_p10_ms, "repeats": [op_p10_ms]}
    path.write_text(json.dumps({"workloads": {"query_cold": {
        "end_to_end": {name: metric for name in (
            "metered_mcycles_per_op", "proof_bytes_per_op", "setup_s",
            "op_p10_ms", "ops_per_s")},
        "per_layer": {"loadgen.calibration_ms": {
            "median": calibration[1], "repeats": calibration}},
    }}}))


def test_committed_trajectory_reports_every_run(capsys):
    trajectory = load_trajectory()
    committed = trajectory.bench_files(REPO_ROOT)
    assert committed, "no committed BENCH_*.json"
    assert trajectory.main([]) == 0
    out = capsys.readouterr().out
    for workload in ("round_bulk", "query_cold", "pipeline"):
        assert f"== {workload}" in out
    for path in committed:
        assert f"\n{path.stem.removeprefix('BENCH_'):<10}" in out


def test_parent_sorts_first_and_drift_is_flagged(tmp_path, capsys):
    trajectory = load_trajectory()
    fake_run(tmp_path / "BENCH_9.json", [2.0, 2.1, 2.2], 50.0)
    fake_run(tmp_path / "BENCH_9.parent.json", [1.0, 1.05, 1.1], 100.0)
    assert [p.name for p in trajectory.bench_files(tmp_path)] \
        == ["BENCH_9.parent.json", "BENCH_9.json"]
    assert trajectory.main(["--root", str(tmp_path)]) == 0
    parent, change = capsys.readouterr().out.splitlines()[-2:]
    assert parent.startswith("9.parent") and "DRIFT" not in parent
    assert change.startswith("9 ") and change.endswith("DRIFT")
    # 100 ms at 1.05 ms calibration, 50 ms at 2.1: ~4x in one currency.
    assert "95.24" in parent and "23.81" in change


def test_no_files_is_an_error(tmp_path):
    assert load_trajectory().main(["--root", str(tmp_path)]) == 1
