"""Smoke test: every example script imports and its main() runs.

Examples are the repo's living documentation; a refactor that breaks
one should fail the suite, not wait for a reader to notice.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLES) >= 8


def test_cluster_harness_smoke(tmp_path, capsys):
    """The compose-style harness brings a declared fleet up, proves a
    round over the wire, and tears it down."""
    import json
    import sys

    sys.path.insert(0, str(EXAMPLES_DIR / "cluster"))
    try:
        from cluster_harness import ClusterHarness, load_topology, \
            run_demo
    finally:
        sys.path.pop(0)
    topology_path = tmp_path / "topology.json"
    topology_path.write_text(json.dumps({
        "workers": [{"backend": "thread", "workers": 2},
                    {"backend": "process", "workers": 1}],
        "windows": 1, "flows_per_window": 4}))
    topology = load_topology(topology_path)
    with ClusterHarness(topology["workers"]) as harness:
        assert len(harness.endpoints) == 2
        rounds = run_demo(harness.endpoints, topology)
    assert rounds == 1
    out = capsys.readouterr().out
    assert "chain verifies: 1 rounds" in out


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_main_runs(path: pathlib.Path, capsys):
    spec = importlib.util.spec_from_file_location(
        f"examples_{path.stem}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    # __name__ != "__main__" here, so importing must not run main().
    spec.loader.exec_module(module)
    assert hasattr(module, "main"), \
        f"{path.name} has no main() entry point"
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"{path.name} printed nothing"
