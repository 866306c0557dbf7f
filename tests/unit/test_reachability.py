"""Every module in ``src/repro`` names its reason for existing.

:data:`REASONS` maps each module to one entry point that runs it:

* ``cli:<command>`` — a registered ``repro`` command;
* ``example:<file>`` — a script under ``examples/``;
* ``ledger:<workload>`` — a workload of ``BENCHMARK.json``;
* ``experiment:<id>`` — a DESIGN.md §4 experiment, run by the
  ``benchmarks/bench_*.py`` its row names.

Tier-1 checks that the table covers every module, that every reason
exists, and — under :class:`tests.recorder.CallRecorder` — that each
command of the CLI smoke sweep executes each module whose reason it is.
A module that only declares (no function of its own) can do no more
than be imported, which happens before the sweep starts, so tier-1
checks only that its reason exists.

The other half runs the entry points in fresh interpreters under the
recorder (CI's bench-regression job runs it)::

    python -m tests.unit.test_reachability RECORD_DIR

It records each example, each ledger workload's ``--smoke`` run, one
untimed pass of each ``benchmarks/bench_*.py`` and the CLI tests into
``RECORD_DIR``, then checks that each module runs under its reason and
that every public function none of them runs is listed in
:data:`TEST_ONLY_KEPT`, with why it stays.
"""

from __future__ import annotations

import ast
import contextlib
import json
import re
import subprocess
import sys
import threading
from pathlib import Path

from repro.cli import REGISTRY
from repro.hashing import sha256

from ..recorder import (
    REPO_ROOT,
    SRC_ROOT,
    CallRecorder,
    all_modules,
    functions_of,
    load_records,
    module_name,
    modules_of,
    modules_with_functions,
    recording_environment,
)
from .test_cli_commands import run_smoke_sweep

EXAMPLES = REPO_ROOT / "examples"
BENCHMARKS = REPO_ROOT / "benchmarks"

REASONS: dict[str, str] = {
    "repro": "cli:info",
    "repro.__main__": "cli:info",
    "repro._version": "cli:info",
    "repro.cli": "example:cluster_proving.py",
    "repro.cli.commands": "cli:info",
    "repro.cli.commands.aggregate": "cli:aggregate",
    "repro.cli.commands.bundle": "cli:bundle",
    "repro.cli.commands.federate": "cli:federate",
    "repro.cli.commands.info": "cli:info",
    "repro.cli.commands.metrics": "cli:metrics",
    "repro.cli.commands.query": "cli:query",
    "repro.cli.commands.serve": "cli:serve",
    "repro.cli.commands.simulate": "cli:simulate",
    "repro.cli.commands.tamper": "cli:tamper",
    "repro.cli.commands.verify": "cli:verify",
    "repro.cli.commands.worker": "cli:worker",
    "repro.cli.framework": "cli:info",
    "repro.cli.options": "cli:simulate",
    "repro.cli.persistence": "cli:aggregate",
    "repro.cluster": "cli:worker",
    "repro.cluster.nodes": "example:cluster_proving.py",
    "repro.cluster.pool": "example:cluster_proving.py",
    "repro.cluster.worker": "cli:worker",
    "repro.commitments": "cli:simulate",
    "repro.commitments.bulletin": "cli:simulate",
    "repro.commitments.committer": "cli:simulate",
    "repro.commitments.window": "cli:simulate",
    "repro.core": "cli:aggregate",
    "repro.core.aggregation": "cli:aggregate",
    "repro.core.audit": "cli:bundle",
    "repro.core.chain": "cli:aggregate",
    "repro.core.clog": "cli:aggregate",
    "repro.core.guest_programs": "cli:aggregate",
    "repro.core.journals": "cli:verify",
    "repro.core.planner": "experiment:query-complexity",
    "repro.core.policy": "cli:aggregate",
    "repro.core.prover_service": "cli:aggregate",
    "repro.core.query_proof": "cli:query",
    "repro.core.sketch_proof": "example:sketch_telemetry.py",
    "repro.core.system": "experiment:e2e-setup",
    "repro.core.tamper": "cli:tamper",
    "repro.core.verifier_client": "cli:verify",
    "repro.core.witness": "cli:aggregate",
    "repro.engine": "cli:federate",
    "repro.engine.cache": "cli:federate",
    "repro.engine.jobs": "cli:federate",
    "repro.engine.pool": "cli:worker",
    "repro.engine.scheduler": "cli:federate",
    "repro.errors": "example:tamper_detection.py",
    "repro.faults": "cli:worker",
    "repro.faults.injector": "cli:worker",
    "repro.faults.plan": "cli:worker",
    "repro.faults.wire": "example:cluster_proving.py",
    "repro.faults.wrappers": "example:parallel_proving.py",
    "repro.federation": "cli:federate",
    "repro.federation.audit": "cli:federate",
    "repro.federation.join": "cli:federate",
    "repro.federation.scenario": "cli:federate",
    "repro.hashing": "cli:aggregate",
    "repro.hotpath": "ledger:round_bulk",
    "repro.merkle": "cli:aggregate",
    "repro.merkle.hasher": "cli:aggregate",
    "repro.merkle.maptree": "cli:aggregate",
    "repro.merkle.memo": "cli:aggregate",
    "repro.merkle.proof": "cli:aggregate",
    "repro.merkle.tree": "cli:aggregate",
    "repro.net": "cli:serve",
    "repro.net.aio": "ledger:query_cold",
    "repro.net.client": "example:remote_query.py",
    "repro.net.framing": "example:remote_query.py",
    "repro.net.messages": "example:remote_query.py",
    "repro.net.retry": "example:remote_query.py",
    "repro.net.server": "cli:serve",
    "repro.netflow": "cli:simulate",
    "repro.netflow.clock": "cli:simulate",
    "repro.netflow.collector": "example:netflow_pipeline.py",
    "repro.netflow.export": "example:netflow_pipeline.py",
    "repro.netflow.generator": "cli:simulate",
    "repro.netflow.packet": "example:netflow_pipeline.py",
    "repro.netflow.records": "cli:simulate",
    "repro.netflow.simulator": "cli:simulate",
    "repro.netflow.template": "example:netflow_pipeline.py",
    "repro.netflow.topology": "cli:simulate",
    "repro.obs": "cli:metrics",
    "repro.obs.metrics": "cli:metrics",
    "repro.obs.names": "cli:metrics",
    "repro.obs.runtime": "cli:metrics",
    "repro.obs.tracing": "cli:aggregate",
    "repro.qserve": "cli:serve",
    "repro.qserve.admission": "cli:serve",
    "repro.qserve.cache": "cli:query",
    "repro.qserve.service": "cli:serve",
    "repro.query": "cli:query",
    "repro.query.ast": "cli:query",
    "repro.query.evaluator": "cli:query",
    "repro.query.fields": "cli:query",
    "repro.query.lexer": "cli:query",
    "repro.query.parser": "cli:query",
    "repro.query.vectorized": "cli:query",
    "repro.serialization": "cli:aggregate",
    "repro.sketch": "example:sketch_telemetry.py",
    "repro.sketch.common": "example:sketch_telemetry.py",
    "repro.sketch.countmin": "example:sketch_telemetry.py",
    "repro.sketch.spacesaving": "example:sketch_telemetry.py",
    "repro.storage": "cli:simulate",
    "repro.storage.backend": "cli:info",
    "repro.storage.cache": "cli:aggregate",
    "repro.storage.memory": "cli:federate",
    "repro.storage.schema": "cli:simulate",
    "repro.storage.sqlite": "cli:simulate",
    "repro.zkvm": "cli:aggregate",
    "repro.zkvm.costmodel": "cli:aggregate",
    "repro.zkvm.cycles": "cli:aggregate",
    "repro.zkvm.executor": "cli:aggregate",
    "repro.zkvm.fiatshamir": "cli:aggregate",
    "repro.zkvm.guest": "cli:aggregate",
    "repro.zkvm.prover": "cli:aggregate",
    "repro.zkvm.receipt": "cli:aggregate",
    "repro.zkvm.recursion": "cli:query",
    "repro.zkvm.verifier": "cli:verify",
}

# Public functions no entry point runs, each kept for the reason it is
# filed under.  The fresh-interpreter half fails on an unlisted one.
TEST_ONLY_KEPT: dict[str, tuple[str, ...]] = {
    "interface: abstract or protocol methods; callers run the concrete class's own": (
        "repro.cli.framework:Command.configure",
        "repro.cli.framework:Command.run",
        "repro.cli.framework:CommandHook.after",
        "repro.cli.framework:CommandHook.before",
        "repro.merkle.hasher:MerkleHasher.empty",
        "repro.merkle.hasher:MerkleHasher.leaf",
        "repro.merkle.hasher:MerkleHasher.node",
        "repro.netflow.clock:Clock.now_ms",
        "repro.netflow.clock:Clock.sleep_ms",
        "repro.storage.backend:LogStore.append_records",
        "repro.storage.backend:LogStore.checkpoint_names",
        "repro.storage.backend:LogStore.close",
        "repro.storage.backend:LogStore.delete_checkpoint",
        "repro.storage.backend:LogStore.get_checkpoint",
        "repro.storage.backend:LogStore.overwrite_raw",
        "repro.storage.backend:LogStore.purge_window",
        "repro.storage.backend:LogStore.put_checkpoint",
        "repro.storage.backend:LogStore.replace_window",
        "repro.storage.backend:LogStore.router_ids",
        "repro.storage.backend:LogStore.window_blobs",
        "repro.storage.backend:LogStore.window_indices",
        "repro.zkvm.guest:MeteredMerkleHasher.empty",
    ),
    "fault injection: REPRO_FAULTS drives it; the chaos suite wires it in": (
        "repro.faults.injector:FaultInjector.injected",
        "repro.faults.injector:FaultInjector.invocations",
        "repro.faults.injector:FaultInjector.reset",
        "repro.faults.injector:FaultInjector.stats",
        "repro.faults.plan:FaultPlan.for_site",
        "repro.faults.plan:FaultPlan.parse",
        "repro.faults.plan:FaultPlan.to_text",
        "repro.faults.plan:FaultSpec.make_error",
        "repro.faults.plan:FaultSpec.matches",
        "repro.faults.plan:FaultSpec.parse",
        "repro.faults.plan:FaultSpec.permanent",
        "repro.faults.plan:FaultSpec.to_text",
        "repro.faults.wire:corrupt_payload",
        "repro.faults.wrappers:FaultyAggregator.aggregate",
        "repro.faults.wrappers:FaultyBulletin.for_window",
        "repro.faults.wrappers:FaultyBulletin.get",
        "repro.faults.wrappers:FaultyBulletin.publish",
        "repro.faults.wrappers:FaultyBulletin.windows",
        "repro.faults.wrappers:FaultyLogStore.append_records",
        "repro.faults.wrappers:FaultyLogStore.checkpoint_names",
        "repro.faults.wrappers:FaultyLogStore.close",
        "repro.faults.wrappers:FaultyLogStore.delete_checkpoint",
        "repro.faults.wrappers:FaultyLogStore.get_checkpoint",
        "repro.faults.wrappers:FaultyLogStore.overwrite_raw",
        "repro.faults.wrappers:FaultyLogStore.purge_window",
        "repro.faults.wrappers:FaultyLogStore.put_checkpoint",
        "repro.faults.wrappers:FaultyLogStore.replace_window",
        "repro.faults.wrappers:FaultyLogStore.router_ids",
        "repro.faults.wrappers:FaultyLogStore.window_blobs",
        "repro.faults.wrappers:FaultyLogStore.window_indices",
        "repro.faults.wrappers:inject_faults",
    ),
    "observability: what REPRO_OBS=1, --metrics, `metrics --connect` and STATUS expose": (
        "repro.net.aio:AsyncQueryClient.fetch_metrics",
        "repro.net.aio:AsyncQueryClient.fetch_status",
        "repro.net.client:ServiceClient.fetch_metrics",
        "repro.net.client:ServiceClient.fetch_status",
        "repro.obs.metrics:Gauge.value",
        "repro.obs.metrics:Histogram.cumulative_counts",
        "repro.obs.metrics:Histogram.series_data",
        "repro.obs.metrics:MetricsRegistry.from_snapshot",
        "repro.obs.metrics:MetricsRegistry.get",
        "repro.obs.metrics:MetricsRegistry.label_names",
        "repro.obs.metrics:MetricsRegistry.merge_snapshot",
        "repro.obs.metrics:MetricsRegistry.names",
        "repro.obs.metrics:MetricsRegistry.to_json",
        "repro.obs.metrics:NullRegistry.merge_snapshot",
        "repro.obs.metrics:NullRegistry.names",
        "repro.obs.runtime:disable",
        "repro.obs.runtime:exporter",
        "repro.obs.runtime:snapshot",
        "repro.obs.tracing:InMemorySpanExporter.by_name",
        "repro.obs.tracing:InMemorySpanExporter.clear",
        "repro.obs.tracing:InMemorySpanExporter.names",
        "repro.obs.tracing:InMemorySpanExporter.snapshot",
        "repro.obs.tracing:InMemorySpanExporter.spans",
        "repro.obs.tracing:NullTracer.current",
        "repro.obs.tracing:SpanData.to_wire",
        "repro.obs.tracing:Tracer.current",
    ),
    "flag and failure paths the recorded runs do not take (serve flags, errors)": (
        "repro.cluster.nodes:NodeState.record_rejection",
        "repro.cluster.nodes:NodeState.reinstate",
        "repro.cluster.nodes:parse_nodes",
        "repro.cluster.pool:ClusterDispatcher.degraded",
        "repro.core.prover_service:ProverService.prove_queries",
        "repro.net.messages:error_code_for",
        "repro.net.messages:error_response",
        "repro.net.messages:raise_remote",
        "repro.qserve.admission:TokenBucket.tokens",
        "repro.qserve.admission:TokenBucket.try_take",
        "repro.storage.memory:MemoryLogStore.checkpoint_names",
        "repro.storage.memory:MemoryLogStore.delete_checkpoint",
        "repro.storage.memory:MemoryLogStore.purge_window",
        "repro.storage.sqlite:SqliteLogStore.checkpoint_names",
        "repro.storage.sqlite:SqliteLogStore.purge_window",
        "repro.storage.sqlite:SqliteLogStore.replace_window",
    ),
    "composite receipts and their openings: DESIGN.md §2": (
        "repro.merkle.proof:InclusionProof.from_wire",
        "repro.merkle.proof:InclusionProof.to_wire",
        "repro.merkle.proof:MultiProof.from_wire",
        "repro.merkle.proof:MultiProof.indices",
        "repro.merkle.proof:MultiProof.is_valid",
        "repro.merkle.proof:MultiProof.to_wire",
        "repro.merkle.proof:MultiProof.verify",
        "repro.zkvm.executor:segment_chain",
        "repro.zkvm.prover:ProverOpts.composite",
        "repro.zkvm.receipt:CompositeReceipt.from_wire",
        "repro.zkvm.receipt:CompositeReceipt.seal_bytes",
        "repro.zkvm.receipt:CompositeReceipt.to_wire",
        "repro.zkvm.receipt:SegmentReceipt.from_wire",
        "repro.zkvm.receipt:SegmentReceipt.to_wire",
        "repro.zkvm.recursion:compress",
    ),
    "the paper's threaded drive: one thread per router on the wall clock (§6)": (
        "repro.netflow.clock:WallClock.now_ms",
        "repro.netflow.clock:WallClock.sleep_ms",
        "repro.netflow.simulator:NetFlowSimulator.run_threaded",
    ),
    "the sketch family: ROADMAP item 20 moves it out with its example": (
        "repro.core.sketch_proof:SketchBuildResult.journal",
        "repro.sketch.countmin:CountMinSketch.merge",
        "repro.sketch.spacesaving:SpaceSaving.digest",
        "repro.sketch.spacesaving:SpaceSaving.estimate",
        "repro.sketch.spacesaving:SpaceSaving.from_state",
        "repro.sketch.spacesaving:SpaceSaving.guaranteed",
        "repro.sketch.spacesaving:SpaceSaving.to_state",
        "repro.sketch.spacesaving:SpaceSaving.total",
    ),
    "test seams, read by tests alone: the next candidates for deletion": (
        "repro.commitments.bulletin:BulletinBoard.for_window",
        "repro.commitments.committer:RouterCommitter.pending_count",
        "repro.commitments.window:WindowConfig.end_of",
        "repro.commitments.window:WindowConfig.start_of",
        "repro.core.journals:QueryJournal.encode",
        "repro.core.journals:RoundHeader.encode",
        "repro.core.planner:PartitionedQueryCostEstimate.total_cycles",
        "repro.core.planner:QueryCostEstimate.minutes",
        "repro.core.prover_service:ProverService.aggregated_windows",
        "repro.core.query_proof:PartitionedQueryInfo.stats",
        "repro.core.query_proof:QueryResponse.value",
        "repro.merkle.maptree:MerkleMap.expected_leaf",
        "repro.merkle.maptree:MerkleMap.items",
        "repro.merkle.maptree:MerkleMap.keys",
        "repro.merkle.maptree:MerkleMap.leaf_digest",
        "repro.merkle.memo:DigestMemo.capacity",
        "repro.merkle.memo:DigestMemo.clear",
        "repro.merkle.memo:clear_memos",
        "repro.merkle.proof:InclusionProof.depth",
        "repro.merkle.tree:MerkleTree.extend",
        "repro.merkle.tree:MerkleTree.leaf",
        "repro.merkle.tree:MerkleTree.leaves",
        "repro.net.retry:RetryPolicy.delays",
        "repro.netflow.records:FlowKey.reversed",
        "repro.netflow.records:NetFlowRecord.digest",
        "repro.netflow.records:NetFlowRecord.duration_ms",
        "repro.netflow.records:NetFlowRecord.loss_rate",
        "repro.netflow.records:NetFlowRecord.throughput_bps",
        "repro.netflow.topology:NetworkTopology.graph",
        "repro.netflow.topology:NetworkTopology.routers",
        "repro.query.evaluator:QueryResult.as_dict",
        "repro.query.evaluator:QueryResult.group",
        "repro.query.evaluator:QueryResult.value",
        "repro.zkvm.cycles:sha256_cycles",
        "repro.zkvm.guest:GuestEnv.frames_remaining",
        "repro.zkvm.prover:ProveStats.combined",
    ),
}


def ledger_workloads() -> list[str]:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return [workload["name"] for workload in spec["workloads"]]


def experiment_benches() -> dict[str, list[str]]:
    """DESIGN.md §4: experiment id -> the bench files of its row."""
    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    index = design.split("## 4.", 1)[1].split("\n## ", 1)[0]
    found = {}
    for line in index.splitlines():
        match = re.match(r"\| \*\*([\w-]+)\*\* \|", line)
        if match:
            regenerated_by = line.rsplit("|", 2)[1]
            found[match.group(1)] = re.findall(r"benchmarks/(bench_\w+\.py)", regenerated_by)
    return found


def reason_exists(reason: str) -> bool:
    kind, _, name = reason.partition(":")
    if kind == "cli":
        return name in REGISTRY.names()
    if kind == "example":
        return (EXAMPLES / name).is_file()
    if kind == "ledger":
        return name in ledger_workloads()
    if kind == "experiment":
        benches = experiment_benches().get(name)
        return bool(benches) and all((BENCHMARKS / bench).is_file() for bench in benches)
    return False


def public_functions() -> set[str]:
    """``module:qualname`` of every public function and method in
    ``src/repro`` (no part private, no dunder, not nested)."""
    found = set()

    def walk(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not child.name.startswith("_"):
                    found.add(f"{module}:{prefix}{child.name}")
            elif isinstance(child, ast.ClassDef) and not child.name.startswith("_"):
                walk(module, child, f"{prefix}{child.name}.")

    for path in SRC_ROOT.rglob("*.py"):
        walk(module_name(str(path)), ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def kept_names() -> list[str]:
    return [name for names in TEST_ONLY_KEPT.values() for name in names]


class TestReasonTable:
    def test_every_module_has_one_reason(self):
        assert sorted(REASONS) == all_modules()

    def test_every_reason_exists(self):
        missing = {m: reason for m, reason in REASONS.items() if not reason_exists(reason)}
        assert not missing

    def test_every_kept_name_is_a_public_function(self):
        kept = kept_names()
        assert len(kept) == len(set(kept))
        assert set(kept) <= public_functions()


class TestRecorder:
    def test_a_thread_started_inside_is_recorded(self):
        with CallRecorder() as recorder:
            thread = threading.Thread(target=sha256, args=(b"x",))
            thread.start()
            thread.join()
        assert "repro.hashing:sha256" in recorder.functions()

    def test_a_child_process_records_itself(self, tmp_path):
        command = [sys.executable, "-c", "from repro.hashing import sha256; sha256(b'x')"]
        subprocess.run(command, env=recording_environment(tmp_path), check=True)
        assert "repro.hashing:sha256" in functions_of(load_records(tmp_path))


class TestCliSweepRunsItsModules:
    def test_each_command_executes_its_modules(self, tmp_path, monkeypatch, capsys):
        executed: dict[str, set[str]] = {}

        @contextlib.contextmanager
        def recorded(name):
            with CallRecorder() as recorder:
                yield
            executed[name] = recorder.modules()

        run_smoke_sweep(tmp_path, monkeypatch, capsys, recorded)
        plain = modules_with_functions()
        wanted = {m: r.removeprefix("cli:") for m, r in REASONS.items() if r.startswith("cli:")}
        unrun = {m: cmd for m, cmd in wanted.items() if m in plain and m not in executed[cmd]}
        assert not unrun


def record_entry_points(out: Path) -> None:
    """Run every entry point under the recorder, one directory each."""
    pytest = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]

    def run(name: str, command: list[str], cwd: Path = REPO_ROOT) -> None:
        print(f"recording {name}", flush=True)
        env = recording_environment(out / name)
        subprocess.run(command, cwd=cwd, env=env, check=True, stdout=subprocess.DEVNULL)

    for example in sorted(EXAMPLES.glob("*.py")):
        run(f"example-{example.name}", [sys.executable, str(example)])
    for workload in ledger_workloads():
        result = str(out / f"ledger-{workload}.json")
        ledger = ["benchmarks/ledger/run.py", "--smoke", "--workload", workload, "--out", result]
        run(f"ledger-{workload}", [sys.executable, *ledger])
    for bench in sorted(BENCHMARKS.glob("bench_*.py")):
        run(f"bench-{bench.name}", [*pytest, "--benchmark-disable", bench.name], cwd=BENCHMARKS)
    cli_tests = ["tests/unit/test_cli_commands.py", "tests/integration/test_cli.py"]
    run("cli-tests", [*pytest, *cli_tests])


def entry_directories(reason: str) -> list[str]:
    kind, _, name = reason.partition(":")
    if kind == "cli":
        return ["cli-tests"]
    if kind == "experiment":
        return [f"bench-{bench}" for bench in experiment_benches()[name]]
    return [f"{kind}-{name}"]


def check_records(out: Path) -> list[str]:
    """What the recorded entry points contradict in the two tables."""
    calls = {d.name: load_records(d) for d in out.iterdir() if d.is_dir()}
    problems = []
    for module, reason in sorted(REASONS.items()):
        entries = entry_directories(reason)
        ran = set().union(*(calls.get(entry, set()) for entry in entries))
        if module not in modules_of(ran):
            problems.append(f"{module}: {reason} does not execute it")
    reached = functions_of(set().union(*calls.values()))
    kept = set(kept_names())
    for name in sorted(public_functions() - reached - kept):
        problems.append(f"{name}: no entry point runs it; delete it or list it in TEST_ONLY_KEPT")
    for name in sorted(kept & reached):
        print(f"note: {name} is in TEST_ONLY_KEPT, but an entry point runs it")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m tests.unit.test_reachability RECORD_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    record_entry_points(out)
    problems = check_records(out)
    for problem in problems:
        print(problem)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
