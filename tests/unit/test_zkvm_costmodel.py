"""Unit tests for the prover cost model and its calibration."""

import re
from pathlib import Path

import pytest

import repro
from repro.zkvm import (
    ExecutorEnvBuilder,
    Prover,
    ProverOpts,
    ReceiptKind,
    Verifier,
    guest_program,
)
from repro.zkvm.costmodel import (
    CostModel,
    ProverBackend,
    VERIFY_SECONDS,
)
from repro.zkvm.verifier import MODELED_VERIFY_SECONDS


@guest_program("cost-worker")
def cost_guest(env):
    n = env.read()
    for _ in range(n):
        env.sha256(b"x" * 100)
    env.commit(n)


def stats_for(n: int):
    return Prover().prove(
        cost_guest, ExecutorEnvBuilder().write(n).build()).stats


def verified_for(n: int, kind: ReceiptKind = ReceiptKind.SUCCINCT):
    """Prove ``n`` hashes as a ``kind`` receipt and verify it."""
    receipt = Prover(ProverOpts(kind=kind)).prove(
        cost_guest, ExecutorEnvBuilder().write(n).build()).receipt
    return receipt, Verifier().verify(receipt, cost_guest.image_id)


class TestBackends:
    def test_cpu_latency_grows_with_work(self):
        model = CostModel()
        small = model.prove_seconds(stats_for(10))
        large = model.prove_seconds(stats_for(100_000))
        assert large > small

    def test_gpu_is_order_of_magnitude_faster(self):
        model = CostModel()
        stats = stats_for(50_000)
        cpu = model.prove_seconds(stats, ProverBackend.CPU_ZKVM)
        gpu = model.prove_seconds(stats, ProverBackend.GPU_ZKVM)
        assert cpu / gpu == pytest.approx(10.0)

    def test_specialized_charges_per_hash(self):
        model = CostModel(base_overhead=0.0)
        stats = stats_for(60_000)
        specialized = model.prove_seconds(
            stats, ProverBackend.SPECIALIZED_HASH)
        expected = stats.sha_compressions / 600_000.0
        assert specialized == pytest.approx(expected)

    def test_specialized_beats_zkvm_dramatically(self):
        """§7: specialized proof systems are orders of magnitude faster
        than the general-purpose zkVM for hash-dominated work."""
        model = CostModel()
        stats = stats_for(30_000)
        cpu = model.prove_seconds(stats, ProverBackend.CPU_ZKVM)
        specialized = model.prove_seconds(
            stats, ProverBackend.SPECIALIZED_HASH)
        assert cpu / specialized > 50

    def test_estimate_carries_metadata(self):
        model = CostModel()
        estimate = model.estimate(stats_for(100))
        assert estimate.cycles > 0
        assert estimate.sha_compressions >= 100
        assert estimate.minutes == pytest.approx(estimate.seconds / 60)


class TestParallelModel:
    """``CostModel.fanout_seconds``: partitions concurrently, then the
    merge after the slowest (the §7 critical path)."""

    def test_parallel_bounded_by_slowest(self):
        model = CostModel(segment_overhead=0.0, base_overhead=0.0)
        stats = [stats_for(n) for n in (100, 1_000, 10_000)]
        merge = stats_for(10)
        parallel = model.fanout_seconds(stats, merge)
        slowest = max(model.prove_seconds(s) for s in stats)
        assert parallel == pytest.approx(
            slowest + model.prove_seconds(merge))

    def test_parallel_faster_than_sequential(self):
        model = CostModel()
        stats = [stats_for(10_000) for _ in range(4)]
        merge = stats_for(10)
        parallel = model.fanout_seconds(stats, merge)
        sequential = model.fanout_seconds(stats, merge, concurrent=False)
        assert sequential == pytest.approx(
            sum(model.prove_seconds(s) for s in stats)
            + model.prove_seconds(merge))
        assert parallel < sequential / 2

    def test_empty_partitions_rejected(self):
        with pytest.raises(ValueError):
            CostModel().fanout_seconds([], stats_for(10))


class TestVerifyModel:
    """Verify latency is the verifier's constant, reported per receipt
    by ``Verifier.verify``."""

    def test_succinct_verification_constant(self):
        _, small = verified_for(10)
        receipt, large = verified_for(40_000)
        assert receipt.claim.segment_count > 1
        assert small.modeled_seconds == VERIFY_SECONDS
        assert large.modeled_seconds == VERIFY_SECONDS

    def test_composite_scales_with_segments(self):
        receipt, verified = verified_for(40_000, ReceiptKind.COMPOSITE)
        assert receipt.claim.segment_count >= 5
        assert verified.modeled_seconds == pytest.approx(
            receipt.claim.segment_count * VERIFY_SECONDS)

    def test_paper_verify_latency_is_3ms(self):
        assert VERIFY_SECONDS is MODELED_VERIFY_SECONDS
        assert VERIFY_SECONDS == pytest.approx(0.003)


class TestConfiguration:
    def test_invalid_throughput_rejected(self):
        with pytest.raises(ValueError):
            CostModel(cpu_cycles_per_second=0)


class TestOneHome:
    """Cost arithmetic is written once, in ``repro.zkvm``: the segment
    walk in ``cycles.py`` and the seconds and fan-out formulas in
    ``costmodel.py``.  A module elsewhere — in ``src/``, a bench or an
    example — that reads the segment geometry or the model's rates is
    pricing a proof by hand."""

    NAMES = re.compile(
        r"\b(SEGMENT_CYCLE_LIMIT|SEGMENT_MIN_PO2|cpu_cycles_per_second"
        r"|gpu_speedup|specialized_hashes_per_second|base_overhead"
        r"|segment_overhead)\b")

    def test_no_cost_arithmetic_outside_zkvm(self):
        package = Path(repro.__file__).parent
        root = package.parent.parent
        zkvm = package / "zkvm"
        scanned = [package, root / "benchmarks", root / "examples"]
        assert all(path.is_dir() for path in scanned)
        offenders = [
            f"{path.relative_to(root)}:{lineno}: {match.group(0)}"
            for top in scanned
            for path in sorted(top.rglob("*.py"))
            if zkvm not in path.parents
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            for match in self.NAMES.finditer(line)
        ]
        assert offenders == []
