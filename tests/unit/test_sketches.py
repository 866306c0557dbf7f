"""Unit tests for the sketch family."""

import pytest

from repro.errors import ConfigurationError
from repro.sketch import CountMinSketch, SpaceSaving


class TestCountMin:
    def test_never_undercounts(self):
        sketch = CountMinSketch(width=64, depth=4)
        truth = {f"flow{i}": i + 1 for i in range(100)}
        for item, count in truth.items():
            sketch.add(item, count)
        for item, count in truth.items():
            assert sketch.estimate(item) >= count

    def test_exact_when_sparse(self):
        sketch = CountMinSketch(width=4096, depth=4)
        sketch.add("a", 10)
        sketch.add("b", 20)
        assert sketch.estimate("a") == 10
        assert sketch.estimate("b") == 20
        assert sketch.total == 30

    def test_merge_equals_union(self):
        a = CountMinSketch(width=128, depth=3, seed=5)
        b = CountMinSketch(width=128, depth=3, seed=5)
        union = CountMinSketch(width=128, depth=3, seed=5)
        for i in range(50):
            a.add(f"x{i}")
            union.add(f"x{i}")
        for i in range(50):
            b.add(f"y{i}")
            union.add(f"y{i}")
        a.merge(b)
        assert a.to_state() == union.to_state()
        assert a.digest() == union.digest()

    def test_merge_config_mismatch(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=64).merge(CountMinSketch(width=128))

    def test_state_roundtrip_and_digest(self):
        sketch = CountMinSketch(width=32, depth=2)
        sketch.add("flow", 7)
        restored = CountMinSketch.from_state(sketch.to_state())
        assert restored.estimate("flow") == 7
        assert restored.digest() == sketch.digest()

    def test_digest_changes_with_content(self):
        a = CountMinSketch(width=32, depth=2)
        b = CountMinSketch(width=32, depth=2)
        a.add("x")
        assert a.digest() != b.digest()

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch(width=0)
        with pytest.raises(ValueError):
            CountMinSketch().add("x", -1)


class TestSpaceSaving:
    def test_heavy_hitters_found(self):
        sketch = SpaceSaving(capacity=10)
        for i in range(100):
            sketch.add(f"mouse{i}", 1)
        sketch.add("elephant", 500)
        sketch.add("hippo", 300)
        top = [item for item, _count in sketch.top(2)]
        assert top == [b"elephant", b"hippo"]

    def test_estimate_upper_bound(self):
        sketch = SpaceSaving(capacity=2)
        sketch.add("a", 10)
        sketch.add("b", 5)
        sketch.add("c", 1)  # evicts b, inherits count 5
        assert sketch.estimate("c") >= 1
        assert sketch.guaranteed("c") == 1

    def test_total_exact(self):
        sketch = SpaceSaving(capacity=2)
        for i in range(20):
            sketch.add(i, 3)
        assert sketch.total == 60

    def test_deterministic_across_instances(self):
        def build():
            sketch = SpaceSaving(capacity=3)
            for i in range(30):
                sketch.add(f"k{i % 7}", i)
            return sketch
        assert build().digest() == build().digest()

    def test_state_roundtrip(self):
        sketch = SpaceSaving(capacity=3)
        sketch.add("x", 5)
        sketch.add("y", 2)
        restored = SpaceSaving.from_state(sketch.to_state())
        assert restored.digest() == sketch.digest()
        assert restored.estimate("x") == 5
