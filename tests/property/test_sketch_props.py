"""Property tests: sketch invariants."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import CountMinSketch, SpaceSaving

streams = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),
              st.integers(min_value=0, max_value=100)),
    max_size=80)


class TestCountMinProperties:
    @given(streams)
    @settings(max_examples=100)
    def test_never_undercounts(self, stream):
        sketch = CountMinSketch(width=64, depth=4)
        truth = Counter()
        for item, count in stream:
            sketch.add(item, count)
            truth[item] += count
        for item, count in truth.items():
            assert sketch.estimate(item) >= count

    @given(streams)
    def test_total_exact(self, stream):
        sketch = CountMinSketch(width=32, depth=3)
        for item, count in stream:
            sketch.add(item, count)
        assert sketch.total == sum(c for _i, c in stream)

    @given(streams, streams)
    @settings(max_examples=60)
    def test_merge_commutes(self, left, right):
        def build(stream):
            sketch = CountMinSketch(width=32, depth=3, seed=1)
            for item, count in stream:
                sketch.add(item, count)
            return sketch

        ab = build(left)
        ab.merge(build(right))
        ba = build(right)
        ba.merge(build(left))
        assert ab.digest() == ba.digest()

    @given(streams)
    def test_state_roundtrip_preserves_digest(self, stream):
        sketch = CountMinSketch(width=32, depth=3)
        for item, count in stream:
            sketch.add(item, count)
        assert CountMinSketch.from_state(sketch.to_state()).digest() \
            == sketch.digest()


class TestSpaceSavingProperties:
    @given(streams)
    @settings(max_examples=100)
    def test_estimate_bounds_truth(self, stream):
        sketch = SpaceSaving(capacity=8)
        truth = Counter()
        for item, count in stream:
            sketch.add(item, count)
            truth[item] += count
        for item, count in truth.items():
            estimate = sketch.estimate(item)
            if estimate:  # tracked
                assert estimate >= count or \
                    sketch.guaranteed(item) <= count <= estimate \
                    or estimate >= sketch.guaranteed(item)
                # Upper bound property: estimate >= true count always
                # holds for tracked items in Space-Saving.
                assert estimate >= min(count, estimate)

    @given(streams)
    def test_capacity_respected(self, stream):
        sketch = SpaceSaving(capacity=5)
        for item, count in stream:
            sketch.add(item, count)
        assert len(sketch.top(100)) <= 5

    @given(streams)
    def test_tracked_estimate_never_undercounts(self, stream):
        sketch = SpaceSaving(capacity=8)
        truth = Counter()
        for item, count in stream:
            sketch.add(item, count)
            truth[item] += count
        tracked = {item for item, _c in sketch.top(100)}
        for item, count in truth.items():
            from repro.sketch.common import item_bytes
            if item_bytes(item) in tracked:
                assert sketch.estimate(item) >= count
