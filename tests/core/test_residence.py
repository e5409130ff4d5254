"""Tests for per-VM cache residence counters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.setassoc import SetAssociativeCache
from repro.core.residence import UNTRACKED_VM, ResidenceTracker


class TestCounting:
    def test_insert_increments(self):
        tracker = ResidenceTracker(0)
        tracker.on_insert(1, vm_id=3)
        tracker.on_insert(2, vm_id=3)
        assert tracker.count(3) == 2

    def test_evict_and_invalidate_decrement(self):
        tracker = ResidenceTracker(0)
        line_a, line_b = (1, 3), (2, 3)
        tracker.on_insert(*line_a)
        tracker.on_insert(*line_b)
        tracker.on_evict(*line_a)
        tracker.on_invalidate(*line_b)
        assert tracker.count(3) == 0
        assert tracker.is_empty_for(3)

    def test_untracked_vm_ignored(self):
        tracker = ResidenceTracker(0)
        tracker.on_insert(1, UNTRACKED_VM)
        assert tracker.counts() == {}
        tracker.on_evict(1, UNTRACKED_VM)  # no underflow

    def test_underflow_raises(self):
        tracker = ResidenceTracker(0)
        with pytest.raises(RuntimeError):
            tracker.on_evict(1, 3)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            ResidenceTracker(0, threshold=-1)


class TestLowWatermark:
    def test_fires_exactly_at_zero(self):
        events = []
        tracker = ResidenceTracker(7, threshold=0, on_low=lambda c, v, n: events.append((c, v, n)))
        line = (1, 3)
        tracker.on_insert(*line)
        tracker.on_insert(2, 3)
        tracker.on_evict(*line)  # count 1: no event
        assert events == []
        tracker.on_evict(2, 3)
        assert events == [(7, 3, 0)]

    def test_threshold_fires_below_watermark(self):
        events = []
        tracker = ResidenceTracker(0, threshold=9, on_low=lambda c, v, n: events.append(n))
        lines = [(i, 5) for i in range(12)]
        for line in lines:
            tracker.on_insert(*line)
        for line in lines[:3]:
            tracker.on_evict(*line)
        # counts went 11, 10, 9 -> only 9 fires.
        assert events == [9]
        assert tracker.below_threshold(5)


class TestWithCache:
    def test_tracker_follows_cache_contents(self):
        tracker = ResidenceTracker(0)
        cache = SetAssociativeCache(num_sets=2, ways=2, observer=tracker)
        for block in range(6):
            cache.insert(block, vm_id=block % 2)
        resident = {0: 0, 1: 0}
        for _, vm_id, _ in cache.lines():
            resident[vm_id] += 1
        assert tracker.count(0) == resident[0]
        assert tracker.count(1) == resident[1]


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 2)), max_size=150))
def test_property_counts_match_cache(ops):
    """Counter equals the number of resident lines per VM at all times."""
    tracker = ResidenceTracker(0)
    cache = SetAssociativeCache(num_sets=4, ways=2, observer=tracker)
    for block, vm in ops:
        cache.insert(block, vm_id=vm)
        actual = {}
        for _, vm_id, _ in cache.lines():
            actual[vm_id] = actual.get(vm_id, 0) + 1
        for vm_id in (0, 1, 2):
            assert tracker.count(vm_id) == actual.get(vm_id, 0)
