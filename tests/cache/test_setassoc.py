"""Tests for the set-associative cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.line import make_tag, tag_dirty, tag_vm
from repro.cache.setassoc import CacheObserver, SetAssociativeCache


class RecordingObserver(CacheObserver):
    def __init__(self):
        self.inserts = []
        self.evicts = []
        self.invalidates = []

    def on_insert(self, block, vm_id):
        self.inserts.append(block)

    def on_evict(self, block, vm_id):
        self.evicts.append(block)

    def on_invalidate(self, block, vm_id):
        self.invalidates.append(block)


class TestGeometry:
    def test_from_size(self):
        cache = SetAssociativeCache.from_size(256 * 1024, ways=8, block_size=64)
        assert cache.capacity_lines == 4096
        assert cache.num_sets == 512
        assert cache.ways == 8

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(num_sets=3, ways=4)
        with pytest.raises(ValueError):
            SetAssociativeCache(num_sets=4, ways=0)


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = SetAssociativeCache(num_sets=4, ways=2)
        assert cache.lookup(0x10) is None
        cache.insert(0x10, vm_id=1)
        tag = cache.lookup(0x10)
        assert tag is not None
        assert tag_vm(tag) == 1

    def test_lru_eviction_order(self):
        cache = SetAssociativeCache(num_sets=1, ways=2)
        cache.insert(1, vm_id=0)
        cache.insert(2, vm_id=0)
        cache.lookup(1)  # 1 becomes MRU; 2 is now LRU
        victim = cache.insert(3, vm_id=0)
        assert victim == (2, 0, False)

    def test_insert_existing_refreshes_no_evict(self):
        obs = RecordingObserver()
        cache = SetAssociativeCache(num_sets=1, ways=2, observer=obs)
        cache.insert(1, vm_id=0)
        cache.insert(1, vm_id=0, dirty=True)
        assert obs.inserts == [1]
        assert tag_dirty(cache.lookup(1))

    def test_same_set_conflict(self):
        # Blocks 0 and 4 map to set 0 of a 4-set cache.
        cache = SetAssociativeCache(num_sets=4, ways=1)
        cache.insert(0, vm_id=0)
        victim = cache.insert(4, vm_id=0)
        assert victim[0] == 0


class TestInvalidateAndFlush:
    def test_invalidate_returns_line(self):
        cache = SetAssociativeCache(num_sets=4, ways=2)
        cache.insert(0x20, vm_id=2, dirty=True)
        line = cache.invalidate(0x20)
        assert line == (0x20, 2, True)
        assert cache.lookup(0x20) is None

    def test_invalidate_missing_is_none(self):
        cache = SetAssociativeCache(num_sets=4, ways=2)
        assert cache.invalidate(0x99) is None

    def test_mark_dirty_missing_raises(self):
        cache = SetAssociativeCache(num_sets=4, ways=2)
        with pytest.raises(KeyError):
            cache.mark_dirty(0x5)


class TestObserverEvents:
    def test_events_fire(self):
        obs = RecordingObserver()
        cache = SetAssociativeCache(num_sets=1, ways=1, observer=obs)
        cache.insert(1, vm_id=0)
        cache.insert(2, vm_id=0)  # evicts 1
        cache.invalidate(2)
        assert obs.inserts == [1, 2]
        assert obs.evicts == [1]
        assert obs.invalidates == [2]


@settings(max_examples=50)
@given(st.lists(st.integers(0, 200), min_size=1, max_size=300))
def test_property_capacity_never_exceeded(blocks):
    cache = SetAssociativeCache(num_sets=4, ways=2)
    for block in blocks:
        cache.insert(block, vm_id=0)
        assert cache.resident_count() <= cache.capacity_lines
    # Every resident block must be findable.
    for block, vm_id, dirty in cache.lines():
        assert cache.lookup(block, touch=False) == make_tag(vm_id, dirty)


@settings(max_examples=50)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=200))
def test_property_observer_balance(blocks):
    """inserts - evicts - invalidates == resident lines."""
    obs = RecordingObserver()
    cache = SetAssociativeCache(num_sets=2, ways=2, observer=obs)
    for i, block in enumerate(blocks):
        if i % 5 == 4:
            cache.invalidate(block)
        else:
            cache.insert(block, vm_id=0)
    resident = cache.resident_count()
    assert len(obs.inserts) - len(obs.evicts) - len(obs.invalidates) == resident



class TestTags:
    @pytest.mark.parametrize("vm_id", [-1, 0, 1, 7, 1000])
    @pytest.mark.parametrize("dirty", [False, True])
    def test_tag_round_trip(self, vm_id, dirty):
        tag = make_tag(vm_id, dirty)
        assert tag_vm(tag) == vm_id
        assert tag_dirty(tag) is dirty

    def test_mark_dirty_keeps_vm_and_lru_order(self):
        cache = SetAssociativeCache(num_sets=1, ways=4)
        for block in (1, 2, 3):
            cache.insert(block, vm_id=-1 if block == 2 else 5)
        cache.mark_dirty(2)
        assert list(cache.lines()) == [(1, 5, False), (2, -1, True), (3, 5, False)]
