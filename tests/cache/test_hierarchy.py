"""Tests for the per-core L1/L2 hierarchy."""

from repro.cache.hierarchy import AccessResult, PrivateHierarchy
from repro.cache.line import tag_dirty


def small_hierarchy(**kwargs):
    defaults = dict(
        core_id=0,
        l1_size=4 * 64,  # 4 lines
        l1_ways=2,
        l2_size=16 * 64,  # 16 lines
        l2_ways=4,
    )
    defaults.update(kwargs)
    return PrivateHierarchy(**defaults)


class TestAccessPath:
    def test_cold_miss(self):
        h = small_hierarchy()
        result = h.access(0x100, vm_id=1, is_write=False)
        assert result.level == AccessResult.MISS
        assert not result.hit
        assert h.misses == 1

    def test_fill_then_l1_hit(self):
        h = small_hierarchy()
        h.access(0x100, vm_id=1, is_write=False)
        h.fill(0x100, vm_id=1)
        result = h.access(0x100, vm_id=1, is_write=False)
        assert result.level == AccessResult.L1
        assert result.latency == h.l1_latency

    def test_l2_hit_promotes_to_l1(self):
        h = small_hierarchy()
        h.fill(0x1, vm_id=1)
        # Push 0x1 out of the 4-line L1 (2 sets) with odd blocks that
        # spread across the 4 L2 sets so 0x1 stays resident in L2.
        for block in (0x3, 0x5, 0x7, 0x9):
            h.fill(block, vm_id=1)
        result = h.access(0x1, vm_id=1, is_write=False)
        assert result.level == AccessResult.L2
        assert h.access(0x1, vm_id=1, is_write=False).level == AccessResult.L1

    def test_write_marks_dirty_both_levels(self):
        h = small_hierarchy()
        h.fill(0x5, vm_id=1)
        assert not tag_dirty(h.l2.lookup(0x5, touch=False))
        h.access(0x5, vm_id=1, is_write=True)
        assert tag_dirty(h.l1.lookup(0x5, touch=False))
        assert tag_dirty(h.l2.lookup(0x5, touch=False))


class TestInclusion:
    def test_l2_eviction_drops_l1_copy(self):
        h = small_hierarchy(l2_size=4 * 64, l2_ways=1)  # 4 sets, direct-mapped
        h.fill(0x0, vm_id=1)
        victim = h.fill(0x4, vm_id=1)  # same L2 set as 0x0
        assert victim == (0x0, 1, False)
        assert not h.l1.contains(0x0)
        assert not h.contains(0x0)

    def test_invalidate_clears_both(self):
        h = small_hierarchy()
        h.fill(0x7, vm_id=1)
        line = h.invalidate(0x7)
        assert line is not None
        assert not h.l1.contains(0x7)
        assert not h.l2.contains(0x7)

    def test_fill_returns_dirty_victim(self):
        h = small_hierarchy(l2_size=4 * 64, l2_ways=1)
        h.fill(0x0, vm_id=1, dirty=True)
        victim = h.fill(0x4, vm_id=1)
        assert victim == (0x0, 1, True)

    def test_l1_invariant_subset_of_l2(self):
        h = small_hierarchy()
        for block in range(0, 64, 2):
            h.fill(block, vm_id=1)
            h.access(block, vm_id=1, is_write=False)
        l2_blocks = {block for block, _, _ in h.l2.lines()}
        for block, _, _ in h.l1.lines():
            assert block in l2_blocks


class TestCounters:
    def test_hit_counters(self):
        h = small_hierarchy()
        h.access(0x9, vm_id=1, is_write=False)  # miss
        h.fill(0x9, vm_id=1)
        h.access(0x9, vm_id=1, is_write=False)  # L1 hit
        assert h.total_accesses == 2
        assert h.l1_hits == 1
        assert h.misses == 1
