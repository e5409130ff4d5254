"""Tests for the RegionScout baseline filter."""

import pytest

from repro.baselines.regionscout import RegionScoutFilter, RegionTracker
from repro.mem.pagetype import PageType


class TestRegionTracker:
    def test_counts_regions(self):
        tracker = RegionTracker(region_bits=6, crh_buckets=64)
        tracker.on_insert(0, 1)
        tracker.on_insert(1, 1)  # same region
        tracker.on_insert(64, 1)  # next region
        assert tracker.caches_region(0)
        assert tracker.caches_region(1)
        assert not tracker.caches_region(2)

    def test_crh_no_false_negatives(self):
        tracker = RegionTracker(region_bits=6, crh_buckets=4)
        for block in (0, 64, 128, 192, 256):
            tracker.on_insert(block, 1)
        for region in range(5):
            assert tracker.crh_possibly_present(region)

    def test_crh_clears_on_eviction(self):
        tracker = RegionTracker(region_bits=6, crh_buckets=64)
        line = (0, 1)
        tracker.on_insert(*line)
        tracker.on_evict(*line)
        assert not tracker.caches_region(0)
        assert not tracker.crh_possibly_present(0)

    def test_underflow_raises(self):
        tracker = RegionTracker(region_bits=6, crh_buckets=64)
        with pytest.raises(RuntimeError):
            tracker.on_evict(0, 1)

    def test_collisions_cause_false_positives(self):
        tracker = RegionTracker(region_bits=6, crh_buckets=1)
        tracker.on_insert(0, 1)
        # Single bucket: every region now appears possibly-present.
        assert tracker.crh_possibly_present(999)
        assert not tracker.caches_region(999)


class TestRegionScoutFilter:
    def make_filter(self):
        return RegionScoutFilter(4, region_blocks=64, crh_buckets=256)

    def test_rejects_bad_region_size(self):
        with pytest.raises(ValueError):
            RegionScoutFilter(4, region_blocks=48)

    def test_filters_cores_without_region(self):
        f = self.make_filter()
        f.trackers[1].on_insert(5, 1)  # core 1 caches region 0
        plan = f.plan(0, 1, PageType.VM_PRIVATE, block=7)
        assert plan.attempts[0] == frozenset({0, 1})
        assert f.crh_filtered_cores == 2  # cores 2 and 3 skipped

    def test_nsrt_hit_goes_memory_direct(self):
        f = self.make_filter()
        f.observe_outcome(0, 7)  # nobody else caches region 0
        plan = f.plan(0, 1, PageType.VM_PRIVATE, block=8)
        assert plan.attempts[0] == frozenset({0})
        assert f.nsrt_hits == 1

    def test_nsrt_invalidated_when_region_becomes_shared(self):
        f = self.make_filter()
        f.observe_outcome(0, 7)
        f.trackers[2].on_insert(9, 1)  # core 2 now caches region 0
        plan = f.plan(0, 1, PageType.VM_PRIVATE, block=8)
        assert 2 in plan.attempts[0]
        assert f.nsrt_hits == 0

    def test_nsrt_not_learned_for_shared_regions(self):
        f = self.make_filter()
        f.trackers[3].on_insert(2, 1)
        f.observe_outcome(0, 7)
        plan = f.plan(0, 1, PageType.VM_PRIVATE, block=8)
        assert plan.attempts[0] == frozenset({0, 3})

    def test_nsrt_capacity_bounded(self):
        f = RegionScoutFilter(4, nsrt_entries=2)
        for region in range(5):
            f.observe_outcome(0, region * 64)
        assert len(f._nsrt[0]) == 2

    def test_plan_cache_revalidates_after_bucket_epoch_bump(self):
        f = self.make_filter()
        bucket = f.bucket_of(0)
        colliding = next(r for r in range(1, 1 << 16) if f.bucket_of(r) == bucket)
        before = f.plan(0, 1, PageType.VM_PRIVATE, block=7)  # region 0
        assert before.attempts[0] == frozenset({0})
        assert f.plan(0, 1, PageType.VM_PRIVATE, block=7) is before  # memoised
        # Core 2 caches another region hashed to the same CRH bucket: the
        # bucket's membership epoch moves, so the memoised plan is stale.
        f.trackers[2].on_insert(colliding << f.region_bits, 1)
        after = f.plan(0, 1, PageType.VM_PRIVATE, block=7)
        assert 2 in after.attempts[0]

    def test_no_block_falls_back_to_broadcast(self):
        f = self.make_filter()
        plan = f.plan(0, 1, PageType.VM_PRIVATE)
        assert plan.attempts[0] == frozenset(range(4))


class TestIntegration:
    def test_regionscout_runs_in_full_system(self):
        from repro.sim import SimConfig, build_system, run_simulation
        from repro.workloads import get_profile

        config = SimConfig(
            filter_kind="regionscout",
            accesses_per_vcpu=1500,
            warmup_accesses_per_vcpu=1000,
        )
        system = run_simulation(build_system(config, get_profile("fft")))
        broadcast_snoops = 16 * system.stats.total_transactions
        # Region filtering removes a solid share of snoops...
        assert system.stats.total_snoops < 0.7 * broadcast_snoops
        # ...without any protocol violation (would have raised).
        assert system.stats.total_transactions > 0

    def test_regionscout_observer_attached(self):
        from repro.sim import SimConfig, build_system

        config = SimConfig(filter_kind="regionscout", accesses_per_vcpu=10)
        system = build_system(config, __import__("repro.workloads", fromlist=["get_profile"]).get_profile("fft"))
        for core, hierarchy in system.caches.items():
            assert hierarchy.l2.observer is system.snoop_filter.trackers[core]
