"""Differential and unit tests for the bulk-miss seam (DESIGN §6).

The seam applies eligible misses inline in the batched kernel instead
of descending through ``_transact``. Everything here pins its hard
edges: migration windows and metrics samples landing in the middle of a
bulk run, dirty, cross-VM and untracked victims retired inline,
RW-shared hypervisor/dom0 misses, residence-counter removals fired from
inside the seam, mid-phase deadlines for calibrated and suite
workloads alike, sanitized runs disabling the seam entirely, and the
bail-out histogram that records why misses stayed on the reference
path. All differential assertions are byte-equality of
``SimStats.to_dict()`` — the seam's contract is exactness, not
approximation.
"""

import json
import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro.cache.hierarchy import PrivateHierarchy
from repro.cache.setassoc import SetAssociativeCache
from repro.coherence.plan import RequestPlan
from repro.core.filter import SnoopPolicy
from repro.mem.pagetype import PageType
from repro.sim.config import SimConfig
from repro.sim.kernel import BatchedEngine, engine_for
from repro.sim.system import build_system
from repro.workloads.profiles import PROFILES
from repro.workloads.trace import Initiator

# Small caches + a read-heavy zipfian suite: most accesses miss and most
# misses are seam-eligible, so every downstream assertion exercises the
# inline path heavily.
MISS_HEAVY = SimConfig(
    l1_size=4 * 1024,
    l2_size=16 * 1024,
    suite="web-farm",
    accesses_per_vcpu=4000,
    warmup_accesses_per_vcpu=500,
)

# The write-heavy counterpart: the backup service's ~95% store mix keeps
# L2 victims dirty, so most inline misses carry a writeback.
WRITE_HEAVY = replace(MISS_HEAVY, suite="backup-window")


def run_system(config: SimConfig, app: str = "fft"):
    system = build_system(config, PROFILES[app])
    engine = engine_for(system)
    engine.run()
    return system, engine


def run_stats(config: SimConfig, app: str = "fft") -> str:
    system, _ = run_system(config, app)
    return json.dumps(system.stats.to_dict(), sort_keys=True)


def assert_identical(config: SimConfig, app: str = "fft") -> None:
    reference = run_stats(replace(config, kernel="reference"), app)
    batched = run_stats(replace(config, kernel="batched"), app)
    assert batched == reference


class TestBulkDifferential:
    def test_miss_heavy_cell(self):
        assert_identical(MISS_HEAVY)

    def test_migration_window_mid_bulk_run(self):
        # Tiny migration periods land windows inside runs of inline
        # misses; the boundary branch must fire exactly there.
        assert_identical(
            replace(
                MISS_HEAVY,
                migration_period_ms=0.05,
                snoop_policy=SnoopPolicy.VSNOOP_COUNTER,
            )
        )

    def test_metrics_sample_on_bulk_transacted_access(self):
        # Samples every ~2k cycles fall on accesses the seam applied
        # inline; the sampled network/memory counters must already be
        # flushed (the seam batches traffic per transaction, never
        # across one).
        assert_identical(replace(MISS_HEAVY, metrics_sample_every=2000))

    def test_dirty_victim_bails_mid_run(self):
        assert_identical(WRITE_HEAVY)

    def test_dirty_victims_with_migration(self):
        assert_identical(
            replace(
                WRITE_HEAVY,
                migration_period_ms=0.1,
                snoop_policy=SnoopPolicy.VSNOOP_COUNTER,
            )
        )

    def test_counter_threshold_retry_plans(self):
        # COUNTER_THRESHOLD plans carry a retry ladder; only misses whose
        # first attempt provably succeeds may stay inline.
        assert_identical(
            replace(
                MISS_HEAVY,
                snoop_policy=SnoopPolicy.VSNOOP_COUNTER_THRESHOLD,
                counter_threshold=3,
            )
        )

    def test_deadline_clamped_word_refills(self, monkeypatch):
        # Multi-vCPU VMs step per access while migration and metrics
        # deadlines land mid-phase; packed-mirror validation runs at
        # every phase end.
        monkeypatch.setenv("REPRO_KERNEL_VALIDATE", "1")
        assert_identical(
            SimConfig(
                num_cores=4,
                mesh_width=2,
                mesh_height=2,
                num_vms=2,
                vcpus_per_vm=2,
                l1_size=2 * 1024,
                l2_size=8 * 1024,
                accesses_per_vcpu=600,
                warmup_accesses_per_vcpu=200,
                migration_period_ms=0.2,
                metrics_sample_every=3000,
            )
        )

    def test_suite_deadlines_mid_phase(self, monkeypatch):
        # Same deadlines for a pattern suite, whose per-vCPU steppers
        # share no state: migration and metrics deadlines land between
        # its accesses exactly where the reference loop puts them.
        monkeypatch.setenv("REPRO_KERNEL_VALIDATE", "1")
        assert_identical(
            replace(
                MISS_HEAVY,
                migration_period_ms=0.05,
                metrics_sample_every=2000,
                accesses_per_vcpu=2000,
            )
        )


def run_probed(config: SimConfig, app: str = "fft"):
    """Run ``config`` recording what the seam's commits are visible through.

    Returns ``(system, engine, low_events, reference_by_initiator)``:
    every residence ``on_low`` call as ``(core, victim_vm, count,
    requester_vm)`` (``requester_vm`` is ``None`` unless the call came
    from inside the bulk seam), and the transactions that took the
    reference ``_transact`` path, per initiator.
    """
    system = build_system(config, PROFILES[app])
    low_events = []
    for tracker in system.snoop_filter.trackers.values():
        hook = tracker.on_low
        if hook is None:
            continue

        def recorded(core, vm_id, count, hook=hook):
            caller = sys._getframe(1)
            requester = (
                caller.f_locals["vm_id"]
                if caller.f_code.co_name == "bulk"
                else None
            )
            low_events.append((core, vm_id, count, requester))
            hook(core, vm_id, count)

        tracker.on_low = recorded
    engine = engine_for(system)
    reference_by_initiator = Counter()
    transact = engine._transact

    def counted(core, vm_id, block, is_write, page_type, initiator, *rest):
        reference_by_initiator[initiator] += 1
        return transact(
            core, vm_id, block, is_write, page_type, initiator, *rest
        )

    engine._transact = counted
    engine.run()
    return system, engine, low_events, reference_by_initiator


def assert_identical_residence(config: SimConfig):
    """Byte-identical stats, residence counters and ``on_low`` calls.

    Compares the two kernels and returns the batched run's
    ``run_probed`` tuple.
    """
    runs, observed = {}, {}
    for kernel in ("reference", "batched"):
        run = runs[kernel] = run_probed(replace(config, kernel=kernel))
        system, _, low_events, _ = run
        observed[kernel] = (
            json.dumps(system.stats.to_dict(), sort_keys=True),
            {
                core: tracker.counts()
                for core, tracker in system.snoop_filter.trackers.items()
            },
            [event[:3] for event in low_events],
        )
    assert observed["batched"] == observed["reference"]
    return runs["batched"]


class TestInlineHardCases:
    def test_rw_shared_untracked_lines_commit_inline(self):
        system, engine, _, by_initiator = assert_identical_residence(
            replace(
                WRITE_HEAVY,
                hypervisor_activity_enabled=True,
                content_sharing_enabled=True,
            )
        )
        assert engine.bulk_transacts > 0
        # Hypervisor and dom0 misses insert UNTRACKED_VM lines on
        # RW-shared pages; some of them never reached _transact.
        for initiator in (Initiator.HYPERVISOR, Initiator.DOM0):
            total = system.stats.transactions_by_initiator[initiator]
            assert total > by_initiator[initiator]
        assert system.stats.coherence.transactions_by_page_type[
            PageType.RW_SHARED
        ] > 0

    def test_cross_vm_victims_fire_on_low_inside_seam(self):
        system, _, low_events, _ = assert_identical_residence(
            SimConfig.migration_study(
                snoop_policy=SnoopPolicy.VSNOOP_COUNTER_THRESHOLD,
                migration_period_ms=0.1,
                accesses_per_vcpu=20_000,
            )
        )
        assert system.stats.removal_periods_cycles
        # The seam retired another VM's victim and dropped that VM's
        # counter to its watermark on this core.
        assert any(
            requester is not None and victim_vm != requester
            for _, victim_vm, _, requester in low_events
        )


class TestSanitizedBulk:
    def test_sanitizer_disables_seam_and_stays_clean(self):
        config = replace(MISS_HEAVY, sanitize=True, accesses_per_vcpu=2000)
        outputs = {}
        for kernel in ("reference", "batched"):
            system, engine = run_system(replace(config, kernel=kernel))
            assert system.sanitizer.violation_count == 0
            if kernel == "batched":
                # The seam is gated off under any observer: every miss
                # must have taken the reference path the sanitizer
                # shadows.
                summary = engine.bulk_summary()
                assert summary["bulk_transacts"] == 0
                assert summary["bailouts"] == {}
            outputs[kernel] = json.dumps(system.stats.to_dict(), sort_keys=True)
        assert outputs["batched"] == outputs["reference"]


class TestBailHistogram:
    def test_miss_heavy_majority_inline(self):
        _, engine = run_system(replace(MISS_HEAVY, kernel="batched"))
        summary = engine.bulk_summary()
        bulk = summary["bulk_transacts"]
        bailed = sum(summary["bailouts"].values())
        assert bulk > 0
        # The acceptance bar for the miss-heavy cell: at least half of
        # the seam-visible private misses commit inline.
        assert bulk / (bulk + bailed) >= 0.5

    def test_write_heavy_dirty_victims_commit_inline(self):
        system, engine = run_system(replace(WRITE_HEAVY, kernel="batched"))
        summary = engine.bulk_summary()
        assert "victim-dirty" not in summary["bailouts"]
        assert "victim-cross-vm" not in summary["bailouts"]
        bulk = summary["bulk_transacts"]
        bailed = sum(summary["bailouts"].values())
        assert bulk / (bulk + bailed) >= 0.5
        batched = json.dumps(system.stats.to_dict(), sort_keys=True)
        assert batched == run_stats(replace(WRITE_HEAVY, kernel="reference"))

    def test_summary_is_sorted_and_detached(self):
        _, engine = run_system(replace(MISS_HEAVY, kernel="batched"))
        summary = engine.bulk_summary()
        reasons = list(summary["bailouts"])
        assert reasons == sorted(reasons)
        # Mutating the summary must not touch the engine's live counters.
        summary["bailouts"]["fake"] = 1
        assert "fake" not in engine.bulk_summary()["bailouts"]

    def test_counters_reset_between_measurements(self):
        system = build_system(
            replace(MISS_HEAVY, kernel="batched", accesses_per_vcpu=1500),
            PROFILES["fft"],
        )
        engine = engine_for(system)
        assert isinstance(engine, BatchedEngine)
        clocks = engine.warm()
        # The measurement boundary zeroes the histogram with the rest of
        # the measurement state: the warm-up phase ran plenty of inline
        # misses, but the summary after warm() reports none of them.
        warm_summary = engine.bulk_summary()
        assert warm_summary["bulk_transacts"] == 0
        assert warm_summary["bailouts"] == {}
        engine.measure(clocks)
        measured = engine.bulk_summary()
        # The measured phase's counts only.
        assert measured["bulk_transacts"] > 0

    def test_reference_engine_has_no_summary(self):
        system = build_system(
            replace(MISS_HEAVY, kernel="reference"), PROFILES["fft"]
        )
        engine = engine_for(system)
        assert not hasattr(engine, "bulk_summary")


class TestVictimPeek:
    def test_peek_matches_insert(self):
        cache = SetAssociativeCache(num_sets=2, ways=2)
        # Fill set 0 (blocks 0, 2): next insert into set 0 evicts LRU 0.
        cache.insert(0, vm_id=1)
        cache.insert(2, vm_id=1)
        predicted = cache.peek_victim(4)
        assert predicted is not None and predicted.block == 0
        actual = cache.insert(4, vm_id=2)
        assert actual is predicted

    def test_peek_no_eviction_cases(self):
        cache = SetAssociativeCache(num_sets=2, ways=2)
        cache.insert(0, vm_id=1)
        assert cache.peek_victim(2) is None  # set not full
        cache.insert(2, vm_id=1)
        assert cache.peek_victim(0) is None  # already resident

    def test_peek_is_pure(self):
        from repro.cache.setassoc import CacheObserver

        events = []

        class Spy(CacheObserver):
            def on_evict(self, line):
                events.append(("evict", line.block))

            def on_insert(self, line):
                events.append(("insert", line.block))

        cache = SetAssociativeCache(num_sets=1, ways=2, observer=Spy())
        cache.insert(0, vm_id=1)
        cache.insert(1, vm_id=1)
        events.clear()
        before = list(cache._sets[0])
        cache.peek_victim(2)
        # No observer events, no LRU touch, no mutation.
        assert events == []
        assert list(cache._sets[0]) == before

    def test_hierarchy_fill_victim_delegates(self):
        hierarchy = PrivateHierarchy(
            core_id=0, l1_size=128, l1_ways=1, l2_size=256, l2_ways=1,
            block_size=64,
        )
        hierarchy.fill(0, vm_id=1)
        predicted = hierarchy.fill_victim(4)
        assert predicted is not None and predicted.block == 0
        victim = hierarchy.fill(4, vm_id=1)
        assert victim is predicted


class TestPlanProperties:
    def test_first_attempt_and_single_attempt(self):
        single = RequestPlan(attempts=(frozenset({1, 2}),))
        assert single.first_attempt == frozenset({1, 2})
        assert single.single_attempt
        ladder = RequestPlan(
            attempts=(frozenset({1}), frozenset({1, 2, 3})),
            page_type=PageType.VM_PRIVATE,
        )
        assert ladder.first_attempt == frozenset({1})
        assert not ladder.single_attempt
