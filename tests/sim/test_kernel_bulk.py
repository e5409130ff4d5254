"""Differential and unit tests for the bulk-miss seam (DESIGN §6).

The seam commits a transaction inline in the batched kernel, instead of
descending through ``_transact``, whenever its first transient attempt
succeeds. Everything here pins its hard edges: migration windows and
metrics samples landing in the middle of a bulk run, dirty, cross-VM
and untracked victims retired inline, RW-shared hypervisor/dom0
misses, RO-shared content reads under every content policy, contended
GETMs whose invalidations fire residence-counter removals, same-VM
victims on both sides of the watermark's edge, a bail's request
multicast rolling the network window between two inline commits, L1-
and L2-hit store upgrades, copy-on-write of a page whose read memoised
it RO-shared, mid-phase deadlines for calibrated and suite workloads
alike, sanitized runs and any L2 observer other than a bare
residence tracker disabling the seam entirely, cache lines and
registry records the seam reuses ending up in exactly one place, and
the bail-out histogram that records why transactions stayed on the
reference path. All differential assertions are byte-equality of
``SimStats.to_dict()``, the ``system.snapshot([])`` end state and the
network's traffic totals (plus, where named, ``on_low`` sequences) — the seam's contract is exactness,
not approximation.
"""

import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro.cache.setassoc import CompositeObserver
from repro.coherence.registry import GLOBAL_PROVIDER
from repro.core.filter import ContentPolicy, SnoopPolicy
from repro.mem.pagetype import PageType
from repro.sim.config import SimConfig
from repro.sim.kernel import BatchedEngine, engine_for
from repro.sim.system import build_system
from repro.workloads.profiles import PROFILES
from repro.workloads.trace import Initiator
from tests.sim.differential import (
    assert_identical,
    assert_same_end_state,
    run_system,
    same_vm_victim_counts,
)

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

# The bail reasons the benchmark harness (bench/run.py) accepts; any
# other name makes it raise.
BAIL_REASONS = {
    "gets-retry",
    "getm-contended",
    "page-type",
    "store-upgrade",
    "victim-cross-vm",
    "victim-dirty",
}


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

    def test_dirty_victims_commit_inline_mid_run(self):
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

    def test_reference_path_rolls_the_window_between_seam_commits(self):
        # The seam recomputes the contention term only when the network
        # window rolls. A retry ladder's bail goes through _transact,
        # whose request multicast may roll the window itself; the
        # seam's next commit must see that roll (its own call to
        # advance the window then finds nothing to do) and charge the
        # new window's contention.
        config = SimConfig(
            num_cores=4,
            mesh_width=2,
            mesh_height=2,
            num_vms=2,
            vcpus_per_vm=2,
            suite="web-farm",
            l1_size=1024,
            l1_ways=2,
            l2_size=4096,
            l2_ways=4,
            accesses_per_vcpu=3000,
            warmup_accesses_per_vcpu=200,
            snoop_policy=SnoopPolicy.VSNOOP_COUNTER_THRESHOLD,
            counter_threshold=1024,
            migration_period_ms=0.05,
        )
        system = build_system(
            replace(config, kernel="batched"), PROFILES["fft"]
        )
        network = system.network
        advance = network._advance_window
        # Per call, in order: (caller, rolled, contention term moved).
        calls = []

        def recorded(cycle):
            start = network._window_start
            contention = network.contention_delay()
            advance(cycle)
            calls.append((
                sys._getframe(1).f_code.co_name,
                network._window_start != start,
                network.contention_delay() != contention,
            ))

        network._advance_window = recorded
        engine_for(system).run()
        reference, _ = run_system(replace(config, kernel="reference"))
        assert_same_end_state(system, reference)
        moved = calls.index(("multicast", True, True))
        assert ("bulk", True, True) in calls[:moved]
        assert ("bulk", False, False) in calls[moved:]

    def test_multi_vcpu_deadlines_mid_phase(self):
        # Multi-vCPU VMs step per access while migration and metrics
        # deadlines land mid-phase.
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

    def test_suite_deadlines_mid_phase(self):
        # Same deadlines for a pattern suite, whose per-vCPU steppers
        # share no state: migration and metrics deadlines land between
        # its accesses exactly where the reference loop puts them.
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

    Returns ``(system, engine, low_events, reference_calls)``. Every
    residence ``on_low`` call is recorded as ``(core, victim_vm, count,
    seam)``: ``seam`` is ``None`` unless the call came from inside the
    bulk seam, else ``(via, requester_core, requester_vm)`` with ``via``
    ``"evict"`` for a retired fill victim or ``"invalidate"`` for a GETM
    invalidation.
    ``reference_calls`` counts the transactions that took the reference
    ``_transact`` path by ``(initiator, page_type, is_write, level)``,
    where ``level`` is ``"miss"``, or for a store upgrade the level the
    reference engine's ``PrivateHierarchy.access`` hit (``None`` when
    the batched kernel, which never calls it, upgraded there).
    """
    system = build_system(config, PROFILES[app])
    low_events = []
    for tracker in system.snoop_filter.trackers.values():
        hook = tracker.on_low
        if hook is None:
            continue

        def recorded(core, vm_id, count, hook=hook):
            callers = []
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name != "bulk":
                callers.append(frame.f_code.co_name)
                frame = frame.f_back
            seam = None
            if frame is not None:
                via = "invalidate" if "on_invalidate" in callers else "evict"
                seam = (via, frame.f_locals["core"], frame.f_locals["vm_id"])
            low_events.append((core, vm_id, count, seam))
            hook(core, vm_id, count)

        tracker.on_low = recorded
    last_level = {}
    for core, hierarchy in system.caches.items():

        def access(block, vm_tag, is_write, core=core, hierarchy=hierarchy):
            result = type(hierarchy).access(hierarchy, block, vm_tag, is_write)
            last_level[core] = result.level
            return result

        hierarchy.access = access
    engine = engine_for(system)
    reference_calls = Counter()
    transact = engine._transact

    def counted(core, vm_id, block, is_write, page_type, initiator, vm_tag,
                hierarchy, hit):
        level = last_level.get(core) if hit else "miss"
        reference_calls[initiator, page_type, is_write, level] += 1
        return transact(
            core, vm_id, block, is_write, page_type, initiator, vm_tag,
            hierarchy, hit,
        )

    engine._transact = counted
    engine.run()
    return system, engine, low_events, reference_calls


def assert_identical_residence(config: SimConfig):
    """Byte-identical stats, end state and ``on_low`` call sequence.

    The end state is what a warm-state snapshot captures (cache sets in
    LRU order, registry records with their provider order, residence
    counters), so any order the seam gets wrong shows up here. Compares
    the two kernels and returns both ``run_probed`` tuples, keyed by
    kernel.
    """
    runs = {
        kernel: run_probed(replace(config, kernel=kernel))
        for kernel in ("reference", "batched")
    }
    assert_same_end_state(runs["batched"][0], runs["reference"][0])
    low_events = {
        kernel: [event[:3] for event in run[2]] for kernel, run in runs.items()
    }
    assert low_events["batched"] == low_events["reference"]
    return runs


def two_provider_reads(config: SimConfig, app: str = "fft") -> int:
    """RO-shared reads of a reference run that two providers answer."""
    system = build_system(replace(config, kernel="reference"), PROFILES[app])
    protocol = system.protocol
    try_ro_gets = protocol._try_ro_gets
    count = 0

    def probed(core, vm_id, block, destinations, plan, cycle):
        nonlocal count
        reachable = [
            provider
            for provider in (
                system.registry.provider_for_vm(block, provider_vm)
                for provider_vm in plan.provider_vms
            )
            if provider is not None
            and provider in destinations
            and provider != core
        ]
        count += len(reachable) > 1
        return try_ro_gets(core, vm_id, block, destinations, plan, cycle)

    protocol._try_ro_gets = probed
    engine_for(system).run()
    return count


class TestInlineHardCases:
    def test_rw_shared_untracked_lines_commit_inline(self):
        runs = assert_identical_residence(
            replace(
                WRITE_HEAVY,
                hypervisor_activity_enabled=True,
                content_sharing_enabled=True,
            )
        )
        system, engine, _, reference_calls = runs["batched"]
        assert engine.bulk_transacts > 0
        # Hypervisor and dom0 misses insert UNTRACKED_VM lines on
        # RW-shared pages; some of them never reached _transact.
        for initiator in (Initiator.HYPERVISOR, Initiator.DOM0):
            total = system.stats.transactions_by_initiator[initiator]
            assert total > sum(
                n for key, n in reference_calls.items() if key[0] is initiator
            )
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
        )["batched"]
        assert system.stats.removal_periods_cycles
        # The seam retired another VM's victim and dropped that VM's
        # counter to its watermark on this core.
        assert any(
            seam is not None and seam[0] == "evict" and victim_vm != seam[2]
            for _, victim_vm, _, seam in low_events
        )

    def test_same_vm_victims_at_the_watermark_edge(self):
        # Direct-mapped, 16-line L2s under fast swaps keep a VM's count
        # on a core near the watermark, so the filling VM's own victims
        # land at count threshold + 1 (the decrement fires on_low) and
        # threshold + 2 (the seam skips the decrement and the increment).
        config = SimConfig(
            num_cores=4,
            mesh_width=2,
            mesh_height=2,
            num_vms=2,
            vcpus_per_vm=2,
            accesses_per_vcpu=600,
            warmup_accesses_per_vcpu=200,
            l1_size=256,
            l1_ways=1,
            l2_size=1024,
            l2_ways=1,
            snoop_policy=SnoopPolicy.VSNOOP_COUNTER_THRESHOLD,
            counter_threshold=3,
            migration_period_ms=0.05,
        )
        system, engine, low_events, _ = assert_identical_residence(config)[
            "batched"
        ]
        # The trackers' watermark: counter_threshold - 1.
        threshold = system.snoop_filter.trackers[0].threshold
        counts = same_vm_victim_counts(config)
        assert counts[threshold + 1] > 0 and counts[threshold + 2] > 0
        assert engine.bulk_transacts > 0
        assert any(
            seam is not None
            and seam[0] == "evict"
            and victim_vm == seam[2]
            and count == threshold
            for _, victim_vm, count, seam in low_events
        )

    @pytest.mark.parametrize("policy", list(ContentPolicy), ids=lambda p: p.value)
    def test_ro_shared_reads_commit_inline(self, policy):
        config = replace(
            WRITE_HEAVY,
            content_sharing_enabled=True,
            content_policy=policy,
            accesses_per_vcpu=2000,
        )
        runs = assert_identical_residence(config)
        system, engine, _, reference_calls = runs["batched"]
        # Every RO-shared read committed inline: provider scan, Table VI
        # bookkeeping and grant_shared's two setdefaults included.
        assert "page-type" not in engine.bulk_summary()["bailouts"]
        assert not any(
            page_type is PageType.RO_SHARED and not is_write
            for _, page_type, is_write, _ in reference_calls
        )
        cstats = system.stats.coherence
        assert cstats.ro_misses > 0
        assert cstats.ro_holder_any_cache > 0
        assert cstats.ro_served_by_memory > 0
        providers = {
            provider_vm
            for *_, items in system.snapshot([])["registry"]
            for provider_vm, _ in items
        }
        if policy is ContentPolicy.MEMORY_DIRECT:
            assert cstats.ro_served_by_cache == 0
        else:
            assert cstats.ro_served_by_cache > 0
        if policy is ContentPolicy.BROADCAST:
            # A broadcast GETS reads the system-wide provider copy.
            assert GLOBAL_PROVIDER in providers
        if policy is ContentPolicy.FRIEND_VM:
            # Both the own-VM and the friend-VM provider respond, and
            # each DATA leg is charged.
            assert two_provider_reads(config) > 0

    def test_contended_getm_invalidations_fire_on_low(self):
        # A watermark above any per-core count makes every invalidation
        # of a VM's line fire on_low, so the on_low sequence pins the
        # sorted invalidation order of multi-sharer GETMs.
        runs = assert_identical_residence(
            replace(
                WRITE_HEAVY,
                migration_period_ms=0.05,
                snoop_policy=SnoopPolicy.VSNOOP_COUNTER_THRESHOLD,
                counter_threshold=1024,
            )
        )
        system, engine, low_events, _ = runs["batched"]
        assert system.stats.coherence.invalidations > 0
        # A seam GETM invalidated another core's copy and dropped that
        # core's residence counter to its watermark.
        assert any(
            seam is not None and seam[0] == "invalidate" and core != seam[1]
            for core, _, _, seam in low_events
        )
        # The speculative watermark also fails first attempts: those
        # GETMs (and only those) stay on the reference path.
        assert engine.bulk_summary()["bailouts"]["getm-contended"] > 0

    def test_store_to_read_content_page_takes_cow_on_memo_hit(self):
        # A guest read of a content-shared page memoises its RO-shared
        # translation; a later store to the page finds that memo entry
        # and takes the loop's copy-on-write branch. The last VM to copy
        # a page frees it, which drops its blocks' registry records,
        # provider tables included.
        profile = replace(PROFILES["canneal"], content_write_fraction=0.05)
        config = SimConfig(
            content_sharing_enabled=True,
            accesses_per_vcpu=3000,
            warmup_accesses_per_vcpu=500,
        )
        reference, _ = run_system(replace(config, kernel="reference"), profile)
        system = build_system(replace(config, kernel="batched"), profile)
        engine = engine_for(system)
        memo = engine._xlate_memo
        write_to_page = engine._write_to_page
        registry = system.registry
        drop_block = registry.drop_block
        memo_hit_cows = 0
        dropped_tables = 0

        def probed_write(vm_id, guest_page):
            nonlocal memo_hit_cows
            entry = memo[vm_id].get(guest_page)
            memo_hit_cows += entry is not None and entry[1] is PageType.RO_SHARED
            return write_to_page(vm_id, guest_page)

        def probed_drop(block):
            nonlocal dropped_tables
            state = registry.state_of(block)
            dropped_tables += state is not None and state.providers is not None
            return drop_block(block)

        engine._write_to_page = probed_write
        registry.drop_block = probed_drop
        engine.run()
        assert memo_hit_cows > 0
        assert system.hypervisor.memory.cow_faults >= memo_hit_cows
        assert dropped_tables > 0
        assert_same_end_state(system, reference)

    def test_store_upgrades_commit_inline(self):
        runs = assert_identical_residence(
            replace(
                WRITE_HEAVY,
                migration_period_ms=0.05,
                snoop_policy=SnoopPolicy.VSNOOP_COUNTER,
            )
        )
        levels = Counter()
        for (_, _, _, level), n in runs["reference"][3].items():
            levels[level] += n
        # The reference engine upgraded stores that hit in the L1 and
        # stores that hit in the L2; the batched kernel sent none of
        # them to _transact.
        assert levels["l1"] > 0 and levels["l2"] > 0
        system, engine, _, reference_calls = runs["batched"]
        assert {key[3] for key in reference_calls} <= {"miss"}
        assert system.stats.coherence.upgrades > 0
        assert "store-upgrade" not in engine.bulk_summary()["bailouts"]


class TestSanitizedBulk:
    def test_sanitizer_disables_seam_and_stays_clean(self):
        config = replace(MISS_HEAVY, sanitize=True, accesses_per_vcpu=2000)
        systems = {}
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
            systems[kernel] = system
        assert_same_end_state(systems["batched"], systems["reference"])


class TestSeamGate:
    def test_non_tracker_l2_observer_disables_seam(self):
        # The seam inlines ResidenceTracker bookkeeping only. Any other
        # L2 observer, even one forwarding to the tracker, must send
        # every transaction through the reference path it observes.
        config = replace(MISS_HEAVY, accesses_per_vcpu=2000)
        system = build_system(replace(config, kernel="batched"), PROFILES["fft"])
        l2 = system.caches[0].l2
        l2.observer = CompositeObserver(l2.observer)
        engine = engine_for(system)
        engine.run()
        assert engine.bulk_summary()["bulk_transacts"] == 0
        reference, _ = run_system(replace(config, kernel="reference"))
        assert_same_end_state(system, reference)


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
        reference, _ = run_system(replace(WRITE_HEAVY, kernel="reference"))
        assert_same_end_state(system, reference)

    def test_content_sharing_bails_only_failed_first_attempts(self):
        system, engine = run_system(
            replace(
                WRITE_HEAVY,
                kernel="batched",
                content_sharing_enabled=True,
                hypervisor_activity_enabled=True,
            )
        )
        # RO-shared reads, contended GETMs and store upgrades all ran
        # (the zero rows below are not vacuous) ...
        cstats = system.stats.coherence
        assert cstats.ro_misses > 0
        assert cstats.invalidations > 0
        assert cstats.upgrades > 0
        # ... and every one of them committed inline.
        bailouts = engine.bulk_summary()["bailouts"]
        for reason in ("page-type", "getm-contended", "store-upgrade"):
            assert bailouts.get(reason, 0) == 0
        assert set(bailouts) <= BAIL_REASONS

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
