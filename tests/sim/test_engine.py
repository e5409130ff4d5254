"""Integration tests for the simulation engine."""

from dataclasses import replace

import pytest

from repro.coherence.registry import cores_of
from repro.core.filter import ContentPolicy, SnoopPolicy
from repro.mem.pagetype import PageType
from repro.sim import SimConfig, build_system, run_simulation
from repro.sim.kernel import engine_for
from repro.sim.system import CoherenceBridge
from repro.workloads import get_profile


KERNELS = ("reference", "batched")


def content_writes_system(**kw):
    """A canneal system whose guests store to content-shared pages."""
    defaults = dict(
        content_sharing_enabled=True,
        accesses_per_vcpu=2000,
        warmup_accesses_per_vcpu=500,
    )
    defaults.update(kw)
    profile = replace(get_profile("canneal"), content_write_fraction=0.01)
    return build_system(SimConfig(**defaults), profile)


def measured_cows(kernel):
    """``(cow_events, COW faults after the boundary)`` of one run."""
    system = content_writes_system(kernel=kernel)
    engine = engine_for(system)
    clocks = engine.warm()
    faults_before = system.hypervisor.memory.cow_faults
    engine.measure(clocks)
    return (
        system.stats.cow_events,
        system.hypervisor.memory.cow_faults - faults_before,
    )


def run_small(app="fft", **kw):
    defaults = dict(accesses_per_vcpu=1500, warmup_accesses_per_vcpu=1000)
    defaults.update(kw)
    config = SimConfig(**defaults)
    return run_simulation(build_system(config, get_profile(app)))


class TestBasicRun:
    def test_counts_accesses(self):
        system = run_small()
        assert system.stats.l1_accesses == 16 * 1500

    def test_execution_time_positive(self):
        system = run_small()
        assert system.stats.execution_cycles > 0

    def test_transactions_and_snoops_recorded(self):
        system = run_small()
        assert system.stats.total_transactions > 0
        assert system.stats.total_snoops > 0
        assert system.stats.network_bytes > 0

    def test_deterministic(self):
        a = run_small(seed=11)
        b = run_small(seed=11)
        assert a.stats.total_snoops == b.stats.total_snoops
        assert a.stats.execution_cycles == b.stats.execution_cycles
        assert a.stats.network_bytes == b.stats.network_bytes

    def test_seed_changes_results(self):
        a = run_small(seed=11)
        b = run_small(seed=12)
        assert a.stats.total_snoops != b.stats.total_snoops


class TestRegistryCacheConsistency:
    def test_sharers_match_cache_contents(self):
        system = run_small()
        for core, hierarchy in system.caches.items():
            for block, vm_id, _ in hierarchy.l2.lines():
                state = system.registry.state_of(block)
                assert state is not None and core in cores_of(state.sharers), (
                    f"core {core} caches block {block:#x} unknown to registry"
                )

    def test_registry_sharers_are_cached(self):
        system = run_small()
        for block in list(system.registry._blocks):
            for core in system.registry.sharers_of(block):
                assert system.caches[core].l2.contains(block)

    def test_residence_counters_match_tags(self):
        system = run_small()
        for core, hierarchy in system.caches.items():
            actual = {}
            for block, vm_id, _ in hierarchy.l2.lines():
                if vm_id >= 0:
                    actual[vm_id] = actual.get(vm_id, 0) + 1
            tracker = system.snoop_filter.trackers[core]
            for vm in (1, 2, 3, 4):
                assert tracker.count(vm) == actual.get(vm, 0)


class TestPolicyOrdering:
    def test_vsnoop_never_snoops_more_than_broadcast(self):
        base = run_small(snoop_policy=SnoopPolicy.BROADCAST, seed=3)
        vsnoop = run_small(snoop_policy=SnoopPolicy.VSNOOP_BASE, seed=3)
        assert vsnoop.stats.total_snoops < base.stats.total_snoops

    def test_pinned_vsnoop_hits_ideal_quarter(self):
        vsnoop = run_small(snoop_policy=SnoopPolicy.VSNOOP_BASE)
        ratio = vsnoop.stats.total_snoops / (16 * vsnoop.stats.total_transactions)
        assert ratio == pytest.approx(0.25, abs=0.03)

    def test_traffic_reduced(self):
        base = run_small(snoop_policy=SnoopPolicy.BROADCAST, seed=3)
        vsnoop = run_small(snoop_policy=SnoopPolicy.VSNOOP_BASE, seed=3)
        assert vsnoop.stats.network_bytes < 0.6 * base.stats.network_bytes


class TestMigration:
    def migration_run(self, policy, period=0.1):
        config = SimConfig.migration_study(
            snoop_policy=policy,
            migration_period_ms=period,
            accesses_per_vcpu=24_000,
            warmup_accesses_per_vcpu=3_000,
        )
        return run_simulation(build_system(config, get_profile("fft")))

    def test_migrations_happen(self):
        system = self.migration_run(SnoopPolicy.VSNOOP_BASE)
        assert system.stats.migrations > 0

    def test_counter_removes_cores(self):
        system = self.migration_run(SnoopPolicy.VSNOOP_COUNTER)
        assert len(system.stats.removal_periods_cycles) > 0

    def test_base_never_removes_cores(self):
        system = self.migration_run(SnoopPolicy.VSNOOP_BASE)
        assert system.stats.removal_periods_cycles == []

    def test_counter_filters_better_than_base(self):
        base = self.migration_run(SnoopPolicy.VSNOOP_BASE)
        counter = self.migration_run(SnoopPolicy.VSNOOP_COUNTER)
        base_norm = base.stats.total_snoops / base.stats.total_transactions
        counter_norm = counter.stats.total_snoops / counter.stats.total_transactions
        assert counter_norm < base_norm

    def test_no_protocol_violations_under_migration(self):
        # counter-threshold removes cores speculatively; the retry ladder
        # must absorb every resulting token-collection failure.
        system = self.migration_run(SnoopPolicy.VSNOOP_COUNTER_THRESHOLD)
        assert system.stats.total_transactions > 0


class TestContentSharing:
    def test_ro_transactions_recorded(self):
        system = run_small("canneal", content_sharing_enabled=True)
        assert system.stats.coherence.transactions_by_page_type[PageType.RO_SHARED] > 0

    def test_memory_direct_snoops_least(self):
        results = {}
        for policy in (ContentPolicy.BROADCAST, ContentPolicy.MEMORY_DIRECT):
            system = run_small(
                "canneal",
                content_sharing_enabled=True,
                snoop_policy=SnoopPolicy.VSNOOP_BASE,
                content_policy=policy,
            )
            results[policy] = (
                system.stats.total_snoops / system.stats.total_transactions
            )
        assert results[ContentPolicy.MEMORY_DIRECT] < results[ContentPolicy.BROADCAST]

    def test_cow_events_when_content_written(self):
        # Measured cow_events counts exactly the COW faults taken after
        # the measurement boundary, and both kernels count the same.
        counts = {
            kernel: measured_cows(kernel) for kernel in ("auto", *KERNELS)
        }
        cow_events, cow_faults = counts["auto"]
        assert cow_events == cow_faults > 0
        assert counts["reference"] == counts["batched"] == counts["auto"]


class TestHypervisorActivity:
    def test_initiator_attribution(self):
        system = run_small("oltp", hypervisor_activity_enabled=True)
        from repro.workloads.trace import Initiator

        tx = system.stats.transactions_by_initiator
        assert tx[Initiator.HYPERVISOR] > 0
        assert tx[Initiator.DOM0] > 0
        assert tx[Initiator.GUEST] > tx[Initiator.DOM0]

    def test_hypervisor_pages_are_rw_shared(self):
        system = run_small("oltp", hypervisor_activity_enabled=True)
        assert (
            system.stats.coherence.transactions_by_page_type[PageType.RW_SHARED] > 0
        )


class TestMeasurementBoundary:
    """The boundary zeroes the counters in place: every holder keeps the
    stats objects the system was built with, and they read the measured
    phase afterwards — on the straight path and after a snapshot
    restore."""

    @pytest.mark.parametrize("path", ["straight", "snapshot"])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_built_stats_hold_the_measured_results(self, kernel, path):
        system = content_writes_system(kernel=kernel)
        stats, coherence = system.stats, system.protocol.stats
        bridge = next(
            listener
            for listener in system.hypervisor._listeners
            if isinstance(listener, CoherenceBridge)
        )
        engine = engine_for(system)
        if path == "straight":
            clocks = engine.warm()
        else:
            producer = content_writes_system(kernel=kernel)
            clocks = engine.restore_warm(
                producer.snapshot(engine_for(producer).warm())
            )
        faults_before = system.hypervisor.memory.cow_faults
        engine.measure(clocks)

        assert system.stats is stats and engine.stats is stats
        assert system.protocol.stats is coherence is stats.coherence
        assert bridge.stats is stats
        assert stats.l1_accesses == 16 * 2000  # the measured phase only
        assert coherence.transactions == sum(
            stats.transactions_by_initiator.values()
        ) > 0
        assert stats.cow_events == (
            system.hypervisor.memory.cow_faults - faults_before
        ) > 0
