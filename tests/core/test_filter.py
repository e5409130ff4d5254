"""Tests for the virtual-snooping filter policies."""

import pytest

from repro.coherence.registry import GLOBAL_PROVIDER
from repro.core.filter import ContentPolicy, SnoopPolicy, VirtualSnoopFilter
from repro.mem.pagetype import PageType

ALL = frozenset(range(16))


def make_filter(policy=SnoopPolicy.VSNOOP_COUNTER, content=ContentPolicy.BROADCAST, **kw):
    f = VirtualSnoopFilter(16, policy=policy, content_policy=content, **kw)
    # VM 1 on cores 4-7, VM 2 on cores 8-11.
    for core in (4, 5, 6, 7):
        f.on_vcpu_placed(1, core)
    for core in (8, 9, 10, 11):
        f.on_vcpu_placed(2, core)
    return f


class TestPrivatePlans:
    def test_broadcast_policy_always_broadcasts(self):
        f = make_filter(policy=SnoopPolicy.BROADCAST)
        plan = f.plan(4, 1, PageType.VM_PRIVATE)
        assert plan.attempts == (ALL,)

    def test_vsnoop_multicasts_to_domain(self):
        f = make_filter()
        plan = f.plan(4, 1, PageType.VM_PRIVATE)
        assert plan.attempts == (frozenset({4, 5, 6, 7}),)

    def test_counter_threshold_has_retry_ladder(self):
        f = make_filter(policy=SnoopPolicy.VSNOOP_COUNTER_THRESHOLD)
        plan = f.plan(4, 1, PageType.VM_PRIVATE)
        domain = frozenset({4, 5, 6, 7})
        assert plan.attempts == (domain, domain, ALL)
        assert plan.last_is_persistent

    def test_rw_shared_always_broadcast(self):
        f = make_filter()
        plan = f.plan(4, 1, PageType.RW_SHARED)
        assert plan.attempts == (ALL,)

    def test_full_domain_collapses_to_single_broadcast(self):
        f = VirtualSnoopFilter(4, policy=SnoopPolicy.VSNOOP_COUNTER_THRESHOLD)
        for core in range(4):
            f.on_vcpu_placed(1, core)
        plan = f.plan(0, 1, PageType.VM_PRIVATE)
        assert plan.attempts == (frozenset(range(4)),)

    def test_unscheduled_vm_falls_back_to_requester(self):
        f = VirtualSnoopFilter(16)
        plan = f.plan(3, 9, PageType.VM_PRIVATE)
        assert plan.attempts == (frozenset({3}),)


class TestContentPlans:
    def test_default_broadcasts_with_global_provider(self):
        f = make_filter()
        plan = f.plan(4, 1, PageType.RO_SHARED)
        assert plan.attempts == (ALL,)
        assert plan.provider_vms == (GLOBAL_PROVIDER,)

    def test_memory_direct_snoops_nothing(self):
        f = make_filter(content=ContentPolicy.MEMORY_DIRECT)
        plan = f.plan(4, 1, PageType.RO_SHARED)
        assert plan.attempts == (frozenset(),)
        assert plan.provider_vms == ()

    def test_intra_vm_uses_own_domain(self):
        f = make_filter(content=ContentPolicy.INTRA_VM)
        plan = f.plan(4, 1, PageType.RO_SHARED)
        assert plan.attempts == (frozenset({4, 5, 6, 7}),)
        assert plan.provider_vms == (1,)

    def test_friend_vm_merges_domains(self):
        f = make_filter(content=ContentPolicy.FRIEND_VM)
        f.set_friend(1, 2)
        plan = f.plan(4, 1, PageType.RO_SHARED)
        assert plan.attempts == (frozenset({4, 5, 6, 7, 8, 9, 10, 11}),)
        assert plan.provider_vms == (1, 2)

    def test_friend_vm_without_friend_degrades_to_intra(self):
        f = make_filter(content=ContentPolicy.FRIEND_VM)
        plan = f.plan(4, 1, PageType.RO_SHARED)
        assert plan.provider_vms == (1,)

    def test_stats_domains_attached(self):
        f = make_filter(content=ContentPolicy.MEMORY_DIRECT)
        f.set_friend(1, 2)
        plan = f.plan(4, 1, PageType.RO_SHARED)
        assert plan.stats_intra_domain == frozenset({4, 5, 6, 7})
        assert plan.stats_friend_domain == frozenset({8, 9, 10, 11})

    def test_cannot_befriend_self(self):
        f = make_filter()
        with pytest.raises(ValueError):
            f.set_friend(1, 1)


class TestDomainMaintenance:
    def _fill_and_drain(self, f, core, vm, blocks=3):
        tracker = f.trackers[core]
        lines = [(i, vm) for i in range(blocks)]
        for line in lines:
            tracker.on_insert(*line)
        return lines

    def test_counter_removes_core_after_drain(self):
        f = make_filter(policy=SnoopPolicy.VSNOOP_COUNTER)
        lines = self._fill_and_drain(f, 7, 1)
        f.on_vcpu_displaced(1, 7)
        assert 7 in f.domains.domain(1)  # data still cached
        for line in lines:
            f.trackers[7].on_evict(*line)
        assert 7 not in f.domains.domain(1)

    def test_base_policy_never_removes(self):
        f = make_filter(policy=SnoopPolicy.VSNOOP_BASE)
        lines = self._fill_and_drain(f, 7, 1)
        f.on_vcpu_displaced(1, 7)
        for line in lines:
            f.trackers[7].on_evict(*line)
        assert 7 in f.domains.domain(1)

    def test_counter_does_not_remove_running_core(self):
        f = make_filter(policy=SnoopPolicy.VSNOOP_COUNTER)
        lines = self._fill_and_drain(f, 7, 1)
        for line in lines:
            f.trackers[7].on_evict(*line)
        assert 7 in f.domains.domain(1)  # VM still running there

    def test_displacement_with_empty_counter_removes_immediately(self):
        f = make_filter(policy=SnoopPolicy.VSNOOP_COUNTER)
        f.on_vcpu_displaced(1, 7)  # never cached anything on core 7
        assert 7 not in f.domains.domain(1)

    def test_threshold_removes_early(self):
        f = make_filter(policy=SnoopPolicy.VSNOOP_COUNTER_THRESHOLD, counter_threshold=10)
        tracker = f.trackers[7]
        lines = [(i, 1) for i in range(12)]
        for line in lines:
            tracker.on_insert(*line)
        f.on_vcpu_displaced(1, 7)
        tracker.on_evict(*lines[0])  # 11 left
        assert 7 in f.domains.domain(1)
        tracker.on_evict(*lines[1])  # 10 left: still not under threshold
        assert 7 in f.domains.domain(1)
        tracker.on_evict(*lines[2])  # 9 left: under threshold -> removed
        assert 7 not in f.domains.domain(1)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            VirtualSnoopFilter(16, counter_threshold=0)


class TestPlanCache:
    """Plans are memoised per (core, vm_id, page_type) and must be
    invalidated by every event that can change a destination set."""

    def test_repeated_plans_are_cached(self):
        f = make_filter()
        first = f.plan(4, 1, PageType.VM_PRIVATE)
        assert f.plan(4, 1, PageType.VM_PRIVATE) is first
        # Distinct keys get distinct entries, cached independently.
        other = f.plan(8, 2, PageType.VM_PRIVATE)
        assert other is not first
        assert f.plan(8, 2, PageType.VM_PRIVATE) is other

    def test_placement_invalidates(self):
        f = make_filter()
        before = f.plan(4, 1, PageType.VM_PRIVATE)
        assert before.attempts == (frozenset({4, 5, 6, 7}),)
        f.on_vcpu_placed(1, 12)  # domain grows -> version bump
        after = f.plan(4, 1, PageType.VM_PRIVATE)
        assert after is not before
        assert after.attempts == (frozenset({4, 5, 6, 7, 12}),)

    def test_residence_removal_invalidates(self):
        f = make_filter(policy=SnoopPolicy.VSNOOP_COUNTER)
        tracker = f.trackers[7]
        lines = [(i, 1) for i in range(3)]
        for line in lines:
            tracker.on_insert(*line)
        f.on_vcpu_displaced(1, 7)  # counter non-empty: core 7 stays
        before = f.plan(4, 1, PageType.VM_PRIVATE)
        assert 7 in before.attempts[0]
        for line in lines:  # drain to the watermark -> try_remove fires
            tracker.on_evict(*line)
        assert 7 not in f.domains.domain(1)
        after = f.plan(4, 1, PageType.VM_PRIVATE)
        assert after is not before
        assert after.attempts == (frozenset({4, 5, 6}),)

    def test_set_friend_invalidates(self):
        f = make_filter(content=ContentPolicy.FRIEND_VM)
        before = f.plan(4, 1, PageType.RO_SHARED)
        f.set_friend(1, 2)
        after = f.plan(4, 1, PageType.RO_SHARED)
        assert after is not before
        # The friend VM's domain joins the first attempt.
        assert frozenset({8, 9, 10, 11}) <= after.attempts[0]

    def test_swap_vcpus_invalidates(self):
        from repro.sim import SimConfig, build_system
        from repro.workloads import get_profile

        config = SimConfig(snoop_policy=SnoopPolicy.VSNOOP_BASE)
        system = build_system(config, get_profile("fft"))
        f = system.snoop_filter
        vm_a, vm_b = system.vms[0], system.vms[1]
        a, b = vm_a.vcpus[0], vm_b.vcpus[0]
        core_a, core_b = a.core, b.core
        before = f.plan(core_a, vm_a.vm_id, PageType.VM_PRIVATE)
        assert core_b not in before.attempts[0]
        system.hypervisor.swap_vcpus(a, b)
        after = f.plan(core_a, vm_a.vm_id, PageType.VM_PRIVATE)
        assert after is not before
        # vsnoop-base never removes: the domain grew to cover both cores.
        assert core_b in after.attempts[0]
        assert core_a in after.attempts[0]
