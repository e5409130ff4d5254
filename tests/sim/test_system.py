"""Tests for the full-system builder."""

from repro.coherence.registry import MEMORY, TokenRegistry
from repro.core.filter import SnoopPolicy
from repro.hypervisor.memory import MemoryManager
from repro.interconnect.messages import MessageKind
from repro.mem.address import AddressLayout
from repro.mem.controller import MemoryController
from repro.mem.pagetype import PageType
from repro.mem.physical import HostMemory
from repro.sim.config import SimConfig
from repro.sim.stats import SimStats
from repro.sim.system import CoherenceBridge, compute_friends, build_system
from repro.workloads import get_profile


def small_config(**kw):
    defaults = dict(accesses_per_vcpu=100, warmup_accesses_per_vcpu=50)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestBuild:
    def test_builds_all_components(self):
        system = build_system(small_config(), get_profile("fft"))
        assert len(system.caches) == 16
        assert len(system.vms) == 4
        assert len(system.workloads) == 4
        assert system.topology.num_nodes == 16

    def test_initial_placement_contiguous(self):
        system = build_system(small_config(), get_profile("fft"))
        for vm_index, vm in enumerate(system.vms):
            cores = sorted(vm.cores_in_use())
            assert cores == list(range(vm_index * 4, vm_index * 4 + 4))

    def test_snoop_domains_match_placement(self):
        system = build_system(small_config(), get_profile("fft"))
        for vm_index, vm in enumerate(system.vms):
            domain = system.snoop_filter.domains.domain(vm.vm_id)
            assert domain == frozenset(range(vm_index * 4, vm_index * 4 + 4))

    def test_content_sharing_creates_ro_pages(self):
        system = build_system(
            small_config(content_sharing_enabled=True), get_profile("fft")
        )
        shared = list(system.hypervisor.memory.iter_shared_pages())
        assert shared
        # Every VM shares the content pages.
        for _, sharers in shared:
            assert len(sharers) == 4

    def test_content_sharing_disabled_no_ro_pages(self):
        system = build_system(small_config(), get_profile("fft"))
        assert list(system.hypervisor.memory.iter_shared_pages()) == []

    def test_friends_assigned_when_sharing(self):
        system = build_system(
            small_config(content_sharing_enabled=True), get_profile("fft")
        )
        for vm in system.vms:
            assert system.snoop_filter.friend_of(vm.vm_id) is not None

    def test_residence_trackers_attached_to_l2(self):
        system = build_system(small_config(), get_profile("fft"))
        for core, hierarchy in system.caches.items():
            assert hierarchy.l2.observer is system.snoop_filter.trackers[core]


class TestComputeFriends:
    def make_manager(self):
        manager = MemoryManager(HostMemory(64))
        for vm in (1, 2, 3):
            manager.create_address_space(vm)
        return manager

    def test_most_shared_wins(self):
        manager = self.make_manager()
        manager.share_content([(1, 10), (2, 10)])
        manager.share_content([(1, 11), (2, 11)])
        manager.share_content([(1, 12), (3, 12)])
        friends = compute_friends(manager, [1, 2, 3])
        assert friends[1] == 2
        assert friends[2] == 1
        assert friends[3] == 1

    def test_no_sharing_no_friend(self):
        manager = self.make_manager()
        assert compute_friends(manager, [1, 2, 3]) == {}

    def test_phase_breaks_ties(self):
        manager = self.make_manager()
        manager.share_content([(1, 10), (2, 10), (3, 10)])
        friends = compute_friends(
            manager, [1, 2, 3], stream_phases={1: 0, 2: 100, 3: 5}
        )
        assert friends[1] == 3  # phase 5 nearer than phase 100
        assert friends[3] == 1


class RecordingNetwork:
    def __init__(self):
        self.sends = []

    def send(self, src, dst, kind, cycle=0):
        self.sends.append((src, dst, kind))
        return 0


class TestCoherenceBridge:
    def test_page_share_writeback_is_sent_by_the_owner(self):
        registry = TokenRegistry()
        memory_ctrl = MemoryController(node=3)
        network = RecordingNetwork()
        layout = AddressLayout()
        stats = SimStats()
        bridge = CoherenceBridge(registry, memory_ctrl, network, layout, stats)
        block = layout.block_in_page(5, 0)
        # Core 6 owns the dirty block (O state); core 1 shares a copy.
        registry.grant_exclusive(6, block)
        registry.grant_shared(1, block)
        bridge.on_page_shared(5)
        assert network.sends == [(6, 3, MessageKind.WRITEBACK)]
        assert memory_ctrl.writebacks == 1
        assert stats.flush_writebacks == 1
        assert registry.owner_of(block) == MEMORY
        assert registry.sharers_of(block) == {1, 6}
