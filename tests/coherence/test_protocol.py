"""Tests for the token protocol engine."""

import pytest

from repro.cache.hierarchy import PrivateHierarchy
from repro.coherence.plan import RequestPlan
from repro.coherence.protocol import ProtocolError, TokenProtocol, TransactionResult
from repro.coherence.registry import GLOBAL_PROVIDER, TokenRegistry
from repro.interconnect.network import NetworkModel
from repro.interconnect.topology import MeshTopology
from repro.mem.controller import MemoryController
from repro.mem.pagetype import PageType

ALL = frozenset(range(16))


def make_protocol(num_cores=16):
    registry = TokenRegistry()
    network = NetworkModel(MeshTopology(4, 4))
    memory = MemoryController(latency=80, node=0)
    caches = {
        core: PrivateHierarchy(core, l1_size=4 * 64, l1_ways=2, l2_size=16 * 64, l2_ways=4)
        for core in range(num_cores)
    }
    protocol = TokenProtocol(registry, network, memory, caches)
    return protocol


def broadcast_plan(page_type=PageType.VM_PRIVATE):
    return RequestPlan.broadcast(ALL, page_type)


class TestGets:
    def test_cold_gets_served_by_memory(self):
        p = make_protocol()
        result = p.execute(5, 1, 0x100, is_write=False, plan=broadcast_plan())
        assert result.source == TransactionResult.SOURCE_MEMORY
        assert p.memory.data_reads == 1
        assert p.registry.sharers_of(0x100) == {5}
        assert result.latency >= 80

    def test_gets_from_cache_owner(self):
        p = make_protocol()
        # Core 2 writes the block, becoming owner.
        p.execute(2, 1, 0x100, is_write=True, plan=broadcast_plan())
        result = p.execute(5, 1, 0x100, is_write=False, plan=broadcast_plan())
        assert result.source == TransactionResult.SOURCE_CACHE
        assert p.stats.cache_to_cache == 1
        assert p.registry.sharers_of(0x100) == {2, 5}

    def test_gets_fails_when_owner_outside_destinations(self):
        p = make_protocol()
        p.execute(2, 1, 0x100, is_write=True, plan=broadcast_plan())
        narrow = RequestPlan(attempts=(frozenset({5, 6}),))
        with pytest.raises(ProtocolError):
            p.execute(5, 1, 0x100, is_write=False, plan=narrow)

    def test_gets_retry_then_broadcast_succeeds(self):
        p = make_protocol()
        p.execute(2, 1, 0x100, is_write=True, plan=broadcast_plan())
        fallback = RequestPlan(
            attempts=(frozenset({5, 6}), frozenset({5, 6}), ALL),
            last_is_persistent=True,
        )
        result = p.execute(5, 1, 0x100, is_write=False, plan=fallback)
        assert result.attempts_used == 3
        assert p.stats.retries == 2
        assert p.stats.persistent_requests == 1


class TestGetm:
    def test_getm_invalidates_sharers(self):
        p = make_protocol()
        for core in (1, 2, 3):
            p.execute(core, 1, 0x200, is_write=False, plan=broadcast_plan())
            p.caches[core].fill(0x200, vm_id=1)
        result = p.execute(4, 1, 0x200, is_write=True, plan=broadcast_plan())
        assert result.fill_dirty
        assert p.stats.invalidations == 3
        for core in (1, 2, 3):
            assert not p.caches[core].contains(0x200)
        assert p.registry.has_exclusive(4, 0x200)

    def test_getm_upgrade_no_data_transfer(self):
        p = make_protocol()
        p.execute(4, 1, 0x200, is_write=False, plan=broadcast_plan())
        result = p.execute(4, 1, 0x200, is_write=True, plan=broadcast_plan())
        assert result.source == TransactionResult.SOURCE_NONE
        assert p.stats.upgrades == 1

    def test_getm_fails_if_sharer_unreachable(self):
        p = make_protocol()
        p.execute(9, 1, 0x200, is_write=False, plan=broadcast_plan())
        narrow = RequestPlan(attempts=(frozenset({4, 5}),))
        with pytest.raises(ProtocolError):
            p.execute(4, 1, 0x200, is_write=True, plan=narrow)


class TestSnoopCounting:
    def test_broadcast_counts_all_cores(self):
        p = make_protocol()
        p.execute(5, 1, 0x300, is_write=False, plan=broadcast_plan())
        assert p.stats.snoops == 16

    def test_domain_multicast_counts_domain(self):
        p = make_protocol()
        plan = RequestPlan(attempts=(frozenset({4, 5, 6, 7}),))
        p.execute(5, 1, 0x300, is_write=False, plan=plan)
        assert p.stats.snoops == 4

    def test_memory_direct_counts_zero(self):
        p = make_protocol()
        plan = RequestPlan(
            attempts=(frozenset(),),
            page_type=PageType.RO_SHARED,
            provider_vms=(),
        )
        p.execute(5, 1, 0x300, is_write=False, plan=plan)
        assert p.stats.snoops == 0
        assert p.stats.ro_served_by_memory == 1


class TestRoShared:
    def ro_plan(self, attempts, provider_vms, intra=frozenset(), friend=frozenset()):
        return RequestPlan(
            attempts=attempts,
            page_type=PageType.RO_SHARED,
            provider_vms=provider_vms,
            stats_intra_domain=intra,
            stats_friend_domain=friend,
        )

    def test_first_reader_becomes_vm_provider(self):
        p = make_protocol()
        plan = self.ro_plan((frozenset({4, 5}),), (1,))
        p.execute(4, 1, 0x400, is_write=False, plan=plan)
        assert p.registry.provider_for_vm(0x400, 1) == 4

    def test_intra_vm_served_by_provider(self):
        p = make_protocol()
        plan = self.ro_plan((frozenset({4, 5}),), (1,))
        p.execute(4, 1, 0x400, is_write=False, plan=plan)
        result = p.execute(5, 1, 0x400, is_write=False, plan=plan)
        assert result.source == TransactionResult.SOURCE_CACHE
        assert p.stats.ro_served_by_cache == 1

    def test_ro_never_fails_falls_back_to_memory(self):
        p = make_protocol()
        # Another VM cached it, but our plan cannot reach that VM.
        other = self.ro_plan((frozenset({9}),), (2,))
        p.execute(9, 2, 0x400, is_write=False, plan=other)
        mine = self.ro_plan((frozenset({4, 5}),), (1,))
        result = p.execute(4, 1, 0x400, is_write=False, plan=mine)
        assert result.source == TransactionResult.SOURCE_MEMORY

    def test_friend_vm_provider_serves(self):
        p = make_protocol()
        friend_domain = frozenset({8, 9})
        p.execute(9, 2, 0x400, is_write=False, plan=self.ro_plan((friend_domain,), (2,)))
        merged = frozenset({4, 5}) | friend_domain
        plan = self.ro_plan((merged,), (1, 2))
        result = p.execute(4, 1, 0x400, is_write=False, plan=plan)
        assert result.source == TransactionResult.SOURCE_CACHE

    def test_holder_stats_decomposition(self):
        p = make_protocol()
        intra = frozenset({4, 5})
        friend = frozenset({8, 9})
        # Miss with no holder -> memory-only.
        p.execute(4, 1, 0x500, is_write=False, plan=self.ro_plan((intra,), (1,), intra, friend))
        # Second miss from friend domain: holder exists, in friend of VM2... use
        # a requester in VM 2 whose intra domain is {8,9} and friend {4,5}.
        p.execute(
            8, 2, 0x500, is_write=False,
            plan=self.ro_plan((frozenset({8, 9}),), (2,), frozenset({8, 9}), intra),
        )
        assert p.stats.ro_misses == 2
        assert p.stats.ro_holder_memory_only == 1
        assert p.stats.ro_holder_any_cache == 1
        assert p.stats.ro_holder_friend_vm == 1

    def test_global_provider_used_by_broadcast(self):
        p = make_protocol()
        plan1 = self.ro_plan((ALL,), (GLOBAL_PROVIDER,))
        p.execute(4, 1, 0x600, is_write=False, plan=plan1)
        result = p.execute(11, 2, 0x600, is_write=False, plan=plan1)
        assert result.source == TransactionResult.SOURCE_CACHE


class TestEvictionHandling:
    def test_dirty_eviction_writes_back(self):
        p = make_protocol()
        p.execute(2, 1, 0x700, is_write=True, plan=broadcast_plan())
        victim = p.caches[2].fill(0x700, vm_id=1, dirty=True)
        assert victim is None
        block, _, dirty = p.caches[2].invalidate(0x700)
        p.handle_eviction(2, block, dirty)
        assert p.memory.writebacks == 1
        assert not p.registry.is_cached_anywhere(0x700)

    def test_clean_eviction_returns_tokens(self):
        p = make_protocol()
        p.execute(2, 1, 0x700, is_write=False, plan=broadcast_plan())
        p.caches[2].fill(0x700, vm_id=1)
        block, _, dirty = p.caches[2].invalidate(0x700)
        p.handle_eviction(2, block, dirty)
        assert p.memory.token_returns == 1
