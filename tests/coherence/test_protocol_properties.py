"""Property-based tests: protocol invariants under random operation mixes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import PrivateHierarchy
from repro.coherence.plan import RequestPlan
from repro.coherence.protocol import TokenProtocol
from repro.coherence.registry import MEMORY, TokenRegistry
from repro.interconnect.network import NetworkModel
from repro.interconnect.topology import MeshTopology
from repro.mem.controller import MemoryController

NUM_CORES = 4
ALL = frozenset(range(NUM_CORES))


def build():
    registry = TokenRegistry()
    caches = {
        core: PrivateHierarchy(
            core, l1_size=2 * 64, l1_ways=2, l2_size=8 * 64, l2_ways=2
        )
        for core in range(NUM_CORES)
    }
    protocol = TokenProtocol(
        registry,
        NetworkModel(MeshTopology(2, 2)),
        MemoryController(node=0),
        caches,
    )
    return protocol


operations = st.lists(
    st.tuples(
        st.integers(0, NUM_CORES - 1),  # core
        st.integers(0, 9),  # block
        st.booleans(),  # is_write
    ),
    min_size=1,
    max_size=60,
)


def check_invariants(protocol):
    registry = protocol.registry
    for block in range(10):
        state = registry.state_of(block)
        if state is None:
            continue
        sharers = registry.sharers_of(block)
        # The owner is a sharer or memory.
        assert state.owner == MEMORY or state.owner in sharers
        # Every registry sharer holds the block in its L2 and vice versa.
        for core in range(NUM_CORES):
            cached = protocol.caches[core].l2.contains(block)
            assert cached == (core in sharers), (
                f"block {block}: cache[{core}]={cached} but sharers="
                f"{sorted(sharers)}"
            )


@settings(max_examples=60, deadline=None)
@given(operations)
def test_property_registry_cache_coherent(ops):
    """Registry and cache contents stay mutually consistent."""
    protocol = build()
    plan = RequestPlan.broadcast(ALL, __import__("repro.mem.pagetype", fromlist=["PageType"]).PageType.VM_PRIVATE)
    for core, block, is_write in ops:
        hierarchy = protocol.caches[core]
        if hierarchy.l2.contains(block):
            if is_write and not protocol.registry.write_hit(core, block):
                protocol.execute(core, 1, block, True, plan)
            continue
        result = protocol.execute(core, 1, block, is_write, plan)
        victim = hierarchy.fill(block, vm_id=1, dirty=is_write or result.fill_dirty)
        if victim is not None:
            protocol.handle_eviction(core, victim[0], victim[2])
        check_invariants(protocol)


@settings(max_examples=60, deadline=None)
@given(operations)
def test_property_single_writer(ops):
    """After a write, exactly one cache may hold the block."""
    protocol = build()
    from repro.mem.pagetype import PageType

    plan = RequestPlan.broadcast(ALL, PageType.VM_PRIVATE)
    for core, block, is_write in ops:
        hierarchy = protocol.caches[core]
        if not hierarchy.l2.contains(block):
            result = protocol.execute(core, 1, block, is_write, plan)
            victim = hierarchy.fill(block, 1, dirty=is_write or result.fill_dirty)
            if victim is not None:
                protocol.handle_eviction(core, victim[0], victim[2])
        elif is_write and not protocol.registry.write_hit(core, block):
            protocol.execute(core, 1, block, True, plan)
        if is_write:
            assert protocol.registry.has_exclusive(core, block)
            holders = [
                c for c in range(NUM_CORES)
                if protocol.caches[c].l2.contains(block)
            ]
            assert holders == [core]
