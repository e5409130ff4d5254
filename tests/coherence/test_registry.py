"""Tests for the token registry."""

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.registry import (
    GLOBAL_PROVIDER,
    MEMORY,
    TokenRegistry,
    cores_of,
    decode,
    encode,
    mask_of,
)


class TestGrants:
    def test_initially_memory_owned(self):
        reg = TokenRegistry()
        assert reg.owner_of(0x10) == MEMORY
        assert reg.sharers_of(0x10) == set()
        assert not reg.is_cached_anywhere(0x10)

    def test_grant_shared_adds_sharer_keeps_memory_owner(self):
        reg = TokenRegistry()
        reg.grant_shared(3, 0x10)
        assert reg.sharers_of(0x10) == {3}
        assert reg.owner_of(0x10) == MEMORY

    def test_grant_exclusive_takes_all_tokens(self):
        reg = TokenRegistry()
        reg.grant_shared(1, 0x10)
        reg.grant_shared(2, 0x10)
        victims = reg.grant_exclusive(3, 0x10)
        assert victims == {1, 2}
        assert reg.owner_of(0x10) == 3
        assert reg.sharers_of(0x10) == {3}
        assert reg.has_exclusive(3, 0x10)

    def test_upgrade_keeps_requester(self):
        reg = TokenRegistry()
        reg.grant_shared(1, 0x10)
        victims = reg.grant_exclusive(1, 0x10)
        assert victims == set()
        assert reg.has_exclusive(1, 0x10)


class TestEviction:
    def test_sharer_eviction_returns_tokens(self):
        reg = TokenRegistry()
        reg.grant_shared(1, 0x10)
        reg.grant_shared(2, 0x10)
        assert reg.evicted(1, 0x10, dirty=False) == "token_return"
        assert reg.sharers_of(0x10) == {2}

    def test_dirty_owner_eviction_writes_back(self):
        reg = TokenRegistry()
        reg.grant_exclusive(1, 0x10)
        assert reg.evicted(1, 0x10, dirty=True) == "writeback"
        assert reg.owner_of(0x10) == MEMORY
        assert not reg.is_cached_anywhere(0x10)

    def test_eviction_of_noncached_is_none(self):
        reg = TokenRegistry()
        assert reg.evicted(1, 0x10, dirty=False) == "none"

    def test_record_dropped_when_all_tokens_home(self):
        reg = TokenRegistry()
        reg.grant_shared(1, 0x10)
        reg.evicted(1, 0x10, dirty=False)
        assert len(reg) == 0

    def test_eviction_drops_provider_designation(self):
        reg = TokenRegistry()
        reg.grant_shared(1, 0x10, vm_id=7)
        assert reg.provider_for_vm(0x10, 7) == 1
        reg.grant_shared(2, 0x10, vm_id=8)
        reg.evicted(1, 0x10, dirty=False)
        assert reg.provider_for_vm(0x10, 7) is None
        assert reg.provider_for_vm(0x10, 8) == 2


class TestProviders:
    def test_first_copy_becomes_vm_provider(self):
        reg = TokenRegistry()
        reg.grant_shared(1, 0x10, vm_id=5)
        reg.grant_shared(2, 0x10, vm_id=5)
        assert reg.provider_for_vm(0x10, 5) == 1

    def test_global_provider_set_with_vm_provider(self):
        reg = TokenRegistry()
        reg.grant_shared(4, 0x10, vm_id=5)
        assert reg.provider_for_vm(0x10, GLOBAL_PROVIDER) == 4

    def test_grant_exclusive_clears_providers(self):
        reg = TokenRegistry()
        reg.grant_shared(1, 0x10, vm_id=5)
        reg.grant_exclusive(2, 0x10)
        assert reg.provider_for_vm(0x10, 5) is None


class TestFlush:
    def test_flush_returns_ownership_to_memory(self):
        reg = TokenRegistry()
        reg.grant_exclusive(1, 0x10)
        assert reg.flush_block_to_memory(0x10) is True
        assert reg.owner_of(0x10) == MEMORY
        assert reg.sharers_of(0x10) == {1}  # copy stays, now clean

    def test_flush_clean_block(self):
        reg = TokenRegistry()
        reg.grant_shared(1, 0x10)
        assert reg.flush_block_to_memory(0x10) is False

    def test_flush_unknown_block(self):
        reg = TokenRegistry()
        assert reg.flush_block_to_memory(0x99) is False


class TestEncoding:
    def test_sole_owner_values_are_small_ints(self):
        reg = TokenRegistry()
        for core in (0, 5, 15, 126):
            reg.grant_exclusive(core, 0x10, dirty=False)
            clean = reg._blocks[0x10]
            assert reg.write_hit(core, 0x10)
            dirty = reg._blocks[0x10]
            assert type(clean) is int and type(dirty) is int
            assert clean < 257 and dirty < 257
            # CPython preallocates ints up to 256: no object per record.
            assert clean is int(str(clean)) and dirty is int(str(dirty))
            assert decode(clean) == (1 << core, core, False)
            assert decode(dirty) == (1 << core, core, True)

    def test_one_sharer_record_holds_an_int_and_no_table(self):
        reg = TokenRegistry()
        reg.grant_shared(3, 0x10)
        assert type(reg._blocks[0x10]) is int
        assert decode(reg._blocks[0x10]) == (1 << 3, MEMORY, False)
        assert 0x10 not in reg._providers
        assert reg.state_of(0x10).providers is None

    def test_two_sharer_record_decodes_to_both_cores(self):
        reg = TokenRegistry()
        reg.grant_exclusive(9, 0x10)
        reg.grant_shared(2, 0x10)
        assert decode(reg._blocks[0x10]) == (mask_of([2, 9]), 9, True)
        assert reg.sharers_of(0x10) == {2, 9}
        state = reg.state_of(0x10)
        assert (state.sharers, state.owner, state.dirty) == (mask_of([2, 9]), 9, True)

    def test_encode_inverts_decode(self):
        for sharers, owner, dirty in [
            (0, MEMORY, False),
            (mask_of([0, 3]), MEMORY, False),
            (mask_of([3]), 3, True),
            (mask_of([1, 143]), 143, False),
            (mask_of([0, 7, 64, 143]), 7, True),
        ]:
            assert decode(encode(sharers, owner, dirty)) == (sharers, owner, dirty)

    def test_provider_table_goes_when_its_last_designation_does(self):
        reg = TokenRegistry()
        reg.grant_shared(2, 0x10)
        assert 0x10 not in reg._providers
        reg.grant_shared(1, 0x10, vm_id=5)
        assert reg._providers[0x10] == {5: 1, GLOBAL_PROVIDER: 1}
        assert reg.state_of(0x10).providers == {5: 1, GLOBAL_PROVIDER: 1}
        reg.grant_shared(3, 0x10, vm_id=6)
        assert reg._providers[0x10] == {5: 1, GLOBAL_PROVIDER: 1, 6: 3}
        reg.evicted(1, 0x10, dirty=False)
        assert reg._providers[0x10] == {6: 3}
        reg.evicted(3, 0x10, dirty=False)
        assert 0x10 not in reg._providers
        assert reg.state_of(0x10).providers is None
        assert reg.sharers_of(0x10) == {2}

    def test_mask_round_trip_is_ascending(self):
        cores = [143, 0, 7, 64]
        assert cores_of(mask_of(cores)) == [0, 7, 64, 143]
        assert cores_of(0) == []

    def test_sole_owner_grants_allocate_no_record(self):
        # The block keys exist first, so only the registry's own
        # storage is measured: its dict slots and, per record, whatever
        # object the value needs.
        blocks = [(1 << 40) + block for block in range(10_000)]
        reg = TokenRegistry()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index, block in enumerate(blocks):
                reg.grant_exclusive(index % 16, block, dirty=bool(index & 1))
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(reg) == len(blocks)
        assert grown / len(blocks) < 40, grown / len(blocks)


class SetModel:
    """The registry as plain sets and dicts: the reference encoding."""

    def __init__(self):
        self.records = {}  # block -> [sharers, owner, dirty, providers]

    def _record(self, block):
        return self.records.setdefault(block, [set(), MEMORY, False, {}])

    def grant_shared(self, core, block, vm_id=None):
        record = self._record(block)
        record[0].add(core)
        if vm_id is not None:
            record[3].setdefault(vm_id, core)
            record[3].setdefault(GLOBAL_PROVIDER, core)

    def grant_exclusive(self, core, block, dirty=True):
        record = self._record(block)
        invalidate = record[0] - {core}
        record[:] = [{core}, core, dirty, {}]
        return invalidate

    def evicted(self, core, block, dirty):
        record = self.records.get(block)
        if record is None or core not in record[0]:
            return "none"
        sharers, owner, was_dirty, providers = record
        sharers.discard(core)
        for vm_id in [v for v, c in providers.items() if c == core]:
            del providers[vm_id]
        outcome = "token_return"
        if owner == core:
            record[1] = MEMORY
            if was_dirty or dirty:
                outcome = "writeback"
                record[2] = False
        if not sharers and record[1] == MEMORY and not providers:
            del self.records[block]
        return outcome

    def drop_block(self, block):
        record = self.records.pop(block, None)
        return set(record[0]) if record is not None else set()


BLOCKS = range(2)
VMS = range(3)


def registry_ops(cores):
    """Random registry operations on ``cores`` and two blocks."""
    blocks = st.sampled_from(BLOCKS)
    vm_ids = st.sampled_from(VMS)
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("grant_shared"), cores, blocks, st.none() | vm_ids
            ),
            st.tuples(st.just("grant_exclusive"), cores, blocks, st.booleans()),
            st.tuples(st.just("evicted"), cores, blocks, st.booleans()),
            st.tuples(st.just("drop_block"), blocks),
        ),
        min_size=10,
        max_size=60,
    )


# Each example draws a few cores of the 9-socket consolidation geometry
# (0-143) and runs every operation on them, so most operations meet a
# core an earlier one touched.
core_pools = st.lists(st.integers(0, 143), min_size=1, max_size=4, unique=True)


@settings(max_examples=100, deadline=None)
@given(core_pools.flatmap(lambda pool: registry_ops(st.sampled_from(pool))))
def test_property_masks_agree_with_the_set_model(ops):
    reg = TokenRegistry()
    model = SetModel()
    for name, *args in ops:
        assert getattr(reg, name)(*args) == getattr(model, name)(*args), name
        assert len(reg) == len(model.records)
        for block in BLOCKS:
            state = reg.state_of(block)
            record = model.records.get(block)
            assert (state is None) == (record is None), (name, block)
            assert reg.sharers_of(block) == (record[0] if record else set())
            assert reg.owner_of(block) == (record[1] if record else MEMORY)
            for vm_id in (*VMS, GLOBAL_PROVIDER):
                assert reg.provider_for_vm(block, vm_id) == (
                    record[3].get(vm_id) if record else None
                )
            if state is not None:
                assert state.dirty == record[2]
                assert (state.sharers, state.owner) == (mask_of(record[0]), record[1])
                # Same provider order (snapshots write it), and no empty
                # table left behind.
                assert state.providers is None or state.providers
                assert list((state.providers or {}).items()) == list(
                    record[3].items()
                )
        # Every stored value decodes to its model record; none is 0.
        for block, value in reg._blocks.items():
            assert value != 0, (name, block)
            record = model.records[block]
            assert decode(value) == (mask_of(record[0]), record[1], record[2])
