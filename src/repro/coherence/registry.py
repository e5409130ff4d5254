"""Global token-coherence state: who holds tokens, who owns, who provides.

Token Coherence (Martin et al., ISCA 2003) associates a fixed number of
tokens with every block; a cache may read a block while holding at least
one token and write it only while holding all tokens, one of which is the
*owner token* that obliges its holder to respond with data. This registry
keeps the abstract per-block state the evaluation needs:

* ``sharers`` — the cores whose (L2) cache holds a valid copy, as a
  bitmask (bit ``c`` set iff core ``c`` holds one),
* ``owner`` — the core holding the owner token, or ``MEMORY`` when the
  owner token (and an up-to-date copy) resides at the memory controller,
* ``dirty`` — whether the memory copy is stale,
* ``providers`` — for content-shared (RO-shared) blocks, the per-VM
  provider designation of Section VI-B: the one copy per VM that answers
  intra-VM / friend-VM requests. ``None`` while no copy is designated,
  so a block that is never content-shared carries no table.

Exact integer token counts are not tracked: every protocol decision in
the paper's experiments depends only on the sharer mask and the owner
(a GETS succeeds iff it reaches the owner; a GETM succeeds iff it
reaches every sharer), so they are the faithful abstraction. A mask is
the hardware's own spelling of a core set and costs one int per record
where a one-element ``set`` cost ~200 bytes. The query API below still
speaks in cores (:func:`cores_of` decodes a mask in ascending order).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

MEMORY = -1
"""Pseudo-core id denoting the memory controller as token holder."""

GLOBAL_PROVIDER = -2
"""Pseudo-VM id keying the system-wide provider copy of an RO block.

Conventional snooping designates one provider copy per block in the whole
system; the per-VM designations of Section VI-B extend this. The global
designation is what a broadcast GETS on a content-shared page uses."""


def mask_of(cores: Iterable[int]) -> int:
    """The bitmask of ``cores`` (bit ``c`` set iff ``c`` is among them)."""
    mask = 0
    for core in cores:
        mask |= 1 << core
    return mask


def cores_of(mask: int) -> List[int]:
    """The cores of a sharer mask, in ascending order."""
    cores = []
    while mask:
        low = mask & -mask
        cores.append(low.bit_length() - 1)
        mask ^= low
    return cores


class BlockState:
    """Registry record for one block that has ever been cached."""

    __slots__ = ("sharers", "owner", "dirty", "providers")

    def __init__(self) -> None:
        self.sharers: int = 0
        self.owner: int = MEMORY
        self.dirty: bool = False
        # vm_id -> core currently designated data provider for that VM;
        # None unless a content-shared grant designated one (a table
        # whose last designation leaves goes back to None).
        self.providers: Optional[Dict[int, int]] = None

    def __repr__(self) -> str:
        return (
            f"BlockState(sharers={cores_of(self.sharers)}, owner={self.owner}, "
            f"dirty={self.dirty})"
        )


class TokenRegistry:
    """Token-coherence state for all blocks, plus sync with cache contents.

    The registry is the single source of truth for protocol state. The
    simulation engine keeps it consistent with cache contents by calling
    :meth:`evicted` whenever an L2 line leaves a cache.
    """

    def __init__(self) -> None:
        self._blocks: Dict[int, BlockState] = {}

    def state_of(self, block: int) -> Optional[BlockState]:
        """The record for ``block``, or ``None`` if never cached / all evicted."""
        return self._blocks.get(block)

    def _get_or_create(self, block: int) -> BlockState:
        state = self._blocks.get(block)
        if state is None:
            state = BlockState()
            self._blocks[block] = state
        return state

    # ------------------------------------------------------------------
    # Queries used by the protocol to decide transaction outcomes.
    # ------------------------------------------------------------------

    def owner_of(self, block: int) -> int:
        state = self._blocks.get(block)
        return state.owner if state is not None else MEMORY

    def sharers_of(self, block: int) -> Set[int]:
        state = self._blocks.get(block)
        return set(cores_of(state.sharers)) if state is not None else set()

    def is_cached_anywhere(self, block: int) -> bool:
        state = self._blocks.get(block)
        return state is not None and bool(state.sharers)

    def has_exclusive(self, core: int, block: int) -> bool:
        """Whether ``core`` holds all tokens (may write without a transaction)."""
        state = self._blocks.get(block)
        return (
            state is not None
            and state.owner == core
            and state.sharers == 1 << core
        )

    def write_hit(self, core: int, block: int) -> bool:
        """Attempt a silent write: succeeds iff ``core`` holds all tokens.

        On success the block is marked dirty (E -> M and M -> M writes are
        silent in MOESI), so hypervisor-initiated flushes know memory is
        stale. Returns whether the write may proceed without a GETM.
        """
        state = self._blocks.get(block)
        if (
            state is not None
            and state.owner == core
            and state.sharers == 1 << core
        ):
            state.dirty = True
            return True
        return False

    def provider_for_vm(self, block: int, vm_id: int) -> Optional[int]:
        """The designated intra-VM provider core of ``block`` for ``vm_id``."""
        state = self._blocks.get(block)
        if state is None or state.providers is None:
            return None
        return state.providers.get(vm_id)

    # ------------------------------------------------------------------
    # State transitions applied by the protocol engine.
    # ------------------------------------------------------------------

    def grant_shared(self, core: int, block: int, vm_id: Optional[int] = None) -> None:
        """Complete a successful GETS: ``core`` joins the sharers.

        If ``vm_id`` is given and the block has no provider for that VM
        yet, ``core`` becomes the VM's provider (first copy brought into
        the VM, Section VI-B).
        """
        state = self._get_or_create(block)
        state.sharers |= 1 << core
        if vm_id is not None:
            providers = state.providers
            if providers is None:
                providers = state.providers = {}
            providers.setdefault(vm_id, core)
            providers.setdefault(GLOBAL_PROVIDER, core)

    def grant_exclusive(self, core: int, block: int, dirty: bool = True) -> Set[int]:
        """Grant ``core`` all tokens.

        ``dirty=True`` is a GETM (M state); ``dirty=False`` is the MOESI
        E state: a GETS that found no cached copy receives every token
        with clean data, so the first store needs no later upgrade.
        Returns the set of cores that must invalidate their copies (all
        previous sharers except the requester).
        """
        state = self._get_or_create(block)
        bit = 1 << core
        invalidate = set(cores_of(state.sharers & ~bit))
        state.sharers = bit
        state.owner = core
        state.dirty = dirty
        state.providers = None
        return invalidate

    def evicted(self, core: int, block: int, dirty: bool) -> str:
        """Record that ``core`` evicted ``block``.

        Returns what the eviction sends to memory: ``"writeback"`` when the
        owner token travels with dirty data, ``"token_return"`` when the
        owner token travels clean or a sharer returns plain tokens, or
        ``"none"`` when the core held no registry state (already
        invalidated).
        """
        state = self._blocks.get(block)
        bit = 1 << core
        if state is None or not state.sharers & bit:
            return "none"
        state.sharers ^= bit
        providers = state.providers
        if providers is not None:
            for vm_id, provider in list(providers.items()):
                if provider == core:
                    # The designation leaves with the copy; the next copy
                    # brought into the VM takes it up (grant_shared).
                    del providers[vm_id]
            if not providers:
                state.providers = None
        outcome = "token_return"
        if state.owner == core:
            state.owner = MEMORY
            if state.dirty or dirty:
                outcome = "writeback"
                state.dirty = False
        if not state.sharers:
            # All tokens back at memory: drop the record to bound memory use.
            if state.owner == MEMORY and state.providers is None:
                del self._blocks[block]
        return outcome

    def invalidated(self, core: int, block: int) -> None:
        """Record a coherence invalidation of ``core``'s copy (tokens move
        to the GETM requester, handled by :meth:`grant_exclusive`)."""
        state = self._blocks.get(block)
        if state is not None:
            state.sharers &= ~(1 << core)

    def flush_block_to_memory(self, block: int) -> bool:
        """Force the owner token (and dirty data) back to memory.

        Used when the hypervisor marks a page content-shared: the paper
        flushes modified lines so memory holds a clean copy and can serve
        all RO-shared requests. Sharers keep their (now clean) copies.
        Returns ``True`` if a dirty copy was written back.
        """
        state = self._blocks.get(block)
        if state is None:
            return False
        was_dirty = state.dirty
        state.owner = MEMORY
        state.dirty = False
        return was_dirty

    def drop_block(self, block: int) -> Set[int]:
        """Forget a block entirely (hypervisor page-reassignment flush).

        Returns the sharers that held copies; the caller must invalidate
        their cache lines. Used when a host page is freed and may be
        recycled to another VM: stale copies would otherwise break the
        VM-private domain invariant.
        """
        state = self._blocks.pop(block, None)
        return set(cores_of(state.sharers)) if state is not None else set()

    def assign_provider(self, block: int, vm_id: int, core: int) -> None:
        """Explicitly designate ``core`` as the provider of ``block`` for VM."""
        state = self._get_or_create(block)
        if state.providers is None:
            state.providers = {}
        state.providers[vm_id] = core

    def blocks_cached_by(self, core: int) -> Iterable[int]:
        """All blocks whose registry state includes ``core`` (slow; tests)."""
        bit = 1 << core
        return [b for b, s in self._blocks.items() if s.sharers & bit]

    def __len__(self) -> int:
        return len(self._blocks)
