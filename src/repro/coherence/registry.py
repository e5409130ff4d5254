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
  intra-VM / friend-VM requests.

Exact integer token counts are not tracked: every protocol decision in
the paper's experiments depends only on the sharer mask and the owner
(a GETS succeeds iff it reaches the owner; a GETM succeeds iff it
reaches every sharer), so they are the faithful abstraction.

Value format. The first three fields of a block are packed into one int,
its value in ``TokenRegistry._blocks``::

    others << SHARER_SHIFT | (owner + 1) << 1 | dirty

``others`` is the sharer mask without the owner's bit: a cache owner
always holds a copy, so its bit is implied by the owner field (and an
owner without a copy cannot be written down). ``owner + 1`` is 0 while
memory owns the block. A block with no state reads as 0, and a value
that returns to 0 is deleted, so ``_blocks`` holds exactly the blocks
some cache or a cache owner still holds. The common record, a block
held by its sole owner on core ``c``, is ``(c + 1) << 1 | dirty``
(:func:`sole_owner`): for ``c <= 126`` that is one of the small ints
CPython preallocates, so such a block costs its dict slot and nothing
else. Provider designations live in a side dict keyed by block
(``TokenRegistry._providers``), with an entry only while some
designation does. A designation names a core holding a copy and leaves
with it, so every table's block has a record. No table's block is
cache-owned: only an RO-shared read designates, memory owns an RO-shared
page's blocks (marking a page content-shared flushes its owners), and a
cache takes the owner token only by an exclusive grant, which drops the
table. The sanitizer checks both. :func:`decode` and
:meth:`TokenRegistry.state_of` unpack a value for the cold readers;
the batched kernel's bulk-miss seam is the one caller outside this
module that reads and writes raw values.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

MEMORY = -1
"""Pseudo-core id denoting the memory controller as token holder."""

GLOBAL_PROVIDER = -2
"""Pseudo-VM id keying the system-wide provider copy of an RO block.

Conventional snooping designates one provider copy per block in the whole
system; the per-VM designations of Section VI-B extend this. The global
designation is what a broadcast GETS on a content-shared page uses."""

SHARER_SHIFT = 12
"""Bit offset of the non-owner sharer mask in a packed value."""

OWNER_FIELD = (1 << (SHARER_SHIFT - 1)) - 1
"""Mask of the ``owner + 1`` field once a value is shifted right by one."""

MAX_CORES = OWNER_FIELD
"""Cores the value format can name as owner (ids 0 to ``MAX_CORES - 1``)."""


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


def sole_owner(core: int, dirty: bool = False) -> int:
    """The value of a block held only by its owner ``core``."""
    return (core + 1) << 1 | dirty


def encode(sharers: int, owner: int, dirty: bool) -> int:
    """Pack a sharer mask, owner and dirty bit (a cache owner is a sharer)."""
    if owner != MEMORY:
        sharers &= ~(1 << owner)
    return sharers << SHARER_SHIFT | (owner + 1) << 1 | dirty


def decode(value: int) -> Tuple[int, int, bool]:
    """The (sharer mask, owner, dirty) a packed value stands for."""
    field = value >> 1 & OWNER_FIELD
    # (1 << field) >> 1 is the owner's bit, or 0 while memory owns.
    return value >> SHARER_SHIFT | (1 << field) >> 1, field - 1, bool(value & 1)


class TokenState(NamedTuple):
    """A decoded registry record (:meth:`TokenRegistry.state_of`)."""

    sharers: int
    owner: int
    dirty: bool
    # vm_id -> designated provider core; None while none is designated.
    # The registry's own table: read it, do not edit it.
    providers: Optional[Dict[int, int]]


class TokenRegistry:
    """Token-coherence state for all blocks, plus sync with cache contents.

    The registry is the single source of truth for protocol state. The
    simulation engine keeps it consistent with cache contents by calling
    :meth:`evicted` whenever an L2 line leaves a cache.
    """

    def __init__(self) -> None:
        # block -> packed value (module docs); never 0.
        self._blocks: Dict[int, int] = {}
        # block -> {vm_id: provider core}; never empty.
        self._providers: Dict[int, Dict[int, int]] = {}

    def _store(self, block: int, value: int) -> None:
        if value:
            self._blocks[block] = value
        else:
            self._blocks.pop(block, None)

    def state_of(self, block: int) -> Optional[TokenState]:
        """The decoded record for ``block``, or ``None`` if it has none."""
        value = self._blocks.get(block, 0)
        providers = self._providers.get(block)
        if not value and providers is None:
            return None
        return TokenState(*decode(value), providers)

    def records(self) -> Iterator[Tuple[int, TokenState]]:
        """Every (block, decoded record), in registry order."""
        providers = self._providers
        for block, value in self._blocks.items():
            yield block, TokenState(*decode(value), providers.get(block))

    def load(
        self, records: Iterable[Tuple[int, int, int, bool, Dict[int, int]]]
    ) -> None:
        """Replace every record with ``records``, in order.

        Each is (block, sharer mask, owner, dirty, provider table); a
        warm-state restore writes a snapshot's records back this way.
        """
        self._blocks.clear()
        self._providers.clear()
        for block, sharers, owner, dirty, providers in records:
            self._store(block, encode(sharers, owner, dirty))
            if providers:
                self._providers[block] = providers

    # ------------------------------------------------------------------
    # Queries used by the protocol to decide transaction outcomes.
    # ------------------------------------------------------------------

    def owner_of(self, block: int) -> int:
        return (self._blocks.get(block, 0) >> 1 & OWNER_FIELD) - 1

    def sharers_of(self, block: int) -> Set[int]:
        return set(cores_of(decode(self._blocks.get(block, 0))[0]))

    def is_cached_anywhere(self, block: int) -> bool:
        # Any sharer bit or a cache owner (who holds a copy).
        return self._blocks.get(block, 0) >> 1 != 0

    def has_exclusive(self, core: int, block: int) -> bool:
        """Whether ``core`` holds all tokens (may write without a transaction)."""
        return self._blocks.get(block, 0) | 1 == sole_owner(core, True)

    def write_hit(self, core: int, block: int) -> bool:
        """Attempt a silent write: succeeds iff ``core`` holds all tokens.

        On success the block is marked dirty (E -> M and M -> M writes are
        silent in MOESI), so hypervisor-initiated flushes know memory is
        stale. Returns whether the write may proceed without a GETM.
        """
        dirty = sole_owner(core, True)
        if self._blocks.get(block, 0) | 1 == dirty:
            self._blocks[block] = dirty
            return True
        return False

    def provider_for_vm(self, block: int, vm_id: int) -> Optional[int]:
        """The designated intra-VM provider core of ``block`` for ``vm_id``."""
        providers = self._providers.get(block)
        return None if providers is None else providers.get(vm_id)

    # ------------------------------------------------------------------
    # State transitions applied by the protocol engine.
    # ------------------------------------------------------------------

    def grant_shared(self, core: int, block: int, vm_id: Optional[int] = None) -> None:
        """Complete a successful GETS: ``core`` joins the sharers.

        If ``vm_id`` is given and the block has no provider for that VM
        yet, ``core`` becomes the VM's provider (first copy brought into
        the VM, Section VI-B).
        """
        value = self._blocks.get(block, 0)
        if value >> 1 & OWNER_FIELD != core + 1:
            value |= 1 << (core + SHARER_SHIFT)
        self._blocks[block] = value
        if vm_id is not None:
            providers = self._providers.setdefault(block, {})
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
        sharers = decode(self._blocks.get(block, 0))[0]
        invalidate = set(cores_of(sharers & ~(1 << core)))
        self._blocks[block] = sole_owner(core, dirty)
        self._providers.pop(block, None)
        return invalidate

    def evicted(self, core: int, block: int, dirty: bool) -> str:
        """Record that ``core`` evicted ``block``.

        Returns what the eviction sends to memory: ``"writeback"`` when the
        owner token travels with dirty data, ``"token_return"`` when the
        owner token travels clean or a sharer returns plain tokens, or
        ``"none"`` when the core held no registry state (already
        invalidated).
        """
        value = self._blocks.get(block, 0)
        outcome = "token_return"
        if value >> 1 & OWNER_FIELD == core + 1:
            # The owner token goes home, with the data when either copy
            # is dirty; the other sharers keep theirs.
            if value & 1 or dirty:
                outcome = "writeback"
            value = value >> SHARER_SHIFT << SHARER_SHIFT
        elif value >> (core + SHARER_SHIFT) & 1:
            value ^= 1 << (core + SHARER_SHIFT)
        else:
            return "none"
        providers = self._providers.get(block)
        if providers is not None:
            for vm_id, provider in list(providers.items()):
                if provider == core:
                    # The designation leaves with the copy; the next copy
                    # brought into the VM takes it up (grant_shared).
                    del providers[vm_id]
            if not providers:
                del self._providers[block]
        # All tokens back at memory: the record goes, bounding memory use.
        self._store(block, value)
        return outcome

    def flush_block_to_memory(self, block: int) -> bool:
        """Force the owner token (and dirty data) back to memory.

        Used when the hypervisor marks a page content-shared: the paper
        flushes modified lines so memory holds a clean copy and can serve
        all RO-shared requests. Sharers keep their (now clean) copies.
        Returns ``True`` if a dirty copy was written back.
        """
        sharers, _, dirty = decode(self._blocks.get(block, 0))
        self._store(block, sharers << SHARER_SHIFT)
        return dirty

    def drop_block(self, block: int) -> Set[int]:
        """Forget a block entirely (hypervisor page-reassignment flush).

        Returns the sharers that held copies; the caller must invalidate
        their cache lines. Used when a host page is freed and may be
        recycled to another VM: stale copies would otherwise break the
        VM-private domain invariant.
        """
        self._providers.pop(block, None)
        return set(cores_of(decode(self._blocks.pop(block, 0))[0]))

    def __len__(self) -> int:
        return len(self._blocks)
