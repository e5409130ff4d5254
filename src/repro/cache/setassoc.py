"""Set-associative cache with true-LRU replacement.

Each set is a plain ``dict`` from block number to :class:`CacheLine`;
insertion order (guaranteed for dicts since Python 3.7) *is* the LRU
order, least- to most-recently used. A recency touch is therefore a
delete + reinsert, and the LRU victim is the first key in iteration
order. Plain dicts beat ``OrderedDict`` here: the doubly-linked list
``OrderedDict`` maintains costs ~2.5x per delete/reinsert pair, and the
touch is the single hottest cache operation in the simulator.

An optional :class:`CacheObserver` receives insert/evict/invalidate
events; the virtual-snooping residence counters
(:mod:`repro.core.residence`) are implemented as an observer so the
cache substrate stays protocol-agnostic.

:meth:`SetAssociativeCache.packed` exports a flat-list mirror of the
tag/LRU/dirty state for the structural self-check
(:meth:`validate_packed`) the kernel differential suite runs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.cache.line import CacheLine


class CacheObserver:
    """Callback interface for cache content changes.

    Subclasses override any subset of the hooks. All hooks receive the
    affected :class:`CacheLine` after the change has been applied.
    """

    def on_insert(self, line: CacheLine) -> None:
        """Called after a new line becomes resident."""

    def on_evict(self, line: CacheLine) -> None:
        """Called after a line is evicted by replacement."""

    def on_invalidate(self, line: CacheLine) -> None:
        """Called after a line is invalidated by a coherence action."""


class CompositeObserver(CacheObserver):
    """Fans cache events out to several observers (e.g. the virtual-
    snooping residence tracker plus a RegionScout region tracker)."""

    def __init__(self, *observers: CacheObserver) -> None:
        self.observers = list(observers)

    def on_insert(self, line: CacheLine) -> None:
        for observer in self.observers:
            observer.on_insert(line)

    def on_evict(self, line: CacheLine) -> None:
        for observer in self.observers:
            observer.on_evict(line)

    def on_invalidate(self, line: CacheLine) -> None:
        for observer in self.observers:
            observer.on_invalidate(line)


class SetAssociativeCache:
    """A single-level set-associative cache with LRU replacement.

    Capacity and geometry are specified directly in sets and ways; use
    :meth:`from_size` to derive geometry from a byte capacity.
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        block_size: int = 64,
        observer: Optional[CacheObserver] = None,
    ) -> None:
        if num_sets <= 0 or (num_sets & (num_sets - 1)) != 0:
            raise ValueError(f"num_sets must be a positive power of two, got {num_sets}")
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.num_sets = num_sets
        self.ways = ways
        self.block_size = block_size
        self.observer = observer
        self._sets: List[Dict[int, CacheLine]] = [{} for _ in range(num_sets)]
        self._set_mask = num_sets - 1

    @classmethod
    def from_size(
        cls,
        size_bytes: int,
        ways: int,
        block_size: int = 64,
        observer: Optional[CacheObserver] = None,
    ) -> "SetAssociativeCache":
        """Build a cache of ``size_bytes`` total capacity."""
        lines = size_bytes // block_size
        if lines % ways != 0:
            raise ValueError(
                f"{size_bytes} bytes / {block_size} B blocks is not divisible "
                f"by {ways} ways"
            )
        return cls(lines // ways, ways, block_size, observer)

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.ways

    def _set_for(self, block: int) -> Dict[int, CacheLine]:
        return self._sets[block & self._set_mask]

    def lookup(self, block: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line for ``block``, or ``None`` on miss.

        ``touch`` updates LRU recency on a hit.
        """
        cache_set = self._sets[block & self._set_mask]
        line = cache_set.get(block)
        if line is not None and touch:
            del cache_set[block]
            cache_set[block] = line
        return line

    def contains(self, block: int) -> bool:
        return block in self._set_for(block)

    def insert(self, block: int, vm_id: int, dirty: bool = False) -> Optional[CacheLine]:
        """Make ``block`` resident; return the evicted victim, if any.

        If the block is already resident its metadata is refreshed in
        place (no eviction, no insert event).
        """
        cache_set = self._sets[block & self._set_mask]
        existing = cache_set.get(block)
        if existing is not None:
            # Refresh recency/dirtiness but keep the allocating VM's tag:
            # retagging would silently desynchronise the per-VM residence
            # counters that observe insert/evict events.
            existing.dirty = existing.dirty or dirty
            del cache_set[block]
            cache_set[block] = existing
            return None
        victim = None
        if len(cache_set) >= self.ways:
            victim = cache_set.pop(next(iter(cache_set)))
            if self.observer is not None:
                self.observer.on_evict(victim)
        line = CacheLine(block, vm_id, dirty)
        cache_set[block] = line
        if self.observer is not None:
            self.observer.on_insert(line)
        return victim

    def peek_victim(self, block: int) -> Optional[CacheLine]:
        """The line :meth:`insert` of ``block`` would evict, or ``None``.

        Pure prediction: no LRU touch, no observer events, no state
        change. The batched kernel's bulk-miss seam uses this to prove a
        fill's replacement victim is legal (same-VM and clean) before
        committing to the fast path.
        """
        cache_set = self._sets[block & self._set_mask]
        if block in cache_set or len(cache_set) < self.ways:
            return None
        return next(iter(cache_set.values()))

    def invalidate(self, block: int) -> Optional[CacheLine]:
        """Remove ``block`` if resident; return the removed line."""
        cache_set = self._set_for(block)
        line = cache_set.pop(block, None)
        if line is not None and self.observer is not None:
            self.observer.on_invalidate(line)
        return line

    def mark_dirty(self, block: int) -> None:
        """Set the dirty bit of a resident block."""
        line = self._set_for(block).get(block)
        if line is None:
            raise KeyError(f"block {block:#x} not resident")
        line.dirty = True

    def lines(self) -> Iterator[CacheLine]:
        """Iterate over all resident lines (unspecified order)."""
        for cache_set in self._sets:
            yield from cache_set.values()

    def resident_count(self) -> int:
        return sum(len(s) for s in self._sets)

    def lines_of_vm(self, vm_id: int) -> List[CacheLine]:
        """All resident lines tagged with ``vm_id`` (for selective flush)."""
        return [line for line in self.lines() if line.vm_id == vm_id]

    def flush_vm(self, vm_id: int) -> List[CacheLine]:
        """Invalidate every line of ``vm_id``; return the removed lines."""
        removed = self.lines_of_vm(vm_id)
        for line in removed:
            self.invalidate(line.block)
        return removed

    # ------------------------------------------------------------------
    # Array-backed mirror.
    # ------------------------------------------------------------------

    def packed(self):
        """Flat-list mirror of the tag/LRU/dirty/VM state.

        Returns ``(tags, vm_ids, dirty)``, each of shape
        ``num_sets * ways`` flattened set-major: entry ``s * ways + w``
        describes the line at LRU position ``w`` (least- to most-recent)
        of set ``s``; empty ways hold ``-1`` tags.

        The dict sets stay the source of truth — the mirror is built on
        demand for :meth:`validate_packed`.
        """
        ways = self.ways
        size = self.num_sets * ways
        tags = [-1] * size
        vm_ids = [-1] * size
        dirty = [False] * size
        for set_index, cache_set in enumerate(self._sets):
            base = set_index * ways
            for way, line in enumerate(cache_set.values()):
                tags[base + way] = line.block
                vm_ids[base + way] = line.vm_id
                dirty[base + way] = line.dirty
        return tags, vm_ids, dirty

    def validate_packed(self) -> None:
        """Structural self-check through the packed mirror.

        Rebuilds :meth:`packed` and asserts the invariants any correct
        set-associative state satisfies: every resident tag indexes its
        own set, no set exceeds its way count, no tag appears twice in a
        set, and occupied ways are packed before empty ones (LRU order
        is a prefix). Raises ``AssertionError`` with a diagnostic on the
        first violation.
        """
        tags, _vm_ids, _dirty = self.packed()
        ways = self.ways
        mask = self._set_mask
        for set_index in range(self.num_sets):
            base = set_index * ways
            row = tags[base : base + ways]
            seen_empty = False
            occupied = []
            for way in range(ways):
                tag = int(row[way])
                if tag < 0:
                    seen_empty = True
                    continue
                assert not seen_empty, (
                    f"set {set_index}: occupied way {way} after an empty way"
                )
                assert (tag & mask) == set_index, (
                    f"set {set_index}: tag {tag:#x} belongs to set {tag & mask}"
                )
                occupied.append(tag)
            assert len(set(occupied)) == len(occupied), (
                f"set {set_index}: duplicate tags {occupied}"
            )
            assert len(occupied) == len(self._sets[set_index]), (
                f"set {set_index}: mirror has {len(occupied)} lines, "
                f"dict has {len(self._sets[set_index])}"
            )
