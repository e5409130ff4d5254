"""Set-associative cache with true-LRU replacement.

Each set is a plain ``dict`` from block number to the line's *tag*, an
int carrying the allocating VM's id and the dirty bit
(:mod:`repro.cache.line`); insertion order (guaranteed for dicts since
Python 3.7) *is* the LRU order, least- to most-recently used. A recency
touch is therefore a delete + reinsert, and the LRU victim is the first
key in iteration order. Plain dicts beat ``OrderedDict`` here: the
doubly-linked list ``OrderedDict`` maintains costs ~2.5x per
delete/reinsert pair, and the touch is the single hottest cache
operation in the simulator. Setting the dirty bit rewrites the value
under an existing key, which leaves the order alone.

A line that leaves a cache is reported as a ``(block, vm_id, dirty)``
tuple (:data:`Line`). An optional :class:`CacheObserver` receives
insert/evict/invalidate events; the virtual-snooping residence counters
(:mod:`repro.core.residence`) are implemented as an observer so the
cache substrate stays protocol-agnostic.

The batched kernel (:mod:`repro.sim.kernel`) spells lookup, touch and
fill directly on these set dicts; the kernel differential suites compare
every set's contents and LRU order against the reference engine's at
the end of each run.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.cache.line import DIRTY, make_tag, tag_dirty, tag_vm

Line = Tuple[int, int, bool]
"""A line as ``(block, vm_id, dirty)``: a victim, or one of :meth:`lines`."""


class CacheObserver:
    """Callback interface for cache content changes.

    Subclasses override any subset of the hooks. All hooks receive the
    affected block and the VM id its tag carries, after the change has
    been applied.
    """

    def on_insert(self, block: int, vm_id: int) -> None:
        """Called after a new line becomes resident."""

    def on_evict(self, block: int, vm_id: int) -> None:
        """Called after a line is evicted by replacement."""

    def on_invalidate(self, block: int, vm_id: int) -> None:
        """Called after a line is invalidated by a coherence action."""


class CompositeObserver(CacheObserver):
    """Fans cache events out to several observers (e.g. the virtual-
    snooping residence tracker plus a RegionScout region tracker)."""

    def __init__(self, *observers: CacheObserver) -> None:
        self.observers = list(observers)

    def on_insert(self, block: int, vm_id: int) -> None:
        for observer in self.observers:
            observer.on_insert(block, vm_id)

    def on_evict(self, block: int, vm_id: int) -> None:
        for observer in self.observers:
            observer.on_evict(block, vm_id)

    def on_invalidate(self, block: int, vm_id: int) -> None:
        for observer in self.observers:
            observer.on_invalidate(block, vm_id)


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
        self._sets: List[Dict[int, int]] = [{} for _ in range(num_sets)]
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

    def _set_for(self, block: int) -> Dict[int, int]:
        return self._sets[block & self._set_mask]

    def lookup(self, block: int, touch: bool = True) -> Optional[int]:
        """Return the resident tag for ``block``, or ``None`` on miss.

        ``touch`` updates LRU recency on a hit.
        """
        cache_set = self._sets[block & self._set_mask]
        tag = cache_set.get(block)
        if tag is not None and touch:
            del cache_set[block]
            cache_set[block] = tag
        return tag

    def contains(self, block: int) -> bool:
        return block in self._set_for(block)

    def insert(self, block: int, vm_id: int, dirty: bool = False) -> Optional[Line]:
        """Make ``block`` resident; return the evicted victim, if any.

        If the block is already resident its recency and dirty bit are
        refreshed in place (no eviction, no insert event).
        """
        cache_set = self._sets[block & self._set_mask]
        existing = cache_set.get(block)
        if existing is not None:
            # Refresh recency/dirtiness but keep the allocating VM's tag:
            # retagging would silently desynchronise the per-VM residence
            # counters that observe insert/evict events.
            del cache_set[block]
            cache_set[block] = existing | dirty
            return None
        victim: Optional[Line] = None
        if len(cache_set) >= self.ways:
            victim_block = next(iter(cache_set))
            tag = cache_set.pop(victim_block)
            victim_vm = tag_vm(tag)
            victim = (victim_block, victim_vm, tag_dirty(tag))
            if self.observer is not None:
                self.observer.on_evict(victim_block, victim_vm)
        cache_set[block] = make_tag(vm_id, dirty)
        if self.observer is not None:
            self.observer.on_insert(block, vm_id)
        return victim

    def invalidate(self, block: int) -> Optional[Line]:
        """Remove ``block`` if resident; return the removed line."""
        tag = self._set_for(block).pop(block, None)
        if tag is None:
            return None
        vm_id = tag_vm(tag)
        if self.observer is not None:
            self.observer.on_invalidate(block, vm_id)
        return (block, vm_id, tag_dirty(tag))

    def mark_dirty(self, block: int) -> None:
        """Set the dirty bit of a resident block."""
        cache_set = self._set_for(block)
        if block not in cache_set:
            raise KeyError(f"block {block:#x} not resident")
        cache_set[block] |= DIRTY

    def lines(self) -> Iterator[Line]:
        """Iterate over all resident lines (sets in order, each LRU first)."""
        for cache_set in self._sets:
            for block, tag in cache_set.items():
                yield block, tag_vm(tag), tag_dirty(tag)

    def resident_count(self) -> int:
        return sum(len(s) for s in self._sets)
