"""Per-core private cache hierarchy (L1 data cache + private L2).

The paper assumes a private L1 and L2 per core (Section IV-A) with
coherence maintained among the private L2s. The L1 here is strictly
inclusive in the L2: filling the L2 fills the L1, evicting or invalidating
an L2 line removes any L1 copy. Only the L2 carries the virtual-snooping
residence observer, matching the paper's per-L2 residence counters.

Both levels hold int tags (:mod:`repro.cache.line`), not line objects:
a line that leaves the hierarchy is reported as a ``(block, vm_id,
dirty)`` tuple.

Latencies follow Table II: 2-cycle L1, 10-cycle L2.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.setassoc import CacheObserver, Line, SetAssociativeCache


class AccessResult:
    """Outcome of a local hierarchy access (before any coherence action)."""

    __slots__ = ("level", "latency", "hit")

    L1 = "l1"
    L2 = "l2"
    MISS = "miss"

    def __init__(self, level: str, latency: int) -> None:
        self.level = level
        self.latency = latency
        # Plain attribute, not a property: the reference engine reads
        # `hit` once per simulated access.
        self.hit = level != AccessResult.MISS

    def __repr__(self) -> str:
        return f"AccessResult({self.level}, {self.latency}cyc)"


class PrivateHierarchy:
    """L1 + private L2 for one core."""

    def __init__(
        self,
        core_id: int,
        l1_size: int = 32 * 1024,
        l1_ways: int = 4,
        l2_size: int = 256 * 1024,
        l2_ways: int = 8,
        block_size: int = 64,
        l1_latency: int = 2,
        l2_latency: int = 10,
        l2_observer: Optional[CacheObserver] = None,
    ) -> None:
        self.core_id = core_id
        self.l1 = SetAssociativeCache.from_size(l1_size, l1_ways, block_size)
        self.l2 = SetAssociativeCache.from_size(
            l2_size, l2_ways, block_size, observer=l2_observer
        )
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.l1_hits = 0
        self.l2_hits = 0
        self.misses = 0
        # The three possible access outcomes are value-identical for the
        # hierarchy's lifetime; reusing them avoids one allocation per
        # simulated access (callers never mutate results).
        self._l1_result = AccessResult(AccessResult.L1, l1_latency)
        self._l2_result = AccessResult(AccessResult.L2, l1_latency + l2_latency)
        self._miss_result = AccessResult(AccessResult.MISS, l1_latency + l2_latency)
        # Direct references into both caches' set arrays, fixed for the
        # cache's lifetime: the batched kernel's call-free copy of
        # `access` and `fill` indexes them directly, and the system
        # snapshot captures and restores them in place.
        self._l1_sets = self.l1._sets
        self._l1_mask = self.l1._set_mask
        self._l1_ways = self.l1.ways
        self._l2_sets = self.l2._sets
        self._l2_mask = self.l2._set_mask
        self._l2_ways = self.l2.ways
        # The batched kernel's copy of the L1 promote and fill assumes the
        # L1 carries no observer (only the L2 has one — the residence
        # counters).
        assert self.l1.observer is None

    def access(self, block: int, vm_id: int, is_write: bool) -> AccessResult:
        """Look up ``block`` locally, updating recency and hit counters.

        On an L2 hit the block is promoted into the L1. A miss performs no
        allocation — the caller runs the coherence transaction and then
        calls :meth:`fill`. The batched kernel spells the same operations,
        in the same order, on the set dicts directly.
        """
        if self.l1.lookup(block) is not None:
            self.l1_hits += 1
            if is_write:
                self.l1.mark_dirty(block)
                self.l2.mark_dirty(block)
            return self._l1_result
        if self.l2.lookup(block) is not None:
            self.l2_hits += 1
            if is_write:
                self.l2.mark_dirty(block)
            self.l1.insert(block, vm_id, dirty=is_write)
            return self._l2_result
        self.misses += 1
        return self._miss_result

    def fill(self, block: int, vm_id: int, dirty: bool = False) -> Optional[Line]:
        """Install ``block`` after a coherence transaction completed.

        Returns the L2 victim's ``(block, vm_id, dirty)`` if the fill
        caused a replacement; the caller is responsible for writing back
        dirty victims and returning their tokens. Inclusion is enforced:
        the victim's L1 copy is dropped silently.
        """
        victim = self.l2.insert(block, vm_id, dirty=dirty)
        if victim is not None:
            self.l1.invalidate(victim[0])
        self.l1.insert(block, vm_id, dirty=dirty)
        return victim

    def invalidate(self, block: int) -> Optional[Line]:
        """Invalidate ``block`` in both levels (coherence invalidation).

        Returns the L2 line's ``(block, vm_id, dirty)``, or ``None`` if
        the block was not resident.
        """
        self.l1.invalidate(block)
        return self.l2.invalidate(block)

    def contains(self, block: int) -> bool:
        """Whether ``block`` is resident (L2 inclusion makes L2 decisive)."""
        return self.l2.contains(block)

    @property
    def total_accesses(self) -> int:
        return self.l1_hits + self.l2_hits + self.misses
