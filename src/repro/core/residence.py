"""Per-VM cache residence counters (Section IV-B).

Each L2 keeps one counter per VM, counting the VM-private blocks resident
in that cache. The cache tag's VM identifier drives the bookkeeping:
inserts increment, evictions and invalidations decrement. When a counter
reaches zero — or falls under a threshold for the speculative
counter-threshold policy — the core can be dropped from that VM's vCPU
map, restoring filter efficiency after a migration.

The tracker is a :class:`~repro.cache.setassoc.CacheObserver`, so it sees
every L2 content change without the cache knowing about virtual snooping.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.cache.setassoc import CacheObserver

# vm_id used for lines brought in by the hypervisor / dom0; never tracked
# in snoop domains (their pages are RW-shared and always broadcast).
UNTRACKED_VM = -1

LowWatermarkHook = Callable[[int, int, int], None]
"""Callback (core, vm_id, count) fired when a counter hits/crosses low."""


class ResidenceTracker(CacheObserver):
    """Residence counters for one core's L2.

    ``on_low`` fires whenever a decrement leaves a VM's count at or below
    ``threshold`` (so ``threshold=0`` fires exactly on empty). The domain
    manager decides whether a removal is actually allowed (the VM may
    still be running on the core).
    """

    def __init__(
        self,
        core_id: int,
        threshold: int = 0,
        on_low: Optional[LowWatermarkHook] = None,
    ) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self.core_id = core_id
        self.threshold = threshold
        self.on_low = on_low
        self._counts: Dict[int, int] = {}

    def count(self, vm_id: int) -> int:
        return self._counts.get(vm_id, 0)

    def counts(self) -> Dict[int, int]:
        return dict(self._counts)

    def is_empty_for(self, vm_id: int) -> bool:
        return self.count(vm_id) == 0

    def below_threshold(self, vm_id: int) -> bool:
        """Whether the counter permits removal under the active policy."""
        return self.count(vm_id) <= self.threshold

    # ------------------------------------------------------------------
    # CacheObserver interface.
    # ------------------------------------------------------------------

    def on_insert(self, block: int, vm_id: int) -> None:
        if vm_id == UNTRACKED_VM:
            return
        self._counts[vm_id] = self._counts.get(vm_id, 0) + 1

    def on_evict(self, block: int, vm_id: int) -> None:
        self._decrement(vm_id)

    def on_invalidate(self, block: int, vm_id: int) -> None:
        self._decrement(vm_id)

    def _decrement(self, vm_id: int) -> None:
        if vm_id == UNTRACKED_VM:
            return
        current = self._counts.get(vm_id, 0)
        if current <= 0:
            raise RuntimeError(
                f"residence counter underflow for VM {vm_id} on core "
                f"{self.core_id}"
            )
        current -= 1
        if current == 0:
            del self._counts[vm_id]
        else:
            self._counts[vm_id] = current
        if current <= self.threshold and self.on_low is not None:
            self.on_low(self.core_id, vm_id, current)
