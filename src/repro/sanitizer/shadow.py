"""Ground-truth shadow of every L2's contents.

One :class:`ShadowCache` per core observes the same insert/evict/
invalidate event stream the residence counters see, but keeps the *full*
line inventory (block -> VM tag) rather than mere counts — independent
of both the caches' internal structures and the token registry. The
sanitizer cross-checks all three against each other:

* the per-VM counts derived here are what the filter's
  :class:`~repro.core.residence.ResidenceTracker` counters must equal,
* the per-block holder sets derived here are what the registry's sharer
  sets and every plan's destination set are checked against,
* a full audit recomputes everything from the actual cache lines and
  verifies the shadow itself never drifted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Set

from repro.cache.setassoc import CacheObserver
from repro.core.residence import UNTRACKED_VM
from repro.sanitizer.violation import SanitizerCheck, SanitizerViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sanitizer.core import CoherenceSanitizer

EMPTY: FrozenSet[int] = frozenset()


class ShadowCache(CacheObserver):
    """Shadow inventory of one core's L2, fed by cache observer events.

    The cache owns its shadow and the shadow references its sanitizer;
    the sanitizer keeps its shadows only weakly, so this edge closes no
    cycle.
    """

    def __init__(self, core: int, sanitizer: "CoherenceSanitizer") -> None:
        self.core = core
        self._sanitizer = sanitizer
        self.blocks: Dict[int, int] = {}  # block -> vm tag at insert time
        self.vm_counts: Dict[int, int] = {}  # vm -> tracked (non-UNTRACKED) lines

    # ------------------------------------------------------------------
    # CacheObserver interface.
    # ------------------------------------------------------------------

    def on_insert(self, block: int, vm_id: int) -> None:
        sanitizer = self._sanitizer
        if block in self.blocks:
            sanitizer.report(
                SanitizerViolation(
                    SanitizerCheck.SHADOW,
                    "insert event for a block already resident in the shadow",
                    cycle=sanitizer.clock(),
                    block=block,
                    vm_id=vm_id,
                    core=self.core,
                )
            )
        self.blocks[block] = vm_id
        sanitizer.holders_of(block, create=True).add(self.core)
        if vm_id != UNTRACKED_VM:
            self.vm_counts[vm_id] = self.vm_counts.get(vm_id, 0) + 1
        sanitizer.check_tracker(
            self.core, vm_id, "insert", self.vm_counts.get(vm_id, 0)
        )

    def on_evict(self, block: int, vm_id: int) -> None:
        self._remove(block, vm_id, "evict")

    def on_invalidate(self, block: int, vm_id: int) -> None:
        self._remove(block, vm_id, "invalidate")

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _remove(self, block: int, vm_id: int, event: str) -> None:
        sanitizer = self._sanitizer
        tag = self.blocks.pop(block, None)
        if tag is None:
            sanitizer.report(
                SanitizerViolation(
                    SanitizerCheck.SHADOW,
                    f"{event} event for a block the shadow never saw inserted",
                    cycle=sanitizer.clock(),
                    block=block,
                    vm_id=vm_id,
                    core=self.core,
                )
            )
            return
        holders = sanitizer.holders_of(block)
        holders.discard(self.core)
        if not holders:
            sanitizer.drop_holders(block)
        if tag != UNTRACKED_VM:
            count = self.vm_counts.get(tag, 0) - 1
            if count < 0:
                sanitizer.report(
                    SanitizerViolation(
                        SanitizerCheck.SHADOW,
                        f"shadow per-VM count underflow on {event}",
                        cycle=sanitizer.clock(),
                        block=block,
                        vm_id=tag,
                        core=self.core,
                    )
                )
                count = 0
            if count == 0:
                self.vm_counts.pop(tag, None)
            else:
                self.vm_counts[tag] = count
        sanitizer.check_tracker(self.core, tag, event, self.vm_counts.get(tag, 0))

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def count(self, vm_id: int) -> int:
        """True number of VM-tagged lines currently resident."""
        return self.vm_counts.get(vm_id, 0)

    def counts(self) -> Dict[int, int]:
        return dict(self.vm_counts)

    def resident_blocks(self) -> Set[int]:
        return set(self.blocks)
