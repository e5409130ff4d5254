"""Protocol-level statistics.

Counters accumulated by the protocol engine, keyed the way the paper
reports them: snoops (cache tag lookups caused by coherence requests),
transactions by request and page type, retry/persistent escalations,
data-source decomposition, and the data-holder decomposition of L2
misses on content-shared pages (Table VI).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict

from repro.mem.pagetype import PageType

# Fields holding PageType-keyed dicts; serialized by enum value so the
# JSON round trip is lossless and human-readable.
_PAGE_TYPE_KEYED = ("transactions_by_page_type", "snoops_by_page_type")


@dataclass(slots=True)
class CoherenceStats:
    """Cumulative protocol counters for one simulation."""

    snoops: int = 0
    transactions: int = 0
    gets_count: int = 0
    getm_count: int = 0
    retries: int = 0
    persistent_requests: int = 0
    cache_to_cache: int = 0
    memory_sourced: int = 0
    upgrades: int = 0
    invalidations: int = 0
    transactions_by_page_type: Dict[PageType, int] = field(
        default_factory=lambda: {t: 0 for t in PageType}
    )
    snoops_by_page_type: Dict[PageType, int] = field(
        default_factory=lambda: {t: 0 for t in PageType}
    )
    # Data-holder decomposition for content-shared misses (Table VI).
    ro_misses: int = 0
    ro_holder_any_cache: int = 0
    ro_holder_intra_vm: int = 0
    ro_holder_friend_vm: int = 0
    ro_holder_memory_only: int = 0
    # Actual source decomposition for content-shared misses.
    ro_served_by_cache: int = 0
    ro_served_by_memory: int = 0

    def record_transaction(self, page_type: PageType, is_write: bool) -> None:
        self.transactions += 1
        self.transactions_by_page_type[page_type] += 1
        if is_write:
            self.getm_count += 1
        else:
            self.gets_count += 1

    def record_snoops(self, count: int, page_type: PageType) -> None:
        self.snoops += count
        self.snoops_by_page_type[page_type] += count

    def to_dict(self) -> dict:
        """Every counter as JSON-serializable data (enum keys by value)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _PAGE_TYPE_KEYED:
                out[f.name] = {t.value: count for t, count in value.items()}
            else:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CoherenceStats":
        """Inverse of :meth:`to_dict`; rejects unknown keys loudly."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown CoherenceStats fields: {sorted(unknown)}")
        kwargs = dict(data)
        for name in _PAGE_TYPE_KEYED:
            if name in kwargs:
                kwargs[name] = {
                    PageType(key): count for key, count in kwargs[name].items()
                }
        return cls(**kwargs)

    def reset(self) -> None:
        """Zero every counter in place, keeping each dict's key order."""
        for f in fields(self):
            if f.name in _PAGE_TYPE_KEYED:
                counts = getattr(self, f.name)
                counts.update(dict.fromkeys(counts, 0))
            else:
                setattr(self, f.name, 0)
