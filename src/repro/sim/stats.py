"""Simulation-level statistics.

Aggregates the protocol counters with engine-level measurements: L1
access / L2 miss decompositions by initiator (Figure 1) and by page type
(Table V), execution time (Figure 6), traffic (Table IV), migrations and
vCPU-map removals (Figures 7-9).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from repro.coherence.stats import CoherenceStats
from repro.mem.pagetype import PageType
from repro.obs.series import MetricsSeries
from repro.sanitizer.violation import SanitizerCheck
from repro.workloads.trace import Initiator

# Enum types keying the per-field dicts; serialized by enum value so the
# JSON round trip through to_dict/from_dict is lossless.
_ENUM_KEYED = {
    "l1_accesses_by_page_type": PageType,
    "transactions_by_initiator": Initiator,
}


@dataclass(slots=True)
class SimStats:
    """Counters gathered while an engine runs."""

    coherence: CoherenceStats = field(default_factory=CoherenceStats)
    l1_accesses: int = 0
    l1_accesses_by_page_type: Dict[PageType, int] = field(
        default_factory=lambda: {t: 0 for t in PageType}
    )
    transactions_by_initiator: Dict[Initiator, int] = field(
        default_factory=lambda: {i: 0 for i in Initiator}
    )
    cow_events: int = 0
    migrations: int = 0
    flush_writebacks: int = 0
    # Filled in at the end of a run.
    execution_cycles: int = 0
    network_bytes: int = 0
    network_messages: int = 0
    removal_periods_cycles: List[int] = field(default_factory=list)
    # Removals beyond the SnoopDomainTable's in-memory log cap on soak
    # runs; their periods are observable through the metrics recorder /
    # trace instead. 0 (and omitted from to_dict) on bounded runs.
    removal_periods_dropped: int = 0
    # Windowed time-series sampled by the opt-in metrics recorder. None
    # (and omitted from to_dict) unless config.metrics_sample_every set.
    metrics: Optional[MetricsSeries] = None
    # Violations recorded by the coherence sanitizer in counting mode,
    # keyed by check. Empty whenever the sanitizer is off (or clean), and
    # omitted from to_dict() in that case so sanitizer-less artifacts stay
    # bit-identical to earlier releases.
    sanitizer_violations: Dict[SanitizerCheck, int] = field(default_factory=dict)
    # Final snoop-map (vCPU map) size per VM at the end of the measured
    # phase — the consolidation study's scaling observable. Empty (and
    # omitted from to_dict) for filters without domain tables
    # (RegionScout).
    snoop_map_sizes: Dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Serialization — the JSON artifact one campaign cell persists.
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Every field as JSON-serializable data.

        Enum-keyed dicts are keyed by enum value, the nested
        :class:`CoherenceStats` becomes a nested dict, and lists are
        copied; ``SimStats.from_dict(s.to_dict()) == s`` for any stats a
        simulation can produce.
        """
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "coherence":
                out[f.name] = value.to_dict()
            elif f.name == "sanitizer_violations":
                if value:
                    out[f.name] = {check.value: count for check, count in value.items()}
            elif f.name == "metrics":
                # Omitted when absent (like the two cases above) so
                # artifacts from observability-less runs stay
                # bit-identical to earlier releases.
                if value is not None:
                    out[f.name] = value.to_dict()
            elif f.name == "removal_periods_dropped":
                if value:
                    out[f.name] = value
            elif f.name == "snoop_map_sizes":
                # Omitted when empty (RegionScout has no domain table);
                # the int VM-id keys become strings in the JSON artifact.
                if value:
                    out[f.name] = dict(value)
            elif f.name in _ENUM_KEYED:
                out[f.name] = {key.value: count for key, count in value.items()}
            elif isinstance(value, list):
                out[f.name] = list(value)
            else:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SimStats":
        """Inverse of :meth:`to_dict`; rejects unknown keys loudly."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SimStats fields: {sorted(unknown)}")
        kwargs = dict(data)
        if "coherence" in kwargs:
            kwargs["coherence"] = CoherenceStats.from_dict(kwargs["coherence"])
        if "sanitizer_violations" in kwargs:
            kwargs["sanitizer_violations"] = {
                SanitizerCheck(key): count
                for key, count in kwargs["sanitizer_violations"].items()
            }
        if "metrics" in kwargs and kwargs["metrics"] is not None:
            kwargs["metrics"] = MetricsSeries.from_dict(kwargs["metrics"])
        if "snoop_map_sizes" in kwargs:
            # JSON stringifies the int VM ids; undo that on the way in.
            kwargs["snoop_map_sizes"] = {
                int(vm): size for vm, size in kwargs["snoop_map_sizes"].items()
            }
        for name, enum_type in _ENUM_KEYED.items():
            if name in kwargs:
                kwargs[name] = {
                    enum_type(key): count for key, count in kwargs[name].items()
                }
        return cls(**kwargs)

    def reset(self) -> None:
        """Zero every counter in place (the measurement boundary).

        Every object stays the one the system was built with — the
        nested :class:`CoherenceStats` and each dict and list — so a
        component may hold its stats for the life of the system.
        Enum-keyed dicts keep their key order, which ``to_dict``
        follows.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "coherence":
                value.reset()
            elif f.name in _ENUM_KEYED:
                value.update(dict.fromkeys(value, 0))
            elif isinstance(value, (dict, list)):
                value.clear()
            else:
                setattr(self, f.name, f.default)

    # ------------------------------------------------------------------
    # Derived metrics, named after the paper's figures.
    # ------------------------------------------------------------------

    @property
    def total_snoops(self) -> int:
        """Snoop tag lookups over all cores (Figures 7, 8, 10)."""
        return self.coherence.snoops

    @property
    def total_transactions(self) -> int:
        return self.coherence.transactions

    def snoops_per_transaction(self) -> float:
        if self.coherence.transactions == 0:
            return 0.0
        return self.coherence.snoops / self.coherence.transactions

    def miss_decomposition_by_initiator(self) -> Dict[Initiator, float]:
        """Figure 1: shares of coherence transactions per initiator."""
        total = sum(self.transactions_by_initiator.values())
        if total == 0:
            return {i: 0.0 for i in Initiator}
        return {
            i: count / total for i, count in self.transactions_by_initiator.items()
        }

    def l1_access_share(self, page_type: PageType) -> float:
        """Table V column 1: share of L1 accesses on ``page_type`` pages."""
        if self.l1_accesses == 0:
            return 0.0
        return self.l1_accesses_by_page_type[page_type] / self.l1_accesses

    def l2_miss_share(self, page_type: PageType) -> float:
        """Table V column 2: share of coherence transactions on ``page_type``."""
        if self.coherence.transactions == 0:
            return 0.0
        return (
            self.coherence.transactions_by_page_type[page_type]
            / self.coherence.transactions
        )

    def miss_rate(self) -> float:
        if self.l1_accesses == 0:
            return 0.0
        return self.coherence.transactions / self.l1_accesses
