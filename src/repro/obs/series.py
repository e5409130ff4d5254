"""The windowed metrics time-series carried inside :class:`SimStats`.

This module is deliberately dependency-free (standard library only, no
imports from the rest of the package) so :mod:`repro.sim.stats` can hold
a :class:`MetricsSeries` without creating an import cycle through the
tracer machinery.

A series is a list of fixed-width :class:`MetricsWindow` samples taken
during the measured phase. Each window stores *deltas* for the flow
quantities (snoops, transactions, network bytes, retries) and *levels*
for the state quantities (per-VM map sizes, residence-counter sum), so
summing windows rebuilds the aggregate totals exactly while each window
remains individually meaningful.

Serialization round-trips losslessly through plain JSON types: per-VM
dicts are keyed by ints in memory and by decimal strings on the wire
(JSON has no int keys), converted back on load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class MetricsWindow:
    """One sample window ``[start, start + width)`` of the measured phase.

    The final window of a run may be shorter than ``width``; its ``width``
    field records the nominal sampling interval, not the truncated span.
    """

    start: int
    width: int
    transactions: int = 0
    snoops: int = 0
    retries: int = 0
    network_bytes: int = 0
    migrations: int = 0
    map_grows: int = 0
    map_shrinks: int = 0
    removal_cycles: int = 0
    map_sizes: Dict[int, int] = field(default_factory=dict)
    residence_sum: int = 0

    @property
    def snoops_per_transaction(self) -> float:
        return self.snoops / self.transactions if self.transactions else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "start": self.start,
            "width": self.width,
            "transactions": self.transactions,
            "snoops": self.snoops,
            "retries": self.retries,
            "network_bytes": self.network_bytes,
            "migrations": self.migrations,
            "map_grows": self.map_grows,
            "map_shrinks": self.map_shrinks,
            "removal_cycles": self.removal_cycles,
            # Int VM ids as decimal strings: stable JSON keys.
            "map_sizes": {str(vm): size for vm, size in self.map_sizes.items()},
            "residence_sum": self.residence_sum,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsWindow":
        payload = dict(data)
        sizes = payload.pop("map_sizes", {})
        known = {
            "start", "width", "transactions", "snoops", "retries",
            "network_bytes", "migrations", "map_grows", "map_shrinks",
            "removal_cycles", "residence_sum",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown MetricsWindow keys: {sorted(unknown)}")
        return cls(
            map_sizes={int(vm): size for vm, size in sizes.items()},
            **payload,
        )


@dataclass
class MetricsSeries:
    """All sample windows of one run plus the sampling interval used."""

    sample_every: int
    windows: List[MetricsWindow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.windows)

    def totals(self) -> Dict[str, int]:
        """Sums of the flow quantities across all windows.

        These equal the run's aggregate counters exactly — the invariant
        the differential tests pin down.
        """
        out = {
            "transactions": 0,
            "snoops": 0,
            "retries": 0,
            "network_bytes": 0,
            "migrations": 0,
            "map_grows": 0,
            "map_shrinks": 0,
            "removal_cycles": 0,
        }
        for window in self.windows:
            for key in out:
                out[key] += getattr(window, key)
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sample_every": self.sample_every,
            "windows": [window.to_dict() for window in self.windows],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsSeries":
        unknown = set(data) - {"sample_every", "windows"}
        if unknown:
            raise ValueError(f"unknown MetricsSeries keys: {sorted(unknown)}")
        return cls(
            sample_every=data["sample_every"],
            windows=[MetricsWindow.from_dict(w) for w in data.get("windows", [])],
        )
