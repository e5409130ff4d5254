"""The windowed metrics recorder driven by the engine's sample boundary.

One :class:`MetricsRecorder` rides a run and snapshots the system's
cumulative counters every ``sample_every`` cycles of the measured phase,
turning them into the per-window deltas of a
:class:`~repro.obs.series.MetricsSeries`. The engine keeps the cost off
the hot path the same way migrations do: a single ``local_time >=
next_sample`` comparison per access, against ``float('inf')`` when no
recorder is attached.

Flow counters (snoops, transactions, retries, network bytes) are read as
deltas of the live cumulative counters, so summing the windows rebuilds
the run's aggregate totals exactly. Map churn (grow/shrink/removal
periods) and relocations are streamed in through the same hooks the
tracer uses — which is also what keeps the removal statistics bounded on
soak runs: the recorder sees every removal even after the in-memory
``removal_log`` hits its cap.

Relocation accounting note: windows count *relocation events*, two per
vCPU swap, matching the trace's ``MIGRATION`` records (``SimStats.
migrations`` counts swaps, so series totals come to exactly twice it).
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Optional

from repro.obs.series import MetricsSeries, MetricsWindow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hypervisor.hypervisor import RelocationEvent
    from repro.sim.system import SimulatedSystem


class MetricsRecorder:
    """Samples one system's counters into fixed-width windows.

    The system owns the recorder and the hypervisor/domain hooks point
    at it, so it holds the system only weakly; it reads the system at
    window boundaries, never per access.
    """

    def __init__(self, system: "SimulatedSystem", sample_every: int) -> None:
        if sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {sample_every}")
        self._system = weakref.ref(system)
        self.sample_every = sample_every
        self.windows: list = []
        self._active = False
        self._window: Optional[MetricsWindow] = None
        # Cumulative-counter snapshot at the current window's start.
        self._base_transactions = 0
        self._base_snoops = 0
        self._base_retries = 0
        self._base_network_bytes = 0

    @property
    def system(self) -> "SimulatedSystem":
        system = self._system()
        if system is None:
            raise ReferenceError("the recorded system no longer exists")
        return system

    # ------------------------------------------------------------------
    # Engine-driven sampling.
    # ------------------------------------------------------------------

    def begin(self, cycle: int) -> int:
        """Start sampling (measured-phase start); returns the first boundary.

        Windows are aligned to multiples of ``sample_every``; the first
        window starts at the aligned floor of ``cycle`` so window starts
        are comparable across runs regardless of warmup length.
        """
        self._active = True
        start = cycle - (cycle % self.sample_every)
        self._window = MetricsWindow(start=start, width=self.sample_every)
        self._snapshot()
        return start + self.sample_every

    def sample(self, cycle: int) -> int:
        """Close the current window at ``cycle``; returns the next boundary.

        The engine checks the boundary once per access, so a window can
        close late (its successor starts at the aligned floor of the
        cycle that tripped the check); the recorded ``start`` values keep
        the true span visible.
        """
        self._close_window()
        start = cycle - (cycle % self.sample_every)
        self._window = MetricsWindow(start=start, width=self.sample_every)
        return start + self.sample_every

    def finish(self, cycle: int) -> MetricsSeries:
        """Close the final (possibly partial) window; returns the series."""
        if self._active:
            self._close_window()
            self._window = None
            self._active = False
        return MetricsSeries(sample_every=self.sample_every, windows=self.windows)

    # ------------------------------------------------------------------
    # Streamed events (same hooks the tracer uses).
    # ------------------------------------------------------------------

    def on_relocation(self, event: "RelocationEvent") -> None:
        if self._active and self._window is not None:
            self._window.migrations += 1

    def on_map_event(
        self, vm_id: int, core: int, grew: bool, size: int, cycle: int, period: int
    ) -> None:
        if not self._active or self._window is None:
            return
        if grew:
            self._window.map_grows += 1
        else:
            self._window.map_shrinks += 1
            self._window.removal_cycles += period

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _snapshot(self) -> None:
        # Always through `system`: the stats objects are swapped on the
        # engine's measurement reset.
        coherence = self.system.protocol.stats
        self._base_transactions = coherence.transactions
        self._base_snoops = coherence.snoops
        self._base_retries = coherence.retries
        self._base_network_bytes = self.system.network.bytes_transferred

    def _close_window(self) -> None:
        window = self._window
        if window is None:
            return
        system = self.system
        coherence = system.protocol.stats
        window.transactions = coherence.transactions - self._base_transactions
        window.snoops = coherence.snoops - self._base_snoops
        window.retries = coherence.retries - self._base_retries
        window.network_bytes = (
            system.network.bytes_transferred - self._base_network_bytes
        )
        domains = getattr(system.snoop_filter, "domains", None)
        if domains is not None:
            window.map_sizes = {
                vm.vm_id: domains.domain_size(vm.vm_id) for vm in system.vms
            }
        trackers = getattr(system.snoop_filter, "trackers", None)
        if trackers is not None:
            window.residence_sum = sum(
                sum(tracker.counts().values()) for tracker in trackers.values()
            )
        self.windows.append(window)
        self._snapshot()
