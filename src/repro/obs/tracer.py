"""The tracer: glue between the engine's observer seams and a sink.

A :class:`Tracer` taps the same opt-in wrapper seams the coherence
sanitizer uses — the engine rebinds its hot-path aliases through
:meth:`wrap_plan` / :meth:`wrap_transact` only when a tracer is attached,
so a trace-less run executes exactly the pre-observability code. The
wrappers are pure observers: they read counter deltas and stash the last
plan, but change no latency, no traffic and no RNG draw, which is what
keeps a traced run's statistics bit-identical to an untraced one.

Event sources:

* ``wrap_transact`` — one :class:`TransactionEvent` per coherence
  transaction, with the exact snoop/retry deltas the protocol charged
  and the destination-set size of the plan's first attempt.
* ``Hypervisor.relocation_hook`` — :class:`MigrationEvent` per vCPU
  relocation (two per swap).
* ``SnoopDomainTable.map_hook`` — :class:`MapEvent` per vCPU-map grow or
  shrink, the shrink carrying its Figure 9 removal period.
* ``CoherenceSanitizer.on_violation`` — :class:`ViolationEvent` when the
  sanitizer is also attached (counting mode; in raise mode the run dies
  before the event would be read anyway).

The tracer stays disabled through warmup; the engine's measurement reset
calls :meth:`begin_measurement`, which emits the ``measure``
:class:`PhaseEvent` and opens the gate, so trace sums equal measured
statistics exactly.

:func:`attach_observability` builds the tracer and/or the
:class:`~repro.obs.recorder.MetricsRecorder` for one system and wires
every hook; ``build_system`` calls it when ``SimConfig.trace`` or
``SimConfig.metrics_sample_every`` is set.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.core.clock import SimClock
from repro.obs.events import (
    MapEvent,
    MigrationEvent,
    PhaseEvent,
    TraceHeader,
    TransactionEvent,
    ViolationEvent,
)
from repro.obs.recorder import MetricsRecorder
from repro.obs.sinks import TraceSink, open_sink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hypervisor.hypervisor import RelocationEvent
    from repro.sanitizer.violation import SanitizerViolation
    from repro.sim.system import SimulatedSystem


def _coalesce(value: Optional[int], fallback: int = -1) -> int:
    return value if value is not None else fallback


class Tracer:
    """Emits structured events for one run into a :class:`TraceSink`.

    The system owns the tracer and the hooks it installs (relocation,
    vCPU map, sanitizer) point at it, so it holds the system only
    weakly. The one back edge it cannot avoid — the engine's wrapped
    ``_transact``, a bound method of the engine that owns the wrapper —
    is dropped in :meth:`close`.
    """

    def __init__(self, system: "SimulatedSystem", sink: TraceSink) -> None:
        self._system = weakref.ref(system)
        self.sink = sink
        self.enabled = False  # opened by begin_measurement
        self.clock: Callable[[], int] = SimClock()
        self._transact_fn = None
        self._last_plan = None
        # The protocol's coherence statistics, bound at the measurement
        # boundary (the engine swaps them in just before it).
        self._coherence = None

    @property
    def system(self) -> "SimulatedSystem":
        system = self._system()
        if system is None:
            raise ReferenceError("the traced system no longer exists")
        return system

    def write_header(self) -> None:
        config = self.system.config
        policy = (
            config.snoop_policy.value
            if config.filter_kind == "vsnoop"
            else config.filter_kind
        )
        self.sink.write_header(
            TraceHeader(
                policy=policy,
                app=self.system.profile.name,
                seed=config.seed,
                num_cores=config.num_cores,
            )
        )

    # ------------------------------------------------------------------
    # Engine seams (mirroring the sanitizer's wrap_* contract).
    # ------------------------------------------------------------------

    def wrap_plan(self, plan_fn):
        """Wrap the filter's plan function; stashes each produced plan.

        A closure, not stored here: ``plan_fn`` reaches the domain table,
        whose map hook reaches this tracer.
        """

        def traced_plan(core, vm_id, page_type, block=None):
            # plan() is called exactly once per transaction, immediately
            # before execute(), on one thread — so the stash is always
            # the transaction the wrapped _transact below is reporting.
            plan = plan_fn(core, vm_id, page_type, block)
            self._last_plan = plan
            return plan

        return traced_plan

    def wrap_transact(self, transact_fn):
        """Wrap the engine's per-transaction entry point."""
        self._transact_fn = transact_fn
        return self._traced_transact

    def _traced_transact(
        self, core, vm_id, block, is_write, page_type, initiator, vm_tag,
        hierarchy, hit,
    ):
        if not self.enabled:
            return self._transact_fn(
                core, vm_id, block, is_write, page_type, initiator, vm_tag,
                hierarchy, hit,
            )
        coherence = self._coherence
        snoops_before = coherence.snoops
        retries_before = coherence.retries
        latency = self._transact_fn(
            core, vm_id, block, is_write, page_type, initiator, vm_tag,
            hierarchy, hit,
        )
        plan = self._last_plan
        self.sink.emit(
            TransactionEvent(
                cycle=self.clock(),
                core=core,
                vm_id=vm_id,
                block=block,
                page_type=page_type.value,
                initiator=initiator.value,
                is_write=is_write,
                dest_size=len(plan.attempts[0]) if plan is not None else 0,
                snoops=coherence.snoops - snoops_before,
                retries=coherence.retries - retries_before,
                latency=latency,
            )
        )
        return latency

    # ------------------------------------------------------------------
    # Hook targets (hypervisor / domain table / sanitizer).
    # ------------------------------------------------------------------

    def on_relocation(self, event: "RelocationEvent") -> None:
        if not self.enabled:
            return
        self.sink.emit(
            MigrationEvent(
                cycle=event.cycle,
                vm_id=event.vm_id,
                vcpu_index=event.vcpu_index,
                old_core=_coalesce(event.old_core),
                new_core=event.new_core,
            )
        )

    def on_map_event(
        self, vm_id: int, core: int, grew: bool, size: int, cycle: int, period: int
    ) -> None:
        if not self.enabled:
            return
        self.sink.emit(
            MapEvent(
                cycle=cycle, vm_id=vm_id, core=core, grew=grew, size=size,
                period=period,
            )
        )

    def on_violation(self, violation: "SanitizerViolation") -> None:
        if not self.enabled:
            return
        self.sink.emit(
            ViolationEvent(
                cycle=_coalesce(violation.cycle, self.clock()),
                check=violation.check.value,
                vm_id=_coalesce(violation.vm_id),
                core=_coalesce(violation.core),
                block=_coalesce(violation.block),
            )
        )

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def begin_measurement(self, cycle: int) -> None:
        """Open the event gate at the measured-phase boundary."""
        self._coherence = self.system.protocol.stats
        self.enabled = True
        self.sink.emit(PhaseEvent(cycle=cycle, phase="measure"))

    def close(self, final_cycle: int) -> None:
        """Write the end record; the trace is incomplete without it.

        Also drops the wrapped engine entry point, the only reference
        from the tracer back to the engine.
        """
        self.sink.close(final_cycle)
        self._transact_fn = None
        self._last_plan = None


def attach_observability(
    system: "SimulatedSystem",
    trace_path: Optional[str] = None,
    trace_format: str = "auto",
    metrics_sample_every: Optional[int] = None,
) -> Tuple[Optional[Tracer], Optional[MetricsRecorder]]:
    """Build and wire the tracer and/or metrics recorder for ``system``.

    Installs the relocation, vCPU-map and sanitizer hooks; the engine
    discovers both objects on ``system.tracer`` / ``system.metrics`` and
    installs the hot-path seams itself (as it does for the sanitizer).
    With neither argument set this is a no-op returning ``(None, None)``.
    """
    tracer: Optional[Tracer] = None
    recorder: Optional[MetricsRecorder] = None
    if trace_path is not None:
        tracer = Tracer(system, open_sink(trace_path, trace_format))
        tracer.write_header()
    if metrics_sample_every is not None:
        recorder = MetricsRecorder(system, metrics_sample_every)
    if tracer is None and recorder is None:
        return None, None

    if tracer is not None and recorder is not None:
        def on_relocation(event: "RelocationEvent") -> None:
            tracer.on_relocation(event)
            recorder.on_relocation(event)

        def on_map_event(
            vm_id: int, core: int, grew: bool, size: int, cycle: int, period: int
        ) -> None:
            tracer.on_map_event(vm_id, core, grew, size, cycle, period)
            recorder.on_map_event(vm_id, core, grew, size, cycle, period)
    elif tracer is not None:
        on_relocation = tracer.on_relocation
        on_map_event = tracer.on_map_event
    else:
        assert recorder is not None
        on_relocation = recorder.on_relocation
        on_map_event = recorder.on_map_event

    system.hypervisor.relocation_hook = on_relocation
    domains = getattr(system.snoop_filter, "domains", None)
    if domains is not None:
        domains.map_hook = on_map_event
    if tracer is not None and system.sanitizer is not None:
        system.sanitizer.on_violation = tracer.on_violation

    system.tracer = tracer
    system.metrics = recorder
    return tracer, recorder
