"""Opt-in observability: structured event tracing + metrics time-series.

The paper's argument is temporal — Figures 7-9 live on *when* snoops
spike after a relocation and *how long* old cores linger in a vCPU map —
so this package records the run itself rather than only its end-of-run
aggregates:

* :mod:`repro.obs.events` — the structured event vocabulary (coherence
  transactions, migrations, vCPU-map grow/shrink, sanitizer violations,
  phase markers) with JSON and struct-packed binary codecs.
* :mod:`repro.obs.sinks` — the :class:`TraceSink` protocol and its JSONL
  and compact binary backends.
* :mod:`repro.obs.reader` — iterates either backend format back into
  event objects and reconstructs per-window aggregates; truncated or
  corrupt traces fail loudly with a position.
* :mod:`repro.obs.series` / :mod:`repro.obs.recorder` — the windowed
  metrics time-series sampled while the engine runs.
* :mod:`repro.obs.tracer` — the glue that hooks the existing engine and
  hypervisor observer seams; :func:`attach_observability` is what
  ``build_system`` calls when ``SimConfig.trace`` or
  ``SimConfig.metrics_sample_every`` is set.
* :mod:`repro.obs.report` — the ``repro-sim report`` implementation.

Everything here is opt-in: with tracing and metrics disabled the engine
hot path is untouched and statistics stay bit-identical (the same
guarantee ``--sanitize`` gives), and the package's names load on first
use.
"""

from importlib import import_module
from typing import Any

# Every public name -> the submodule defining it. The package imports
# none of them up front: ``repro.sim.stats`` needs only
# ``repro.obs.series``, and a cell that neither traces nor samples
# metrics should not load the tracer, the sinks, the reader and the
# event codecs. The module ``__getattr__`` below resolves a name on
# first access, so ``from repro.obs import Tracer`` works as before.
_SUBMODULE = {
    "BinaryTraceSink": "sinks",
    "EventKind": "events",
    "JsonlTraceSink": "sinks",
    "MapEvent": "events",
    "MetricsRecorder": "recorder",
    "MetricsSeries": "series",
    "MetricsWindow": "series",
    "MigrationEvent": "events",
    "PhaseEvent": "events",
    "Tracer": "tracer",
    "TraceEnd": "events",
    "TraceError": "reader",
    "TraceHeader": "events",
    "TraceSink": "sinks",
    "TransactionEvent": "events",
    "ViolationEvent": "events",
    "WindowAggregate": "reader",
    "aggregate_windows": "reader",
    "attach_observability": "tracer",
    "migration_phase_profile": "reader",
    "open_sink": "sinks",
    "read_trace": "reader",
}


def __getattr__(name: str) -> Any:
    submodule = _SUBMODULE.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


__all__ = list(_SUBMODULE)
