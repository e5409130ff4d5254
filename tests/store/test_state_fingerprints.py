"""The STATE_VERSION ratchet: identity-relevant shapes are pinned per version.

The result store and the warm-snapshot cache trust
``repro.store.STATE_VERSION`` to invalidate entries whenever simulation
semantics change. This test fingerprints the shapes they key identity
on, taken from live objects rather than parsed from source:

* ``dataclasses.fields()`` of ``SimConfig`` (minus
  ``WARMUP_INERT_FIELDS``), ``SimStats``, ``CoherenceStats``,
  ``MetricsWindow`` and ``MetricsSeries``, and of the scheduler study's
  ``SchedulerConfig`` and ``SchedulerResult`` (campaign stores hold its
  cells);
* the ``WARMUP_INERT_FIELDS`` and ``SUITES`` keys;
* the keys of a real ``SimulatedSystem.snapshot`` payload.

They are compared with the committed ``state_fingerprints.json``. Drift
at an unchanged ``STATE_VERSION`` fails: bump the version, or — for a
change proven bit-identical by the golden corpus — regenerate without a
bump, which then shows up in the diff. A recorded version that differs
from the code fails until the file is regenerated::

    PYTHONPATH=src python -m pytest tests/store --update-golden
"""

import dataclasses
import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.coherence.stats import CoherenceStats
from repro.hypervisor.scheduler import SchedulerConfig, SchedulerResult
from repro.obs.series import MetricsSeries, MetricsWindow
from repro.sim import SimConfig, SimulationEngine, build_system
from repro.sim.runner import WARMUP_INERT_FIELDS
from repro.sim.stats import SimStats
from repro.store import STATE_VERSION
from repro.workloads import SUITES, get_profile

FINGERPRINTS = Path(__file__).with_name("state_fingerprints.json")
REGENERATE = "regenerate with `pytest tests/store --update-golden`"


def _field_names(cls) -> List[str]:
    return sorted(f.name for f in dataclasses.fields(cls))


def current_fingerprints() -> dict:
    config = SimConfig(accesses_per_vcpu=20, warmup_accesses_per_vcpu=20)
    system = build_system(config, get_profile("fft"))
    clocks = SimulationEngine(system).warm()
    return {
        "state_version": STATE_VERSION,
        "entities": {
            "SimConfig": sorted(set(_field_names(SimConfig)) - WARMUP_INERT_FIELDS),
            "SimStats": _field_names(SimStats),
            "CoherenceStats": _field_names(CoherenceStats),
            "MetricsWindow": _field_names(MetricsWindow),
            "MetricsSeries": _field_names(MetricsSeries),
            "SchedulerConfig": _field_names(SchedulerConfig),
            "SchedulerResult": _field_names(SchedulerResult),
            "WARMUP_INERT_FIELDS": sorted(WARMUP_INERT_FIELDS),
            "SUITES": sorted(SUITES),
            "SimulatedSystem.snapshot": sorted(system.snapshot(clocks)),
        },
    }


def ratchet_failures(recorded: dict, current: dict) -> List[str]:
    """Why ``recorded`` no longer vouches for ``current`` (empty: it does)."""
    if recorded["state_version"] != current["state_version"]:
        return [
            f"{FINGERPRINTS.name} records STATE_VERSION "
            f"{recorded['state_version']} but the code is at "
            f"{current['state_version']}; {REGENERATE}"
        ]
    was: Dict[str, List[str]] = recorded["entities"]
    now: Dict[str, List[str]] = current["entities"]
    failures = []
    for key in sorted(set(was) | set(now)):
        before, after = set(was.get(key, ())), set(now.get(key, ()))
        if before != after:
            failures.append(
                f"{key} changed (added {sorted(after - before)}, removed "
                f"{sorted(before - after)}) at STATE_VERSION "
                f"{current['state_version']}: bump STATE_VERSION or "
                f"{REGENERATE} if the change is provably bit-identical"
            )
    return failures


def render(document: dict) -> str:
    """The exact text ``--update-golden`` writes for ``document``."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def test_state_fingerprints_match_the_code(request):
    current = current_fingerprints()
    if request.config.getoption("--update-golden"):
        FINGERPRINTS.write_text(render(current))
        pytest.skip(f"regenerated {FINGERPRINTS.name}")
    failures = ratchet_failures(json.loads(FINGERPRINTS.read_text()), current)
    assert not failures, "\n".join(failures)


def test_regenerated_file_is_byte_identical_to_committed(request):
    # Regenerating on an unchanged tree must leave a clean diff, so a
    # regenerated file that does show up in review is a real change.
    if request.config.getoption("--update-golden"):
        pytest.skip(f"{FINGERPRINTS.name} is being regenerated")
    assert render(current_fingerprints()) == FINGERPRINTS.read_text(encoding="utf-8")


def _document(version: int, **entities: List[str]) -> dict:
    return {"state_version": version, "entities": entities}


def test_drift_without_a_bump_asks_for_one():
    failures = ratchet_failures(
        _document(1, SimConfig=["seed"]), _document(1, SimConfig=["seed", "knob"])
    )
    assert len(failures) == 1
    assert "SimConfig" in failures[0] and "'knob'" in failures[0]
    assert "bump STATE_VERSION or regenerate" in failures[0]


def test_version_mismatch_asks_to_regenerate():
    failures = ratchet_failures(_document(1, SimConfig=["seed"]), _document(2))
    assert len(failures) == 1
    assert "bump" not in failures[0] and "regenerate" in failures[0]
