"""A finished cell is freed by reference counting alone.

Campaigns run many fresh systems one after another. The system/engine
object graph is acyclic — the components share a leaf ``SimClock``, hooks
close over the data they touch rather than over their owners, and the
opt-in observers hold the system weakly — so dropping a cell's system
and engine frees the whole cell at once. Were any edge to close a cycle,
the cell would linger until a full cyclic collection, and peak memory
would grow with every cell run so far.

Each case runs with the cyclic collector disabled: the system must be
gone as soon as the last reference is dropped, and a following
``gc.collect()`` must find nothing unreachable.
"""

import gc
import weakref
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.core.filter import SnoopPolicy
from repro.sanitizer import SanitizerCheck, SanitizerViolation
from repro.sim import SimConfig, SimTask, run_matrix
from repro.sim.engine import SimulationEngine
from repro.sim.kernel import engine_for
from repro.sim.system import SimulatedSystem, build_system
from repro.workloads import get_profile

TINY = dict(accesses_per_vcpu=300, warmup_accesses_per_vcpu=200)
# Migration windows short enough that a tiny budget sees several swaps.
FAST_SWAPS = dict(TINY, migration_period_ms=0.01)


FAMILIES = {
    "table2-vsnoop-base": lambda tmp: SimConfig(**TINY),
    "migration-counter": lambda tmp: SimConfig.migration_study(
        snoop_policy=SnoopPolicy.VSNOOP_COUNTER, **FAST_SWAPS
    ),
    "migration-counter-threshold": lambda tmp: SimConfig.migration_study(
        snoop_policy=SnoopPolicy.VSNOOP_COUNTER_THRESHOLD, **FAST_SWAPS
    ),
    "suite-web-farm": lambda tmp: SimConfig(suite="web-farm", **TINY),
    "backup-window-content-hypervisor": lambda tmp: SimConfig(
        suite="backup-window",
        content_sharing_enabled=True,
        hypervisor_activity_enabled=True,
        **TINY,
    ),
    "regionscout": lambda tmp: SimConfig(filter_kind="regionscout", **TINY),
    "sanitize": lambda tmp: SimConfig(sanitize=True, **TINY),
    "metrics-and-trace": lambda tmp: SimConfig(
        metrics_sample_every=2_000, trace=str(tmp / "cell.trace"), **TINY
    ),
}


@contextmanager
def collector_off():
    """Collect what earlier code left, then keep the cyclic GC off."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def run_cell(config: SimConfig):
    system = build_system(config, get_profile("fft"))
    engine = engine_for(system)
    clocks = engine.warm()
    engine.measure(clocks)
    return system, engine


@pytest.mark.parametrize("kernel", ["reference", "batched"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_dropping_a_finished_cell_frees_it(family, kernel, tmp_path):
    config = replace(FAMILIES[family](tmp_path), kernel=kernel)
    with collector_off():
        system, engine = run_cell(config)
        assert system.stats.l1_accesses > 0
        if config.migration_period_ms is not None:
            assert system.stats.migrations > 0
        alive = weakref.ref(system)
        del system, engine
        assert alive() is None, "the system outlived its last reference"
        assert gc.collect() == 0, "the cell left reference cycles behind"


def test_sanitizer_audits_after_the_engine_is_gone():
    with collector_off():
        system, engine = run_cell(SimConfig(sanitize=True, **TINY))
        final_cycle = engine.clock.now
        del engine
        assert final_cycle > 0
        assert system.snoop_filter.clock() == final_cycle
        system.sanitizer.audit()
        # A violation found now is stamped with the run's final cycle.
        domains = system.snoop_filter.domains
        vm = system.vms[0].vm_id
        domains._domains[vm].discard(min(domains.domain(vm)))
        with pytest.raises(SanitizerViolation) as exc:
            system.sanitizer.audit()
        assert exc.value.check is SanitizerCheck.DOMAIN
        assert exc.value.cycle == final_cycle


def test_serial_campaign_keeps_no_system_alive(monkeypatch):
    """The inline executor and its diagnostics keep only stats and dicts."""
    monkeypatch.setenv("REPRO_STORE", "off")
    tasks = [
        SimTask(SimConfig(seed=seed, **TINY), app)
        for seed, app in ((1, "fft"), (2, "lu"), (3, "ocean"))
    ]
    live = (SimulatedSystem, SimulationEngine)
    with collector_off():
        before = {id(obj) for obj in gc.get_objects() if isinstance(obj, live)}
        results = run_matrix(tasks, jobs=1)
        leaked = [
            type(obj).__name__
            for obj in gc.get_objects()
            if isinstance(obj, live) and id(obj) not in before
        ]
    assert len(results) == 3
    assert all(stats.l1_accesses > 0 for stats in results)
    assert leaked == []
