"""The simulator imports and runs without NumPy or the campaign executor.

A fresh interpreter imports the CLI, the kernel, the runner and the
cache substrate, runs one tiny batched cell, and must not have loaded
NumPy on the way — whether or not NumPy is installed. A second fresh
interpreter imports only what a single cell needs (as
``bench/child.py`` does) and must not have loaded the campaign
executor, the result store or ``multiprocessing``, nor the tracer or
the sanitizer; the runner's names must still resolve through
``repro.sim`` afterwards, and the observability and sanitizer names
through their packages.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

CELL = """
config = SimConfig(
    num_cores=4,
    mesh_width=2,
    mesh_height=2,
    num_vms=2,
    vcpus_per_vm=2,
    accesses_per_vcpu=200,
    warmup_accesses_per_vcpu=100,
    kernel="batched",
)
system = build_system(config, PROFILES["fft"])
engine = engine_for(system)
assert type(engine) is BatchedEngine
engine.run()
assert system.stats.l1_accesses > 0
"""

SCRIPT = """
import sys

import repro.cache.setassoc
import repro.cli
import repro.sim.runner
from repro.sim.config import SimConfig
from repro.sim.kernel import BatchedEngine, engine_for
from repro.sim.system import build_system
from repro.workloads.profiles import PROFILES
""" + CELL + """
assert "numpy" not in sys.modules, "numpy was imported"
"""

CELL_ONLY_SCRIPT = """
import sys

import repro.sim.config
import repro.sim.mtstream
from repro.sim.config import SimConfig
from repro.sim.kernel import BatchedEngine, engine_for
from repro.sim.system import build_system
from repro.workloads.profiles import PROFILES
""" + CELL + """
loaded = [
    name
    for name in ("repro.sim.runner", "repro.store", "multiprocessing")
    if name in sys.modules
]
assert not loaded, f"a single cell loaded {loaded}"
# Tracing and sanitizing are opt-in: a plain cell loads neither.
unused = [
    name
    for name in (
        "repro.obs.tracer",
        "repro.obs.reader",
        "repro.obs.sinks",
        "repro.obs.events",
        "repro.obs.recorder",
        "repro.sanitizer.core",
        "repro.sanitizer.shadow",
    )
    if name in sys.modules
]
assert not unused, f"a plain cell loaded {unused}"
from repro.sim import SimTask, run_matrix
import repro.sim.runner

assert run_matrix is repro.sim.runner.run_matrix
assert SimTask is repro.sim.runner.SimTask
missing = [name for name in repro.sim.__all__ if not hasattr(repro.sim, name)]
assert not missing, missing

from repro.obs import Tracer
from repro.sanitizer import ShadowCache
import repro.obs
import repro.obs.tracer
import repro.sanitizer
import repro.sanitizer.shadow

assert Tracer is repro.obs.tracer.Tracer
assert ShadowCache is repro.sanitizer.shadow.ShadowCache
for package in (repro.obs, repro.sanitizer):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing, (package.__name__, missing)
"""


def run_fresh(script: str) -> None:
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout


def test_simulator_never_imports_numpy():
    run_fresh(SCRIPT)


def test_single_cell_never_imports_the_campaign_executor():
    run_fresh(CELL_ONLY_SCRIPT)
