"""The simulator imports and runs without NumPy.

A fresh interpreter imports the CLI, the kernel, the runner and the
cache substrate, runs one tiny batched cell, and must not have loaded
NumPy on the way — whether or not NumPy is installed.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import sys

import repro.cache.setassoc
import repro.cli
import repro.sim.runner
from repro.sim.config import SimConfig
from repro.sim.kernel import BatchedEngine, engine_for
from repro.sim.system import build_system
from repro.workloads.profiles import PROFILES

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
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_simulator_never_imports_numpy():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout
