"""A golden cell gives the same bytes in every process that runs it.

Two fresh interpreters, one under ``PYTHONHASHSEED=1`` and one under
``PYTHONHASHSEED=2`` (seeds that iterate ``set(SnoopPolicy)`` in
different orders), simulate three golden cases under both kernels with
the result store off. Each prints the **unsorted**
``json.dumps(stats.to_dict())`` of every run, and every line must equal
the same cell simulated in this process.

The golden test sorts keys, so a dict whose insertion order follows a
hash never shows there; the unsorted bytes do. Each child is compared
with this process, a third sample, because two runs of the same hazard
can happen to agree with each other. Forked campaign workers inherit
the parent's hash seed and memory layout, so this is the test that
covers hash order, unseeded randomness and wall-clock values leaking
into ``SimStats``.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from repro.sim import SimTask
from repro.sim.runner import run_simulation_task

from .cases import GOLDEN_CASES
from .test_golden import DATA_DIR, encode

REPO = Path(__file__).resolve().parents[2]

CASES = (
    "content-intra-vm-blackscholes",
    "migration-heavy-ocean",
    "hypervisor-blackscholes",
)
KERNELS = ("batched", "reference")

SCRIPT = """
import json

from tests.golden.test_determinism import simulate

for _, _, stats in simulate():
    print(json.dumps(stats.to_dict()))
"""


def simulate():
    """Yield ``(case, kernel, stats)`` for each run; callers turn the store off."""
    for name in CASES:
        task = GOLDEN_CASES[name]
        for kernel in KERNELS:
            config = replace(task.config, kernel=kernel)
            yield name, kernel, run_simulation_task(SimTask(config, task.app))


def _start(hash_seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["REPRO_STORE"] = "off"
    return subprocess.Popen(
        [sys.executable, "-c", SCRIPT],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_golden_bytes_match_across_hash_seeds(monkeypatch):
    procs = {seed: _start(seed) for seed in (1, 2)}
    try:
        monkeypatch.setenv("REPRO_STORE", "off")
        runs, expected = [], []
        for name, kernel, stats in simulate():
            golden = (DATA_DIR / f"{name}.json").read_text()
            assert encode(stats) == golden, (name, kernel)
            runs.append((name, kernel))
            expected.append(json.dumps(stats.to_dict()))

        for seed, proc in procs.items():
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            lines = out.splitlines()
            assert len(lines) == len(expected), err
            for (name, kernel), line, want in zip(runs, lines, expected):
                assert line == want, (
                    f"{name} under kernel={kernel} gave different bytes "
                    f"with PYTHONHASHSEED={seed} than in the test process"
                )
    finally:
        for proc in procs.values():
            proc.kill()
            proc.communicate()
