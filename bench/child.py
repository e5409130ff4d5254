"""One pass over a workload's cells, in the process that runs this file.

    python bench/child.py <workload> <seed> <plain|traced|reference> [--smoke]

``plain`` runs each cell as users get it (``kernel="auto"``);
``traced`` does the same with the span tracer installed;
``reference`` forces ``kernel="reference"``. The last line of standard
output is one JSON object: per-cell timings, counters and ``SimStats``
digest, the calibration loop's times (sampled before each cell and
after the last), and the process's peak resident set. A cell that raises is
reported with its error; a harness fault (such as a missing trace seam)
exits non-zero.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import platform
import resource
import sys
import time
import traceback
from dataclasses import replace
from typing import Optional

import calibrate
import cells
import spans
from repro.sim.kernel import engine_for
from repro.sim.mtstream import HAVE_NUMPY
from repro.sim.system import build_system
from repro.workloads import get_profile

MODES = ("plain", "traced", "reference")


def digest(stats) -> str:
    """SHA-256 of the canonical JSON of ``SimStats.to_dict()``."""
    text = json.dumps(stats.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_cell(cell: cells.Cell, mode: str, tracer: Optional[spans.SpanTracer] = None) -> dict:
    """Build, warm and measure one cell; timings are host seconds."""
    config = cell.config
    if mode == "reference":
        config = replace(config, kernel="reference")
    clock = time.perf_counter
    start = clock()
    system = build_system(config, get_profile(cell.app))
    built = clock()
    if tracer is not None:
        spans.install(system, tracer)
    engine = engine_for(system)
    bound = clock()
    clocks = engine.warm()
    warmed = clock()
    if tracer is not None:
        tracer.reset()
    engine.measure(clocks)
    measured = clock()
    stats = system.stats
    summary = getattr(engine, "bulk_summary", None)
    result = {
        "name": cell.name,
        "engine": type(engine).__name__,
        "digest": digest(stats),
        "build_s": built - start,
        "engine_s": bound - built,
        "warm_s": warmed - bound,
        "measure_s": measured - warmed,
        "accesses": stats.l1_accesses,
        "bulk": summary() if summary is not None else None,
        "l1_hits": sum(h.l1_hits for h in system.caches.values()),
        "l2_hits": sum(h.l2_hits for h in system.caches.values()),
        "misses": sum(h.misses for h in system.caches.values()),
        "transactions": stats.coherence.transactions,
        "snoops": stats.coherence.snoops,
        "network_bytes": stats.network_bytes,
    }
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["root_children_ns"] = tracer.root_children_ns
    return result


def run_round(workload: str, seed: int, mode: str, smoke: bool = False) -> dict:
    """Every cell of ``workload`` in order; a raising cell is recorded."""
    tracer = spans.SpanTracer() if mode == "traced" else None
    results = []
    calibration = []
    with spans.module_seams(tracer) if tracer is not None else contextlib.nullcontext():
        for cell in cells.WORKLOADS[workload](seed, smoke):
            calibration += calibrate.sample()
            try:
                results.append(run_cell(cell, mode, tracer))
            except spans.SeamMissing:
                raise
            except Exception as exc:
                traceback.print_exc()
                results.append({"name": cell.name, "error": f"{type(exc).__name__}: {exc}"})
    calibration += calibrate.sample()
    return {"cells": results, "calibration_s": calibration}


def environment() -> dict:
    """What the measurement ran on, for the result files."""
    if HAVE_NUMPY:
        import numpy

        numpy_version = numpy.__version__
    else:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def main(argv) -> int:
    if (
        len(argv) not in (3, 4)
        or argv[0] not in cells.WORKLOADS
        or argv[2] not in MODES
        or argv[3:] not in ([], ["--smoke"])
    ):
        print(__doc__, file=sys.stderr)
        return 2
    output = run_round(argv[0], int(argv[1]), argv[2], smoke=len(argv) == 4)
    output["env"] = environment()
    output["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
