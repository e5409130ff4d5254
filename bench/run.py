"""The repository benchmark: cold simulator throughput on four workloads.

One workload, one JSON result as the last line of output::

    python3 bench/run.py --workload pinned-hits --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run repeats untraced passes over the workload's
cells for about ``--seconds`` and reports the end-to-end metrics as
medians over the passes. With ``--trace 1`` it repeats pairs of an
untraced and a traced pass and reports the per-layer metrics of the
pair whose traced measured phase is the median, plus one untraced
``kernel="reference"`` pass. End-to-end times are scaled to a
calibration loop's reference speed (``bench/calibrate.py``).

Every workload, ``--runs`` passes each, interleaved round-robin, then one
traced pass per workload; prints median/min/max per metric and writes
``bench/results/<rev>-seed<seed>.json``::

    python3 bench/run.py --runs 5 --seed 42

Every pass is a fresh child process (``bench/child.py``) and only one
runs at a time. Children run cold: the result store and warm-state
snapshots are off and no ``REPRO_*`` setting is inherited, so
``kernel="auto"`` resolves as it does for users.

Correctness: each cell's ``SimStats`` digest must equal the one in
``bench/expected.json`` (seeds 42 and 7, full size) or, for any other
seed or ``--smoke``, the digest of an untimed ``kernel="reference"`` run
of the same cell. A cell that raises or mismatches is a failed
operation, and the command exits non-zero. ``--update-expected``
rewrites ``bench/expected.json`` from reference runs.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import calibrate
import cells
import spans

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
RESULTS = HERE / "results"
EXPECTED_SEEDS = (42, 7)
# A pass takes a few seconds; this only stops a hung child.
CHILD_TIMEOUT_S = 150

WORKLOADS = tuple(cells.WORKLOADS)
END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_kaccess_per_s": "kaccess/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# The bulk-miss seam's bail-out reasons (BatchedEngine.bail_reasons).
BAIL_REASONS = (
    "gets-retry",
    "getm-contended",
    "page-type",
    "store-upgrade",
    "victim-cross-vm",
    "victim-dirty",
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ----------------------------------------------------------------------
# Child passes.
# ----------------------------------------------------------------------


def spawn(workload: str, seed: int, mode: str, smoke: bool) -> dict:
    """Run one pass in a fresh child process and return its JSON."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(REPRO_STORE="off", REPRO_SNAPSHOTS="off")
    command = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode]
    if smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(
            command,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(
            f"{workload} {mode} pass exceeded {CHILD_TIMEOUT_S}s"
        ) from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload} {mode} pass exited {proc.returncode}")
    return json.loads(lines[-1])


def repeat(fn: Callable[[], object], seconds: float) -> list:
    """Call ``fn`` at least once, and again while another call should
    still end within ``seconds`` of the first one's start."""
    results = []
    started = time.perf_counter()
    while True:
        call_started = time.perf_counter()
        results.append(fn())
        now = time.perf_counter()
        if now - started + (now - call_started) > seconds:
            return results


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------


def _ok(round_: dict) -> List[dict]:
    return [cell for cell in round_["cells"] if "error" not in cell]


def _scale(round_: dict) -> float:
    """Factor taking a pass's host seconds to the calibration loop's
    reference speed (see ``calibrate``)."""
    return calibrate.REFERENCE_S / statistics.median(round_["calibration_s"])


def end_to_end(round_: dict) -> Dict[str, float]:
    """The end-to-end metrics of one pass (cells summed), with times
    scaled by ``_scale`` to take the host's drift out of them."""
    ok = _ok(round_)
    scale = _scale(round_)
    setup_s = sum(c["build_s"] + c["engine_s"] + c["warm_s"] for c in ok)
    measure_s = sum(c["measure_s"] for c in ok)
    return {
        "wall_s": (setup_s + measure_s) * scale,
        "sim_kaccess_per_s": _ratio(sum(c["accesses"] for c in ok), measure_s * scale, 1e-3),
        "setup_s": setup_s * scale,
        "peak_rss_mb": round_["peak_rss_kib"] / 1024,
    }


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(untraced: dict, traced: dict, reference: dict) -> Dict[str, dict]:
    """Per-layer metrics from one untraced/traced pair and a reference pass.

    Layer ``_s`` rows are self times, so they and ``sim.loop_self_s``
    partition ``sim.measure_s`` of the traced pass. ``sim.build_s`` and
    ``sim.warm_s`` come from the untraced pass, as ``setup_s`` does.
    Times are raw host seconds.
    """
    t_cells, u_cells, r_cells = _ok(traced), _ok(untraced), _ok(reference)
    rows: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        rows[name] = {"value": value, "unit": unit}

    accesses = sum(c["accesses"] for c in t_cells)
    measure_s = sum(c["measure_s"] for c in t_cells)
    loop_self_s = measure_s - sum(c["root_children_ns"] for c in t_cells) / 1e9
    put("sim.build_s", sum(c["build_s"] + c["engine_s"] for c in u_cells), "s")
    put("sim.warm_s", sum(c["warm_s"] for c in u_cells), "s")
    put("sim.measure_s", measure_s, "s")
    put("sim.loop_self_s", loop_self_s, "s")
    put("sim.loop_self_ns_per_access", _ratio(loop_self_s, accesses, 1e9), "ns/access")
    transactions = sum(c["transactions"] for c in t_cells)
    bulks = [c["bulk"] for c in t_cells if c["bulk"] is not None]
    inline = sum(b["bulk_transacts"] for b in bulks)
    put("sim.bulk_inline", inline, "count")
    put("sim.bulk_inline_pct", _ratio(inline, transactions, 100.0), "%")
    for bulk in bulks:
        unknown = set(bulk["bailouts"]) - set(BAIL_REASONS)
        if unknown:
            raise HarnessError(f"unknown bulk-seam bail reasons {sorted(unknown)}")
    for reason in BAIL_REASONS:
        put(f"sim.bail.{reason}", sum(b["bailouts"].get(reason, 0) for b in bulks), "count")
    # Each pass scaled by its own calibration, so host drift between the
    # two passes does not read as tracing cost.
    traced_scaled = measure_s * _scale(traced)
    untraced_scaled = sum(c["measure_s"] for c in u_cells) * _scale(untraced)
    put(
        "sim.trace_overhead_pct",
        _ratio(traced_scaled - untraced_scaled, untraced_scaled, 100.0),
        "%",
    )
    # Scaled like sim_kaccess_per_s, so that the two kernels compare.
    put(
        "sim.reference_kaccess_per_s",
        _ratio(
            sum(c["accesses"] for c in r_cells),
            sum(c["measure_s"] for c in r_cells) * _scale(reference),
            1e-3,
        ),
        "kaccess/s",
    )

    def span_sum(layer: str, field: int) -> int:
        return sum(c["spans"][layer][field] for c in t_cells)

    for layer in spans.LAYERS:
        put(f"{layer}_calls", span_sum(layer, 0), "count")
        put(f"{layer}_s", span_sum(layer, 2) / 1e9, "s")
    generation_ns = sum(
        span_sum(layer, 2)
        for layer in ("workloads.word_raw", "workloads.word_decode", "workloads.stream_chunk")
    )
    put("workloads.gen_ns_per_access", _ratio(generation_ns, accesses), "ns/access")
    put(
        "core.plan_ns_per_call",
        _ratio(span_sum("core.plan", 1), span_sum("core.plan", 0)),
        "ns/call",
    )
    l1_hits = sum(c["l1_hits"] for c in t_cells)
    l2_hits = sum(c["l2_hits"] for c in t_cells)
    misses = sum(c["misses"] for c in t_cells)
    put("cache.l1_hits", l1_hits, "count")
    put("cache.l2_hits", l2_hits, "count")
    put("cache.misses", misses, "count")
    put("cache.miss_pct", _ratio(misses, l1_hits + l2_hits + misses, 100.0), "%")
    put("coherence.transactions", transactions, "count")
    put("coherence.snoops", sum(c["snoops"] for c in t_cells), "count")
    put("interconnect.bytes", sum(c["network_bytes"] for c in t_cells), "B")
    return rows


# ----------------------------------------------------------------------
# Correctness.
# ----------------------------------------------------------------------


def digests(round_: dict) -> Dict[str, Optional[str]]:
    return {c["name"]: c.get("digest") for c in round_["cells"]}


def check(rounds: List[dict], reference: Dict[str, Optional[str]], what: str) -> Tuple[int, int]:
    """(attempted, failed) cells of ``rounds`` against ``reference``."""
    attempted = failed = 0
    for round_ in rounds:
        for cell in round_["cells"]:
            attempted += 1
            problem = cell.get("error")
            if problem is None:
                want = reference.get(cell["name"])
                if want is None:
                    problem = "no reference digest"
                elif cell["digest"] != want:
                    problem = f"SimStats digest {cell['digest'][:12]} != {what} {want[:12]}"
            if problem is not None:
                failed += 1
                print(f"FAILED {cell['name']}: {problem}", file=sys.stderr)
    return attempted, failed


def verified_against(workload: str, seed: int, smoke: bool, reference_round=None):
    """Digests to check against, and what they are (for messages): the
    committed ones at full size for seeds 42 and 7, else a reference
    pass's (``reference_round``, or a fresh one)."""
    if not smoke and seed in EXPECTED_SEEDS:
        return json.loads(EXPECTED.read_text())[str(seed)][workload], "expected"
    if reference_round is None:
        reference_round = spawn(workload, seed, "reference", smoke)
    return digests(reference_round), "reference"


# ----------------------------------------------------------------------
# Modes.
# ----------------------------------------------------------------------


def trace_pass(workload: str, seed: int, smoke: bool, seconds: float, rounds=()):
    """Per-layer metrics and (attempted, failed) for one workload.

    ``rounds`` are earlier untraced passes to check along with the
    pairs, against the same reference.
    """
    pairs = repeat(
        lambda: (spawn(workload, seed, "plain", smoke), spawn(workload, seed, "traced", smoke)),
        seconds,
    )
    reference_round = spawn(workload, seed, "reference", smoke)
    reference, what = verified_against(workload, seed, smoke, reference_round)
    attempted, failed = check(list(rounds) + [u for u, _ in pairs], reference, what)
    for untraced, traced in pairs:
        # Trace purity: the wrappers must not change what is simulated.
        more = check([traced], digests(untraced), "untraced")
        attempted += more[0]
        failed += more[1]
    pairs.sort(key=lambda pair: sum(c["measure_s"] for c in _ok(pair[1])))
    untraced, traced = pairs[(len(pairs) - 1) // 2]
    return layer_metrics(untraced, traced, reference_round), attempted, failed


def contract_run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    if trace:
        metrics, attempted, failed = trace_pass(workload, seed, smoke, seconds)
    else:
        rounds = repeat(lambda: spawn(workload, seed, "plain", smoke), seconds)
        reference, what = verified_against(workload, seed, smoke)
        attempted, failed = check(rounds, reference, what)
        per_round = [end_to_end(r) for r in rounds]
        metrics = {
            name: {
                "value": statistics.median(m[name] for m in per_round),
                "unit": unit,
            }
            for name, unit in END_TO_END_UNITS.items()
        }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


def summarise(values: List[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "values": values,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "iqr": quartiles[2] - quartiles[0],
        "n": len(values),
    }


def revision() -> str:
    """Short git revision, ``-dirty`` when the tree has changes."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=HERE, capture_output=True, text=True, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=HERE, capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev + ("-dirty" if status.strip() else "")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def results_path(rev: str, seed: int) -> Path:
    path = RESULTS / f"{rev}-seed{seed}.json"
    index = 2
    while path.exists():
        path = RESULTS / f"{rev}-seed{seed}-{index}.json"
        index += 1
    return path


def set_run(runs: int, seed: int, smoke: bool) -> int:
    rounds: Dict[str, List[dict]] = {w: [] for w in WORKLOADS}
    for _ in range(runs):
        for workload in WORKLOADS:
            rounds[workload].append(spawn(workload, seed, "plain", smoke))
    attempted = failed = 0
    per_layer = {}
    for workload in WORKLOADS:
        per_layer[workload], more_attempted, more_failed = trace_pass(
            workload, seed, smoke, seconds=0, rounds=rounds[workload]
        )
        attempted += more_attempted
        failed += more_failed
    end = {
        workload: {
            name: dict(
                summarise([end_to_end(r)[name] for r in rounds[workload]]), unit=unit
            )
            for name, unit in END_TO_END_UNITS.items()
        }
        for workload in WORKLOADS
    }
    # Each run's median calibration loop, so the scaled times can be
    # turned back into raw host seconds.
    calibration = {
        workload: [statistics.median(r["calibration_s"]) for r in rounds[workload]]
        for workload in WORKLOADS
    }

    print(f"end-to-end metrics, seed {seed}, median (min..max) over n={runs} runs")
    for workload in WORKLOADS:
        print(f"  {workload}")
        for name, row in end[workload].items():
            print(
                f"    {name:20s} {row['median']:10.4g} ({row['min']:.4g}..{row['max']:.4g})"
                f" {row['unit']}"
            )
    print("per-layer metrics (one traced pass)")
    print("  " + f"{'metric':34s}" + "".join(f"{w:>16s}" for w in WORKLOADS) + "  unit")
    for name, row in per_layer[WORKLOADS[0]].items():
        values = "".join(f"{per_layer[w][name]['value']:16.6g}" for w in WORKLOADS)
        print(f"  {name:34s}{values}  {row['unit']}")
    print(f"failed cells: {failed}/{attempted}")

    first = rounds[WORKLOADS[0]][0]
    rev = revision()
    payload = {
        "rev": rev,
        "seed": seed,
        "runs": runs,
        "smoke": smoke,
        "env": dict(
            first["env"], nproc=len(os.sched_getaffinity(0)), cpu_model=cpu_model()
        ),
        "engines": {
            w: {c["name"]: c.get("engine") for c in rounds[w][0]["cells"]}
            for w in WORKLOADS
        },
        "cells_attempted": attempted,
        "cells_failed": failed,
        "failure_share": failed / attempted,
        "end_to_end": end,
        "calibration_reference_s": calibrate.REFERENCE_S,
        "calibration_s": calibration,
        "per_layer": per_layer,
    }
    RESULTS.mkdir(exist_ok=True)
    path = results_path(rev, seed)
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {path.relative_to(HERE.parent)}")
    return 0 if failed == 0 else 1


def update_expected() -> int:
    data = {}
    for seed in EXPECTED_SEEDS:
        data[str(seed)] = {}
        for workload in WORKLOADS:
            found = digests(spawn(workload, seed, "reference", smoke=False))
            if None in found.values():
                raise HarnessError(f"{workload} seed {seed}: a reference cell raised")
            data[str(seed)][workload] = found
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED.relative_to(HERE.parent)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--smoke", action="store_true", help="tiny budgets (tests)")
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args(argv)
    # Exit through Python on SIGTERM so that subprocess.run kills and
    # reaps the running child instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.update_expected:
            return update_expected()
        if args.workload is not None:
            return contract_run(
                args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
            )
        if args.runs < 1:
            parser.error("--runs must be >= 1")
        return set_run(args.runs, args.seed, args.smoke)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
