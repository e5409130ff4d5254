"""Parallel experiment fan-out across processes.

Every experiment in this repository is a *matrix* of independent
simulations: one (config, app) cell per paper data point, each fully
determined by its :class:`~repro.sim.config.SimConfig` (including its
seed). That independence makes the fan-out embarrassingly parallel —
and, more importantly, makes the parallel results **bit-identical** to
serial ones: a worker process builds its system from the pickled config
exactly as the serial path would, so every RNG stream and statistic is
reproduced exactly. Only wall-clock time changes.

Job-count resolution, in priority order:

1. an explicit ``jobs=N`` argument,
2. :func:`set_default_jobs` (the ``repro-sim --jobs N`` CLI flag),
3. the ``REPRO_JOBS`` environment variable (``auto`` or ``0`` means
   one job per CPU),
4. serial (``jobs=1``).

``jobs=1`` never spawns processes: the same attempt function runs
inline, so the serial path *is* the parallel path minus the worker
processes, and there is no separate code path to drift.

One executor and campaigns
--------------------------

Every campaign, the simulated matrices and the scheduler studies
alike, fans out through :func:`run_matrix_detailed` (underneath
:func:`run_matrix`) and its one executor: one worker process per cell,
at most ``jobs`` alive, exceptions captured per cell as text, a dead
worker detected through pipe EOF and exit code, per-cell retries, a
wall-clock timeout, and Ctrl-C terminating the workers still running
(:class:`CampaignInterrupted`). A simulated cell returns a
:class:`CellReport` with its statistics, so no per-cell fact goes
through a module global.

A task is a ``NamedTuple`` whose fields are its identity: a
:class:`SimTask`, or any task of the same shape (a ``result_type``
with ``to_dict``/``from_dict`` and a ``describe()`` of its manifest
columns, like :class:`repro.experiments.sched_study.SchedTask`) run by
a custom ``task_fn``. With ``checkpoint_dir`` set, the directory is
opened as a :class:`~repro.store.ResultStore` (the *campaign store*):
every completed cell becomes an ordinary result entry at
``DIR/results/<key>.json``, keyed by a stable hash of the task's
fields, so re-running the same matrix skips the already-done cells.
The entries carry the same ``STATE_VERSION``, key and identity checks
as the global store, and because the JSON round trip through the
result's ``to_dict`` is lossless, a resumed matrix is bit-identical to
an uninterrupted serial run. A ``manifest-*.json`` per matrix records
what ran: tasks, seeds, job count, git revision, per-cell wall-clock,
failures and the store traffic of this matrix's cells; a simulated
cell adds its warm/measure split and µs/access. The campaign directory
defaults to the ``REPRO_CAMPAIGN_DIR`` environment variable, or to the
:func:`set_campaign` settings installed by ``repro-sim experiment
--out/--resume/--retries/--task-timeout``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
import traceback
from collections import deque
from enum import Enum
from functools import partial, reduce
from multiprocessing import connection
from pathlib import Path
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.sim.config import SimConfig
from repro.sim.stats import SimStats
from repro.sim.system import SnapshotMismatch, build_system
from repro.sim.kernel import engine_for
from repro.store import ResultStore, get_store, snapshots_enabled
from repro.workloads import get_profile

JOBS_ENV_VAR = "REPRO_JOBS"
CAMPAIGN_ENV_VAR = "REPRO_CAMPAIGN_DIR"
MANIFEST_FORMAT = 1

_default_jobs: Optional[int] = None


class SimTask(NamedTuple):
    """One cell of an experiment matrix: run ``app`` under ``config``."""

    config: SimConfig
    app: str

    result_type = SimStats

    def describe(self) -> dict:
        """The cell's manifest columns."""
        config = self.config
        return {
            "app": self.app,
            "policy": config.snoop_policy.value,
            "content_policy": config.content_policy.value,
            "filter": config.filter_kind,
            "topology": config.topology,
            "num_cores": config.num_cores,
            "num_vms": config.num_vms,
            "migration_period_ms": config.migration_period_ms,
            "seed": config.seed,
        }


@dataclasses.dataclass(frozen=True)
class CellReport:
    """What one simulated cell measured besides its ``SimStats``.

    ``SimStats`` is byte-identical across kernels by contract, so
    engine-side facts travel here instead. Plain data only: the report
    is pickled back from worker processes and must not keep a system or
    engine alive.
    """

    # The batched engine's bulk_summary(); None on the reference engine.
    bulk: Optional[dict] = None
    # Global-store counter delta of this cell, counted in the process
    # that served it; None with the store off.
    store: Optional[dict] = None
    # Build + warm-up (or snapshot restore) and measured-phase seconds;
    # None when the cell was not simulated here.
    warm_seconds: Optional[float] = None
    measure_seconds: Optional[float] = None


def _traffic_since(store: Optional[ResultStore], before: dict) -> Optional[dict]:
    """The store's counter delta since ``before`` (None with the store off)."""
    if store is None:
        return None
    after = store.counters()
    return {name: after[name] - before[name] for name in after}


def _add_traffic(a: Optional[dict], b: Optional[dict]) -> Optional[dict]:
    """Sum two counter deltas; None (store off) adds nothing."""
    if a is None or b is None:
        return b if a is None else a
    return {name: a[name] + b[name] for name in a}


def run_simulation_task(task: SimTask) -> SimStats:
    """Build, run and return the statistics of one task.

    Module-level and argument-picklable, so any executor path can run
    it; the serial and parallel paths run byte-for-byte the same code.

    Reuse, when a :mod:`repro.store` is configured (the default):

    * a stored **result** for this exact cell is returned directly;
    * otherwise a stored **warm-state snapshot** for the cell's warmup
      fingerprint replaces the warm-up phase (and a fresh warm-up is
      snapshotted for the next cell sharing the fingerprint).

    Both substitutions are bit-identical by construction — the result
    round-trips losslessly through ``SimStats.to_dict``, and the
    snapshot-differential tests prove restored ≡ straight for every
    policy. Sanitized runs never *consume* snapshots (the sanitizer's
    shadow state is built by observing the warm-up, which a restore
    skips) but still produce them — the architectural state is
    unaffected by the pure-observer sanitizer.
    """
    store = get_store()
    if store is not None:
        stats = store.load_result(
            task_key(task), task.app, config_to_dict(task.config)
        )
        if stats is not None:
            return stats
    return _simulate_and_save(task)[0]


def _simulate_and_save(task: SimTask) -> Tuple[SimStats, CellReport]:
    """Simulate one cell and save it to the global store, without a lookup.

    :func:`run_matrix_detailed` runs this directly on cells its own
    lookup already missed, so a cell is looked up once, not again in
    the worker.
    """
    stats, report = run_cell(task)
    store = get_store()
    if store is not None:
        store.save_result(
            task_key(task), task.app, config_to_dict(task.config), stats
        )
    return stats, report


def run_cell(task: SimTask) -> Tuple[SimStats, CellReport]:
    """Build, warm and measure one cell; return its stats and report.

    No result-store layer: the cell always runs (warm-state snapshots
    still apply, through :func:`prepare_task`). ``repro-sim profile``
    runs exactly this under cProfile.
    """
    store = get_store()
    before = store.counters() if store is not None else {}
    start = time.perf_counter()
    system, engine, clocks = prepare_task(task)
    warmed = time.perf_counter()
    engine.measure(clocks)
    end = time.perf_counter()
    bulk_summary = getattr(engine, "bulk_summary", None)
    report = CellReport(
        bulk=bulk_summary() if bulk_summary is not None else None,
        store=_traffic_since(store, before),
        warm_seconds=warmed - start,
        measure_seconds=end - warmed,
    )
    return system.stats, report


def prepare_task(task: SimTask):
    """Build a system and bring it to the measurement boundary.

    Returns ``(system, engine, clocks)`` with the warm-up done — served
    from a stored warm-state snapshot when one matches the task's warmup
    fingerprint, run (and snapshotted for the next sharer) otherwise.
    Callers that need the live system (tracing, sanitizing, profiling)
    use this directly and then run ``engine.measure(clocks)``;
    :func:`run_simulation_task` adds the result-store layer on top.
    """
    store = get_store()
    system = build_system(task.config, get_profile(task.app))
    engine = engine_for(system)
    clocks = None
    fingerprint_key = fingerprint = None
    if (
        store is not None
        and snapshots_enabled()
        and task.config.warmup_accesses_per_vcpu > 0
    ):
        fingerprint_key, fingerprint = warmup_fingerprint(task)
        if not task.config.sanitize:
            state = store.load_snapshot(fingerprint_key, task.app, fingerprint)
            if state is not None:
                try:
                    clocks = engine.restore_warm(state)
                except SnapshotMismatch as exc:
                    # Raised before any mutation: warming this system is
                    # still safe.
                    store.reject_snapshot(fingerprint_key, str(exc))
                except Exception as exc:
                    # Mutation-phase failure (malformed plain data): the
                    # system may be half-restored, so rebuild it.
                    store.reject_snapshot(
                        fingerprint_key,
                        f"restore failed ({exc.__class__.__name__}: {exc})",
                    )
                    system = build_system(task.config, get_profile(task.app))
                    engine = engine_for(system)
                    clocks = None
    if clocks is None:
        clocks = engine.warm()
        if fingerprint_key is not None:
            store.save_snapshot(
                fingerprint_key, task.app, fingerprint, system.snapshot(clocks)
            )
    return system, engine, clocks


def parse_jobs(value: Optional[str]) -> int:
    """Interpret a ``--jobs`` / ``REPRO_JOBS`` value.

    ``None``/empty means serial; ``auto`` or ``0`` means one job per
    available CPU; anything else must be a positive integer.
    """
    if value is None or value == "":
        return 1
    text = str(value).strip().lower()
    if text in ("auto", "0"):
        return os.cpu_count() or 1
    try:
        jobs = int(text)
    except ValueError:
        raise ValueError(f"jobs must be >= 1 or 'auto', got {value!r}") from None
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 or 'auto', got {value!r}")
    return jobs


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default job count (``None`` restores env/serial)."""
    global _default_jobs
    _default_jobs = jobs


def default_jobs() -> int:
    """The job count used when a call site passes ``jobs=None``."""
    if _default_jobs is not None:
        return _default_jobs
    return parse_jobs(os.environ.get(JOBS_ENV_VAR))


# ----------------------------------------------------------------------
# Campaign settings (campaign directory, retries, timeout).
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CampaignSettings:
    """Process-wide defaults applied when a matrix call omits them."""

    checkpoint_dir: Optional[str] = None
    retries: int = 0
    task_timeout: Optional[float] = None
    progress: bool = False


_campaign: Optional[CampaignSettings] = None


def set_campaign(settings: Optional[CampaignSettings]) -> None:
    """Install campaign defaults (``None`` restores env-derived defaults)."""
    global _campaign
    _campaign = settings


def campaign_settings() -> CampaignSettings:
    """The campaign defaults in effect for ``run_matrix*`` calls."""
    if _campaign is not None:
        return _campaign
    env_dir = os.environ.get(CAMPAIGN_ENV_VAR) or None
    return CampaignSettings(checkpoint_dir=env_dir)


# ----------------------------------------------------------------------
# Errors and per-task results.
# ----------------------------------------------------------------------


class TaskError(RuntimeError):
    """A :func:`run_matrix` cell failed; carries the failing TaskResult."""

    def __init__(self, result: "TaskResult") -> None:
        task = result.task
        columns = task.describe()
        super().__init__(
            f"simulation task {result.index} (app={task.app!r}, "
            f"policy={columns['policy']}, "
            f"seed={columns['seed']}) failed after "
            f"{result.attempts} attempt(s):\n{result.error}"
        )
        self.result = result
        self.task = task
        self.index = result.index


class CampaignInterrupted(KeyboardInterrupt):
    """Ctrl-C during a matrix; ``results`` holds the partial outcome.

    Subclasses :class:`KeyboardInterrupt` so existing ``except
    KeyboardInterrupt`` handlers (and the default traceback-and-exit)
    still apply; cells not finished carry an ``interrupted`` error.
    """

    def __init__(self, results: List["TaskResult"]) -> None:
        done = sum(1 for r in results if r.ok)
        super().__init__(f"campaign interrupted with {done}/{len(results)} cells done")
        self.results = results


class TaskResult(NamedTuple):
    """Outcome of one matrix cell, successful or not."""

    index: int
    task: Any  # a SimTask, or another task run by a custom task_fn
    stats: Any  # the task's result_type instance; None on failure
    error: Optional[str]  # traceback / reason text; None on success
    attempts: int
    wall_seconds: float
    from_checkpoint: bool
    # Served by the cross-run result store (repro.store) without running.
    from_store: bool = False
    # The cell's report: on every cell of a real-simulation matrix (a
    # store-served or failed cell's report holds only its store lookup),
    # None under a custom task_fn.
    diagnostics: Optional[CellReport] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.stats is not None


# ----------------------------------------------------------------------
# Stable task identity (result-entry keys).
# ----------------------------------------------------------------------


def config_to_dict(config: Any) -> dict:
    """A JSON-serializable dict of every config dataclass field (enums by value)."""
    out = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        out[field.name] = value.value if isinstance(value, Enum) else value
    return out


def _identity(task) -> dict:
    """Every field of a task as JSON data, config dataclasses as dicts."""
    return {
        name: config_to_dict(value) if dataclasses.is_dataclass(value) else value
        for name, value in task._asdict().items()
    }


def _entry_config(task) -> dict:
    """What a store entry embeds beside its app for the collision check.

    A :class:`SimTask`'s config dict (the shape of every stored
    simulation cell), and every other identity field of any other task.
    """
    if isinstance(task, SimTask):
        return config_to_dict(task.config)
    return {name: value for name, value in _identity(task).items() if name != "app"}


def task_key(task) -> str:
    """Stable content hash of one cell's fields.

    The key depends only on field values — not on object identity or
    field declaration order — so the same logical cell maps to the same
    result entry across processes, sessions and matrices. A
    :class:`SimTask` hashes ``{"app", "config"}``.
    """
    text = json.dumps(_identity(task), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


WARMUP_INERT_FIELDS = frozenset(
    {
        # Migrations are disabled during warm-up; the measured-phase
        # schedule is recomputed from the post-warm-up clocks.
        "migration_period_ms",
        # Measured-phase budget only (the workload coverage cap uses the
        # *warm-up* budget, which stays in the fingerprint).
        "accesses_per_vcpu",
        # Observability begins at the measurement boundary and its
        # observers never perturb architectural state or RNG draws.
        "trace",
        "trace_format",
        "metrics_sample_every",
        # The sanitizer is a pure observer too; sanitized runs are
        # instead barred from *consuming* snapshots (their shadow state
        # must observe the warm-up), see run_simulation_task.
        "sanitize",
        "sanitize_mode",
        # Kernel choice is bit-identical by construction (the batched
        # kernel's whole contract), so warm snapshots are interchangeable
        # across kernels — a differential run warms once and forks.
        "kernel",
    }
)
"""Config fields provably inert before measurement begins.

Everything else — policies, thresholds, cache geometry, seeds, VM
shapes, the warm-up budget itself — changes the post-warm-up state and
stays in the fingerprint. Per-field rationale lives in DESIGN.md's
reuse-layer section; when in doubt, leave a field in the fingerprint
(a too-wide fingerprint only costs redundant warm-ups, a too-narrow one
serves wrong state).
"""


def warmup_fingerprint(task: SimTask) -> tuple:
    """(key, payload) identifying the post-warm-up state of a cell.

    Two cells differing only in :data:`WARMUP_INERT_FIELDS` share a
    fingerprint, so a period sweep (or an observability re-run) warms
    once and forks. Hashed exactly like :func:`task_key`.
    """
    fingerprint = {
        name: value
        for name, value in config_to_dict(task.config).items()
        if name not in WARMUP_INERT_FIELDS
    }
    payload = {"app": task.app, "warmup_config": fingerprint}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16], fingerprint


# ----------------------------------------------------------------------
# Run manifest.
# ----------------------------------------------------------------------


def _git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def _seconds(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 3)


def _manifest_entry(result: TaskResult, key: str) -> dict:
    task = result.task
    report = result.diagnostics or CellReport()
    entry = {
        "key": key,
        "index": result.index,
        **task.describe(),
        "ok": result.ok,
        "from_checkpoint": result.from_checkpoint,
        "from_store": result.from_store,
        "attempts": result.attempts,
        "wall_seconds": round(result.wall_seconds, 3),
        "warm_seconds": _seconds(report.warm_seconds),
        "measure_seconds": _seconds(report.measure_seconds),
        "error": result.error,
    }
    if task.result_type is not SimStats:
        return entry
    entry["us_per_access"] = None
    stats = result.stats
    if stats is not None:
        if stats.l1_accesses and not (result.from_checkpoint or result.from_store):
            entry["us_per_access"] = round(1e6 * result.wall_seconds / stats.l1_accesses, 3)
        # Consolidation-study scaling columns: how big the snoop maps
        # grew and what fraction of the broadcast snoops the filter
        # saved, per cell.
        if stats.snoop_map_sizes:
            sizes = stats.snoop_map_sizes.values()
            entry["snoop_map_avg_size"] = round(sum(sizes) / len(sizes), 3)
        if stats.coherence.transactions:
            # Same baseline convention as normalized_snoops_percent: a
            # broadcast protocol snoops every core on every transaction.
            broadcast_snoops = task.config.num_cores * stats.coherence.transactions
            entry["filtered_snoop_fraction"] = round(
                1.0 - stats.coherence.snoops / broadcast_snoops, 6
            )
    # Cells that ran on the batched kernel carry its bulk-miss seam
    # summary (inline transactions + per-reason bail-out histogram) —
    # engine diagnostics that by contract never appear in SimStats.
    if report.bulk is not None:
        entry["kernel_bulk"] = report.bulk
    # Cells run with a metrics recorder carry their time-series into the
    # manifest, so a campaign's temporal behaviour (Figures 7-9) is
    # inspectable without re-running anything.
    if stats is not None and stats.metrics is not None:
        entry["metrics"] = stats.metrics.to_dict()
    return entry


def _write_manifest(
    campaign_dir: Path,
    label: Optional[str],
    results: Sequence[TaskResult],
    keys: Sequence[str],
    jobs: int,
    interrupted: bool,
) -> Path:
    """Persist what this matrix ran; named by label or matrix digest."""
    if label is None:
        digest = hashlib.sha256("".join(keys).encode("utf-8")).hexdigest()[:8]
        name = f"manifest-{digest}.json"
    else:
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in label)
        name = f"manifest-{safe}.json"
    entries = [_manifest_entry(res, key) for res, key in zip(results, keys)]
    store = reduce(
        _add_traffic,
        (res.diagnostics.store for res in results if res.diagnostics is not None),
        None,
    )
    payload = {
        "format": MANIFEST_FORMAT,
        "label": label,
        "written": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_rev": _git_revision(),
        "jobs": jobs,
        "interrupted": interrupted,
        "totals": {
            "tasks": len(entries),
            "ok": sum(1 for e in entries if e["ok"]),
            "failed": sum(1 for e in entries if not e["ok"]),
            "from_checkpoint": sum(1 for e in entries if e["from_checkpoint"]),
            "from_store": sum(1 for e in entries if e["from_store"]),
            "wall_seconds": round(sum(e["wall_seconds"] for e in entries), 3),
        },
        # Global-store traffic of this matrix's cells, each counted in
        # the process that served it: the same at any job count.
        "store": store,
        "failures": [e["key"] for e in entries if not e["ok"]],
        "tasks": entries,
    }
    path = campaign_dir / name
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


# ----------------------------------------------------------------------
# Heartbeat progress.
# ----------------------------------------------------------------------


class _Progress:
    """Rate-limited done/total + ETA lines on stderr."""

    def __init__(
        self,
        total: int,
        resumed: int,
        enabled: bool,
        label: Optional[str],
        min_interval: float = 2.0,
    ) -> None:
        self.total = total
        self.done = resumed
        self.resumed = resumed
        self.failed = 0
        self.enabled = enabled
        self.prefix = f"[campaign:{label}]" if label else "[campaign]"
        self.min_interval = min_interval
        self.start = time.monotonic()
        self.last_emit = 0.0
        if enabled and resumed:
            print(
                f"{self.prefix} resumed {resumed}/{total} cells from stored results",
                file=sys.stderr,
            )

    def completed(self, result: TaskResult) -> None:
        self.done += 1
        if not result.ok:
            self.failed += 1
        if not self.enabled:
            return
        now = time.monotonic()
        if self.done < self.total and now - self.last_emit < self.min_interval:
            return
        self.last_emit = now
        elapsed = now - self.start
        fresh = self.done - self.resumed
        if fresh > 0 and self.done < self.total:
            eta = f", eta {elapsed / fresh * (self.total - self.done):.0f}s"
        else:
            eta = ""
        failed = f", {self.failed} failed" if self.failed else ""
        print(
            f"{self.prefix} {self.done}/{self.total} done{failed}, "
            f"{elapsed:.0f}s elapsed{eta}",
            file=sys.stderr,
        )


# ----------------------------------------------------------------------
# The executor.
# ----------------------------------------------------------------------


class _Outcome(NamedTuple):
    """One item's run through the executor: its value or its failure."""

    value: object  # what fn returned; None on failure
    error: Optional[str]  # traceback or reason text; None on success
    attempts: int
    wall_seconds: float


def _resolve_jobs(jobs: Optional[int], count: int) -> int:
    """The job count for ``count`` items: the default, capped to the items."""
    if jobs is None:
        jobs = default_jobs()
    return max(1, min(jobs, count)) if count else 1


def _attempt_cell(fn, item, retries) -> _Outcome:
    """Run one item, retrying a failure in place up to ``retries`` times.

    Only ``Exception`` is captured, so ``KeyboardInterrupt`` propagates.
    A failure travels as its traceback text, which any worker can send
    back, whether or not the exception itself would unpickle.
    """
    start = time.perf_counter()
    for attempts in range(1, max(retries, 0) + 2):
        try:
            value = fn(item)
        except Exception:
            error = traceback.format_exc()
        else:
            return _Outcome(value, None, attempts, time.perf_counter() - start)
    return _Outcome(None, error, attempts, time.perf_counter() - start)


def _worker(conn, fn, item, retries):
    """Worker-process body: run one item with retries, report over the pipe."""
    conn.send(_attempt_cell(fn, item, retries))
    conn.close()


def _run_serial(fn, items, indices, retries, on_complete):
    """Inline execution; identical capture semantics, no processes.

    ``KeyboardInterrupt`` propagates to the caller after the completed
    items have been reported (and, for a campaign, saved).
    """
    for i in indices:
        on_complete(i, _attempt_cell(fn, items[i], retries))


def _run_parallel(fn, items, indices, jobs, retries, task_timeout, on_complete):
    """One worker process per item, at most ``jobs`` alive at a time.

    Process-per-item (rather than a shared pool) is what makes the
    guarantees enforceable: an item that exceeds ``task_timeout`` is
    terminated without disturbing its siblings, a worker that dies
    abruptly is detected through pipe EOF + exit code, and Ctrl-C
    terminates exactly the processes still running.
    """
    ctx = multiprocessing.get_context()
    queue = deque(indices)
    running = {}  # index -> (process, parent_conn, monotonic start)
    try:
        while queue or running:
            while queue and len(running) < jobs:
                i = queue.popleft()
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_worker, args=(child_conn, fn, items[i], retries)
                )
                proc.start()
                child_conn.close()
                running[i] = (proc, parent_conn, time.monotonic())
            by_conn = {conn: i for i, (_, conn, _) in running.items()}
            ready = connection.wait(list(by_conn), timeout=0.25)
            now = time.monotonic()
            for conn in ready:
                i = by_conn[conn]
                proc, _, started = running.pop(i)
                try:
                    outcome = conn.recv()
                except EOFError:
                    outcome = None  # the worker died without reporting
                finally:
                    conn.close()
                proc.join()
                if outcome is None:
                    reason = f"worker died before reporting a result (exit code {proc.exitcode})"
                    outcome = _Outcome(None, reason, 1, now - started)
                on_complete(i, outcome)
            if task_timeout is not None:
                for i, (proc, conn, started) in list(running.items()):
                    if now - started >= task_timeout:
                        proc.terminate()
                        proc.join()
                        conn.close()
                        del running[i]
                        reason = f"timed out after {task_timeout:g}s"
                        on_complete(i, _Outcome(None, reason, 1, now - started))
    except BaseException:
        for proc, _, _ in running.values():
            proc.terminate()
        for proc, conn, _ in running.values():
            proc.join()
            conn.close()
        raise


def _execute(fn, items, indices, jobs, retries, task_timeout, on_complete):
    """Run ``fn`` on ``items[i]`` for each index; ``on_complete(i, outcome)``.

    ``task_timeout`` needs worker processes to enforce, so it is ignored
    on the inline ``jobs=1`` path.
    """
    if jobs == 1:
        _run_serial(fn, items, indices, retries, on_complete)
    else:
        _run_parallel(fn, items, indices, jobs, retries, task_timeout, on_complete)


# ----------------------------------------------------------------------
# Fan-out entry points.
# ----------------------------------------------------------------------


def _without_report(task_fn, task):
    """Adapt a custom ``task_fn`` to the ``(stats, report)`` shape."""
    return task_fn(task), None


def run_matrix_detailed(
    tasks: Sequence[Any],
    jobs: Optional[int] = None,
    *,
    retries: Optional[int] = None,
    task_timeout: Optional[float] = None,
    checkpoint_dir: Optional[str] = None,
    label: Optional[str] = None,
    task_fn: Callable[[Any], Any] = run_simulation_task,
    progress: Optional[bool] = None,
) -> List[TaskResult]:
    """Run a matrix with per-cell fault isolation; never loses a cell.

    Returns one :class:`TaskResult` per task, index-aligned. A cell that
    raises (or whose worker dies, or exceeds ``task_timeout``) yields a
    result with ``error`` set while every other cell completes normally.
    ``retries`` reruns a failing cell in place before recording it.

    With ``checkpoint_dir``, the directory is a campaign store
    (:class:`~repro.store.ResultStore`): completed cells are saved as
    result entries and served on the next run (``from_checkpoint=True``),
    and a manifest is written when the matrix finishes — or is
    interrupted, in which case :class:`CampaignInterrupted` carries the
    partial results.

    ``task_fn`` runs one cell; a custom one runs any task of the shape
    the module docstring describes, and is served campaign entries
    only, never global ones. ``task_timeout`` needs worker processes to
    enforce, so it is ignored on the inline ``jobs=1`` path.
    """
    tasks = list(tasks)
    settings = campaign_settings()
    if checkpoint_dir is None:
        checkpoint_dir = settings.checkpoint_dir
    if retries is None:
        retries = settings.retries
    if task_timeout is None:
        task_timeout = settings.task_timeout
    if progress is None:
        progress = settings.progress
    jobs = _resolve_jobs(jobs, len(tasks))

    keys = [task_key(task) for task in tasks]
    configs = [_entry_config(task) for task in tasks]
    results: List[Optional[TaskResult]] = [None] * len(tasks)
    campaign = ResultStore(Path(checkpoint_dir)) if checkpoint_dir else None
    if campaign is not None:
        campaign.root.mkdir(parents=True, exist_ok=True)
    # The global store holds run_simulation_task results; a custom task_fn
    # computes something else, so it is never served global entries
    # (campaign entries are per-campaign and stay the caller's
    # responsibility to scope). The real simulation skips
    # run_simulation_task's own lookup: cells reaching the executor have
    # already missed the one below.
    simulate = task_fn is run_simulation_task
    if simulate:
        store = get_store()
        run_fn = _simulate_and_save
    else:
        store = None
        run_fn = partial(_without_report, task_fn)
    stores = [s for s in (campaign, store) if s is not None]
    # A simulated cell's report starts with the global-store traffic of
    # its one lookup here; the worker adds the traffic of its own run.
    lookups: List[Optional[CellReport]] = [None] * len(tasks)
    to_run: List[int] = []
    for i, task in enumerate(tasks):
        before = store.counters() if store is not None else {}
        found = [
            s.load_result(keys[i], task.app, configs[i], task.result_type)
            for s in stores
        ]
        if simulate:
            lookups[i] = CellReport(store=_traffic_since(store, before))
        stats = next((hit for hit in found if hit is not None), None)
        if stats is None:
            to_run.append(i)
            continue
        # One promote rule: the hit is saved into whichever store missed,
        # so the next run (this campaign or any other) finds it there.
        for s, hit in zip(stores, found):
            if hit is None:
                s.save_result(keys[i], task.app, configs[i], stats)
        from_checkpoint = campaign is not None and found[0] is not None
        results[i] = TaskResult(
            i, task, stats, None, 0, 0.0, from_checkpoint, not from_checkpoint,
            diagnostics=lookups[i],
        )

    reporter = _Progress(
        total=len(tasks),
        resumed=len(tasks) - len(to_run),
        enabled=bool(progress),
        label=label,
    )

    def on_complete(i: int, outcome: _Outcome) -> None:
        stats, report = outcome.value or (None, None)
        if report is not None:  # a simulated cell: add its lookup's traffic
            traffic = _add_traffic(lookups[i].store, report.store)
            report = dataclasses.replace(report, store=traffic)
        result = TaskResult(
            i, tasks[i], stats, outcome.error, outcome.attempts,
            outcome.wall_seconds, False, diagnostics=report or lookups[i],
        )
        if result.ok and campaign is not None:
            campaign.save_result(keys[i], tasks[i].app, configs[i], stats)
        results[i] = result
        reporter.completed(result)

    try:
        _execute(run_fn, tasks, to_run, jobs, retries, task_timeout, on_complete)
    except KeyboardInterrupt:
        unfinished = [
            res
            if res is not None
            else TaskResult(
                i, tasks[i], None, "interrupted before completion", 0, 0.0, False,
                diagnostics=lookups[i],
            )
            for i, res in enumerate(results)
        ]
        if campaign is not None:
            _write_manifest(campaign.root, label, unfinished, keys, jobs, interrupted=True)
        raise CampaignInterrupted(unfinished) from None

    final = [res for res in results if res is not None]
    assert len(final) == len(tasks), "executor lost a cell"
    if campaign is not None:
        _write_manifest(campaign.root, label, final, keys, jobs, interrupted=False)
    return final


def run_matrix(
    tasks: Sequence[Any],
    jobs: Optional[int] = None,
    *,
    retries: Optional[int] = None,
    task_timeout: Optional[float] = None,
    checkpoint_dir: Optional[str] = None,
    label: Optional[str] = None,
    task_fn: Callable[[Any], Any] = run_simulation_task,
) -> List[Any]:
    """Run an experiment matrix; results align index-for-index with tasks.

    Built on :func:`run_matrix_detailed`, so the campaign store, retries
    and interrupt handling apply; a cell that still fails raises
    :class:`TaskError` identifying the task (after every other cell has
    completed — and, with a campaign directory, been saved).

    ``label`` names the matrix in campaign manifests and progress lines
    when a campaign directory is active (``repro-sim experiment --out``
    or ``REPRO_CAMPAIGN_DIR``); its stored cells are skipped on resume.
    """
    detailed = run_matrix_detailed(
        tasks,
        jobs=jobs,
        retries=retries,
        task_timeout=task_timeout,
        checkpoint_dir=checkpoint_dir,
        label=label,
        task_fn=task_fn,
    )
    for result in detailed:
        if not result.ok:
            raise TaskError(result)
    return [result.stats for result in detailed]
