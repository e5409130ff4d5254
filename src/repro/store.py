"""Result store: compute each simulation cell once, ever.

A :class:`ResultStore` is a content-addressed directory holding two
kinds of entries. The process-wide *global* store (:func:`get_store`)
lives at ``~/.cache/repro`` unless the ``REPRO_STORE`` environment
variable points elsewhere or turns it off. A campaign directory
(``repro-sim experiment --out DIR``) is opened as a second, per-campaign
``ResultStore`` whose result entries make the campaign resumable; see
:func:`repro.sim.runner.run_matrix_detailed`. Both are the same class
with the same on-disk layout and the same checks.

* **results** — ``results/<key>.json``: the ``SimStats`` of one
  (config, app) cell, keyed by the stable ``task_key`` hash. Any entry
  point that funnels through :func:`repro.sim.runner.run_simulation_task`
  — ``run_matrix``, the CLI ``run``/``experiment`` subcommands, every
  experiment driver and the paper-figure suite under ``benchmarks/`` —
  reuses them. The repo benchmark ``bench/`` does not: it builds
  systems directly and runs with the store off.
* **warm-state snapshots** — ``snapshots/<key>.pkl``: the post-warmup
  architectural state of a simulated system
  (:meth:`repro.sim.system.SimulatedSystem.snapshot`), keyed by a
  *warmup fingerprint*: the config minus fields provably inert before
  measurement begins. A period sweep warms once and forks.

Trust model
-----------

Every entry embeds three things the loader verifies before serving:

1. ``state_version`` — the :data:`STATE_VERSION` stamp below, bumped by
   hand whenever simulation semantics change. A stale entry is *not* a
   cache hit for the new semantics, however well it parses.
2. its own key — guards against files renamed or copied into place.
3. the full identity payload (config dict + app) that produced the key —
   guards against the 64-bit truncated hash colliding: two different
   configs mapping to the same key are detected by comparing the configs
   themselves, and the entry is skipped rather than served to the wrong
   cell.

A failed check is **skipped loudly**: one line on stderr naming the
entry and the reason, a bump of the ``skipped`` counter, and a miss —
never silent, because a store serves many campaigns and a corrupt entry
would otherwise cost every one of them a recompute with no trace of
why.

Hit/miss/skip counters accumulate per store instance, in the process
that served the traffic. Each simulated cell's report carries the delta
its cell caused; campaign manifests sum those over the matrix and
``repro-sim profile`` prints its cell's, so reuse wins are visible
instead of inferred.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at runtime: repro.sim.runner imports this module
    # at import time, so a top-level import of anything under repro.sim
    # would be circular whenever repro.store is imported first.
    from repro.sim.stats import SimStats

STORE_ENV_VAR = "REPRO_STORE"
SNAPSHOT_ENV_VAR = "REPRO_SNAPSHOTS"

# Bump whenever a change alters what any simulation computes (new
# coherence behaviour, workload generation change, stats semantics...).
# Entries stamped with an older version are skipped, never served.
# Performance-only rewrites that are proven bit-identical (e.g. by the
# golden corpus) do NOT need a bump. See DESIGN.md for the convention.
STATE_VERSION = 1

_DISABLED_VALUES = {"0", "off", "none", "disabled"}

_RESULT_FORMAT = 1
_SNAPSHOT_FORMAT = 1


def store_root() -> Optional[Path]:
    """The configured store directory, or ``None`` when disabled.

    Unset/empty ``REPRO_STORE`` means the default ``~/.cache/repro``;
    the sentinels ``0``/``off``/``none``/``disabled`` turn the store off
    entirely; anything else is used as the directory path.
    """
    raw = os.environ.get(STORE_ENV_VAR)
    if raw is None or raw.strip() == "":
        return Path.home() / ".cache" / "repro"
    if raw.strip().lower() in _DISABLED_VALUES:
        return None
    return Path(raw).expanduser()


def snapshots_enabled() -> bool:
    """Warm-state snapshot reuse toggle (``REPRO_SNAPSHOTS``, on by default)."""
    raw = os.environ.get(SNAPSHOT_ENV_VAR)
    if raw is None or raw.strip() == "":
        return True
    return raw.strip().lower() not in _DISABLED_VALUES


_store: Optional["ResultStore"] = None
_store_root: Optional[Path] = None


def get_store() -> Optional["ResultStore"]:
    """The process-wide store for the current ``REPRO_STORE`` setting.

    Memoised per resolved root so counters accumulate across calls, but
    re-resolved when the environment changes (tests repoint the store
    mid-process via monkeypatch).
    """
    # Safe in worker processes: the memo is idempotent per process (keyed
    # only by the REPRO_STORE environment each worker inherits), the
    # store itself is content-addressed on disk, and each cell's report
    # carries the counter delta of its own traffic back to the parent —
    # workers never need to see each other's in-memory handle.
    global _store, _store_root
    root = store_root()
    if root is None:
        _store, _store_root = None, None
        return None
    if _store is None or _store_root != root:
        _store = ResultStore(root)
        _store_root = root
    return _store


class ResultStore:
    """One on-disk store directory; see the module docstring."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.results_dir = self.root / "results"
        self.snapshots_dir = self.root / "snapshots"
        # Result traffic.
        self.hits = 0
        self.misses = 0
        self.skipped = 0
        # Snapshot traffic (separate: a snapshot hit saves a warm-up, a
        # result hit saves a whole cell; conflating them would hide both).
        self.snapshot_hits = 0
        self.snapshot_misses = 0
        self.snapshot_skipped = 0

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------

    def _result_path(self, key: str) -> Path:
        return self.results_dir / f"{key}.json"

    def load_result(
        self, key: str, app: str, config_dict: dict
    ) -> Optional["SimStats"]:
        """The stored stats for this exact cell, or ``None``.

        Counts a hit, a miss (no entry), or a loud skip (entry present
        but unservable: wrong version, wrong key, identity mismatch,
        corrupt JSON).
        """
        from repro.sim.stats import SimStats

        path = self._result_path(key)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(text)
            reason = self._check_result(payload, key, app, config_dict)
            if reason is None:
                return self._hit(SimStats.from_dict(payload["stats"]))
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"corrupt entry ({exc.__class__.__name__}: {exc})"
        self._skip("result", path, reason)
        return None

    @staticmethod
    def _check_result(
        payload: object, key: str, app: str, config_dict: dict
    ) -> Optional[str]:
        if not isinstance(payload, dict):
            return "corrupt entry (not a JSON object)"
        if payload.get("state_version") != STATE_VERSION:
            return (
                f"state_version {payload.get('state_version')!r} != "
                f"current {STATE_VERSION}"
            )
        if payload.get("format") != _RESULT_FORMAT:
            return f"format {payload.get('format')!r} != {_RESULT_FORMAT}"
        if payload.get("key") != key:
            return f"embedded key {payload.get('key')!r} != expected {key!r}"
        if payload.get("app") != app or payload.get("config") != config_dict:
            # The truncated hash collided: same key, different cell.
            return "key collision (embedded config/app differs from requested cell)"
        if "stats" not in payload:
            return "corrupt entry (no stats)"
        return None

    def save_result(self, key: str, app: str, config_dict: dict, stats: "SimStats") -> None:
        """Persist one cell atomically (rename over partial writes)."""
        payload = {
            "format": _RESULT_FORMAT,
            "state_version": STATE_VERSION,
            "key": key,
            "app": app,
            "config": config_dict,
            "stats": stats.to_dict(),
        }
        self.results_dir.mkdir(parents=True, exist_ok=True)
        path = self._result_path(key)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # Warm-state snapshots.
    # ------------------------------------------------------------------

    def _snapshot_path(self, fingerprint_key: str) -> Path:
        return self.snapshots_dir / f"{fingerprint_key}.pkl"

    def load_snapshot(
        self, fingerprint_key: str, app: str, fingerprint: dict
    ) -> Optional[dict]:
        """The stored post-warmup state for this fingerprint, or ``None``.

        Snapshots are plain-data dicts (every leaf a builtin type), so
        pickle round-trips them exactly; the same version/key/identity
        checks as results apply before anything is served.
        """
        path = self._snapshot_path(fingerprint_key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.snapshot_misses += 1
            return None
        try:
            payload = pickle.loads(raw)
            reason = self._check_snapshot(payload, fingerprint_key, app, fingerprint)
            if reason is None:
                self.snapshot_hits += 1
                return payload["state"]
        except Exception as exc:  # pickle raises wildly varied types
            reason = f"corrupt entry ({exc.__class__.__name__}: {exc})"
        self.snapshot_skipped += 1
        self._warn("snapshot", path, reason)
        return None

    def reject_snapshot(self, fingerprint_key: str, reason: str) -> None:
        """Turn a served snapshot that failed to restore into a loud skip."""
        self.snapshot_hits -= 1
        self.snapshot_skipped += 1
        self._warn("snapshot", self._snapshot_path(fingerprint_key), reason)

    @staticmethod
    def _check_snapshot(
        payload: object, key: str, app: str, fingerprint: dict
    ) -> Optional[str]:
        if not isinstance(payload, dict):
            return "corrupt entry (not a dict)"
        if payload.get("state_version") != STATE_VERSION:
            return (
                f"state_version {payload.get('state_version')!r} != "
                f"current {STATE_VERSION}"
            )
        if payload.get("format") != _SNAPSHOT_FORMAT:
            return f"format {payload.get('format')!r} != {_SNAPSHOT_FORMAT}"
        if payload.get("key") != key:
            return f"embedded key {payload.get('key')!r} != expected {key!r}"
        if payload.get("app") != app or payload.get("fingerprint") != fingerprint:
            return "key collision (embedded fingerprint/app differs)"
        if "state" not in payload:
            return "corrupt entry (no state)"
        return None

    def save_snapshot(
        self, fingerprint_key: str, app: str, fingerprint: dict, state: dict
    ) -> None:
        payload = {
            "format": _SNAPSHOT_FORMAT,
            "state_version": STATE_VERSION,
            "key": fingerprint_key,
            "app": app,
            "fingerprint": fingerprint,
            "state": state,
        }
        self.snapshots_dir.mkdir(parents=True, exist_ok=True)
        path = self._snapshot_path(fingerprint_key)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_bytes(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------

    def _hit(self, stats: "SimStats") -> "SimStats":
        self.hits += 1
        return stats

    def _skip(self, kind: str, path: Path, reason: Optional[str]) -> None:
        self.skipped += 1
        self._warn(kind, path, reason)

    @staticmethod
    def _warn(kind: str, path: Path, reason: Optional[str]) -> None:
        print(
            f"[repro.store] skipping {kind} {path.name}: {reason or 'unservable'}",
            file=sys.stderr,
        )

    def counters(self) -> dict:
        """Traffic so far, in manifest/profile-ready form."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "skipped": self.skipped,
            "snapshot_hits": self.snapshot_hits,
            "snapshot_misses": self.snapshot_misses,
            "snapshot_skipped": self.snapshot_skipped,
        }
