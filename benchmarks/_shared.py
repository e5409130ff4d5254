"""Shared cached experiment runs for the benchmark harness.

Several paper artefacts come from the same simulation campaign (Table IV
and Figure 6; Figures 7, 8 and 9; Tables V and VI). Each campaign runs
once per benchmark session and is cached here so the harness regenerates
every table/figure without repeating multi-minute sweeps.

Two cache layers stack here:

* the ``lru_cache`` below — in-process, one entry per campaign, so two
  benchmarks sharing a campaign within a session never re-run it;
* the cross-run result store (``repro.store``) — on disk, one entry per
  (config, app) cell. Every campaign funnels through
  ``run_simulation_task``, so a second benchmark *session* against a
  warm store replays from disk instead of simulating. ``REPRO_STORE``
  points it elsewhere or disables it (``REPRO_STORE=off``) for honest
  cold timings; warm-state snapshot reuse rides along via
  ``REPRO_SNAPSHOTS``.

Set ``REPRO_FAST=1`` for a reduced-size smoke run of the whole suite.
Fast-mode campaigns scale both the measured and warm-up budgets, so
their store keys and warm-up fingerprints are distinct from full runs —
the two never serve each other's entries.
"""

from __future__ import annotations

from functools import lru_cache

from repro.experiments import (
    content_study,
    fig01_l2_decomposition,
    migration_study,
    pinned_study,
    sched_study,
)


@lru_cache(maxsize=None)
def sched_results():
    return sched_study.run()


@lru_cache(maxsize=None)
def pinned_results():
    return pinned_study.run()


@lru_cache(maxsize=None)
def migration_results_slow():
    """Figure 7 periods (5 / 2.5 ms); also feeds Figure 9."""
    return migration_study.run(periods_ms=migration_study.FIG7_PERIODS_MS)


@lru_cache(maxsize=None)
def migration_results_fast():
    """Figure 8 periods (0.5 / 0.1 ms)."""
    return migration_study.run(periods_ms=migration_study.FIG8_PERIODS_MS)


@lru_cache(maxsize=None)
def content_sharing_results():
    return content_study.run_sharing_stats()


@lru_cache(maxsize=None)
def content_policy_results():
    return content_study.run_policy_comparison()


@lru_cache(maxsize=None)
def fig1_results():
    return fig01_l2_decomposition.run()

