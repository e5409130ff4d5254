"""Command-line interface: ``repro-sim``.

Subcommands:

* ``list-apps`` — the application profile catalogue.
* ``run`` — one coherence simulation, with policy/migration knobs.
* ``report`` — per-phase tables from an event trace (``run --trace``).
* ``experiment`` — regenerate a paper table/figure by name.
* ``record-trace`` — capture a synthetic workload to a trace file.
* ``profile`` — run one simulation under cProfile and print hotspots.

``--jobs N`` (or ``REPRO_JOBS``; ``auto`` = one per CPU) fans experiment
matrices out over worker processes — results are bit-identical at any
job count, only wall-clock time changes.

``experiment --out DIR`` turns a run into a resumable campaign: every
completed cell is saved as a result entry under ``DIR/results/``, a
manifest records what ran, and ``--resume`` re-runs only the missing
cells (Ctrl-C keeps what finished). ``--retries`` and
``--task-timeout`` bound individual cell failures and hangs. Studies
that never reach the campaign runner (``fig2``, ``fig3``/``tab1``,
``clustered``) refuse ``--out``.

Examples::

    repro-sim run --app fft --policy counter --migration-ms 2.5
    repro-sim run --app ocean --policy counter --migration-ms 1 \
        --trace run.evt --metrics-every 42000
    repro-sim report run.evt --window 10000
    repro-sim --jobs auto experiment fig7
    repro-sim --jobs auto experiment fig7 --out fig7.campaign
    repro-sim --jobs auto experiment fig7 --out fig7.campaign --resume
    repro-sim profile --app ocean --migration-ms 2.5 --top 15
    repro-sim record-trace --app canneal --out canneal.trace
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import render_table
from repro.core.filter import ContentPolicy, SnoopPolicy
from repro.workloads import PROFILES, SUITE_NAMES, get_profile

EXPERIMENTS = {
    "fig1": ("repro.experiments.fig01_l2_decomposition", "Figure 1"),
    "fig2": ("repro.experiments.fig02_potential", "Figure 2"),
    "fig3": ("repro.experiments.sched_study", "Figure 3 + Table I"),
    "tab1": ("repro.experiments.sched_study", "Figure 3 + Table I"),
    "tab4": ("repro.experiments.pinned_study", "Table IV + Figure 6"),
    "fig6": ("repro.experiments.pinned_study", "Table IV + Figure 6"),
    "fig7": ("repro.experiments.migration_study", "Figures 7-9"),
    "fig8": ("repro.experiments.migration_study", "Figures 7-9"),
    "fig9": ("repro.experiments.migration_study", "Figures 7-9"),
    "tab5": ("repro.experiments.content_study", "Tables V-VI + Figure 10"),
    "tab6": ("repro.experiments.content_study", "Tables V-VI + Figure 10"),
    "fig10": ("repro.experiments.content_study", "Tables V-VI + Figure 10"),
    "clustered": ("repro.experiments.ext_clustered", "Extension: clustered scheduling"),
    "consolidation": (
        "repro.experiments.consolidation",
        "Extension: consolidation-host scaling (16/64/144 cores)",
    ),
    "regionscout": ("repro.experiments.baseline_comparison", "Extension: RegionScout"),
    "patterns": (
        "repro.experiments.pattern_study",
        "Extension: workload pattern suites x snoop policies",
    ),
}

# Studies that never reach the campaign runner (run_matrix): fig2 is
# analytic. --out/--resume would silently write nothing for them.
_UNCHECKPOINTED = frozenset({"fig2"})

_POLICY_NAMES = {policy.value: policy for policy in SnoopPolicy}
_CONTENT_NAMES = {policy.value: policy for policy in ContentPolicy}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Virtual Snooping (MICRO 2010) reproduction toolkit",
    )
    parser.add_argument(
        "--jobs",
        default=None,
        metavar="N",
        help="worker processes for experiment matrices (N, or 'auto' for "
        "one per CPU; overrides REPRO_JOBS; default: serial)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="list the application profile catalogue")

    sub.add_parser(
        "list-patterns",
        help="list access patterns, service profiles and scenario suites",
    )

    def add_sim_args(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--app", default="fft", help="application profile name")
        cmd.add_argument("--pattern", default=None, metavar="SPEC",
                         help="access-pattern spec replacing the calibrated "
                         "generator in every VM, e.g. zipfian(alpha=1.2), "
                         "hotspot(hot_fraction=0.1,hot_probability=0.9), "
                         "dynamicmix(phases=zipfian@2000+sequential@2000); "
                         "see `repro-sim list-patterns`")
        cmd.add_argument("--suite", default=None, choices=SUITE_NAMES,
                         help="named scenario suite mapping services onto "
                         "VMs (mutually exclusive with --pattern); see "
                         "`repro-sim list-patterns`")
        cmd.add_argument(
            "--policy",
            default=SnoopPolicy.VSNOOP_BASE.value,
            choices=sorted(_POLICY_NAMES),
            help="snoop filter policy",
        )
        cmd.add_argument(
            "--content-policy",
            default=ContentPolicy.BROADCAST.value,
            choices=sorted(_CONTENT_NAMES),
            help="policy for content-shared (RO) pages",
        )
        cmd.add_argument("--filter", default="vsnoop",
                         choices=("vsnoop", "regionscout"))
        cmd.add_argument("--topology", default="mesh",
                         choices=("mesh", "torus", "hierarchical"),
                         help="interconnect geometry (hierarchical = "
                         "--sockets meshes of --width x --height joined "
                         "by gateway links)")
        cmd.add_argument("--cores", type=int, default=16,
                         help="physical cores; must equal width*height "
                         "(*sockets for hierarchical)")
        cmd.add_argument("--width", type=int, default=4,
                         help="mesh width (per socket for hierarchical)")
        cmd.add_argument("--height", type=int, default=4,
                         help="mesh height (per socket for hierarchical)")
        cmd.add_argument("--sockets", type=int, default=1,
                         help="sockets for the hierarchical topology")
        cmd.add_argument("--inter-socket-hop-cost", type=int, default=4,
                         metavar="HOPS",
                         help="latency/flit charge of one inter-socket "
                         "crossing, in hop equivalents")
        cmd.add_argument("--vms", type=int, default=4, help="guest VM count")
        cmd.add_argument("--vcpus", type=int, default=4,
                         help="vCPUs per guest VM")
        cmd.add_argument("--migration-ms", type=float, default=None,
                         help="vCPU shuffle period in (scaled) milliseconds")
        cmd.add_argument("--content-sharing", action="store_true",
                         help="enable the content-based page sharing scan")
        cmd.add_argument("--hypervisor", action="store_true",
                         help="enable hypervisor/dom0 activity")
        cmd.add_argument("--accesses", type=int, default=10_000,
                         help="measured accesses per vCPU")
        cmd.add_argument("--warmup", type=int, default=6_000,
                         help="warm-up accesses per vCPU")
        cmd.add_argument("--seed", type=int, default=42)
        cmd.add_argument("--kernel", default="auto",
                         choices=("auto", "batched", "reference"),
                         help="execution kernel: the call-free fast-path "
                         "kernel (batched), the canonical per-access loop "
                         "(reference, the readable spec), or auto (batched, "
                         "unless REPRO_KERNEL names a kernel). Bit-identical "
                         "results either way; only speed differs")
        cmd.add_argument("--sanitize", action="store_true",
                         help="enable the runtime coherence sanitizer "
                         "(ground-truth residence shadow + snoop-filter "
                         "safety/residence/SWMR/domain invariant checks)")
        cmd.add_argument("--sanitize-mode", default="raise",
                         choices=("raise", "count"),
                         help="fail fast on the first violation (raise) or "
                         "count violations into the stats for soak runs")
        cmd.add_argument("--trace", default=None, metavar="FILE",
                         help="record a structured event trace (coherence "
                         "transactions, migrations, vCPU-map changes) to FILE; "
                         "inspect it with `repro-sim report`")
        cmd.add_argument("--trace-format", default="auto",
                         choices=("auto", "jsonl", "binary"),
                         help="trace backend; auto picks JSONL for "
                         ".jsonl/.json paths, compact binary otherwise")
        cmd.add_argument("--metrics-every", type=int, default=None,
                         metavar="CYCLES",
                         help="sample a windowed metrics time-series every "
                         "CYCLES cycles into the stats (and the campaign "
                         "manifest)")

    run = sub.add_parser("run", help="run one coherence simulation")
    add_sim_args(run)

    report = sub.add_parser(
        "report", help="per-phase tables from a recorded event trace"
    )
    report.add_argument("trace", help="trace file written by run --trace")
    report.add_argument("--window", type=int, default=10_000, metavar="CYCLES",
                        help="aggregation window width in cycles")
    report.add_argument("--before", type=int, default=2, metavar="N",
                        help="windows to show before each migration")
    report.add_argument("--after", type=int, default=8, metavar="N",
                        help="windows to show after each migration")
    report.add_argument("--partial", action="store_true",
                        help="tolerate a trace with no end record (a run "
                        "still in progress or one that died mid-way)")

    experiment = sub.add_parser("experiment", help="regenerate a paper artefact")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS), metavar="name",
                            help=f"one of: {', '.join(sorted(EXPERIMENTS))}")
    experiment.add_argument("--out", default=None, metavar="DIR",
                            help="campaign directory: save every completed "
                            "cell as a result entry under DIR/results/ and "
                            "write a run manifest")
    experiment.add_argument("--resume", action="store_true",
                            help="reuse the result entries already in --out "
                            "and run only the missing cells")
    experiment.add_argument("--retries", type=int, default=0, metavar="N",
                            help="re-run a failing cell up to N times before "
                            "recording the failure (default: 0)")
    experiment.add_argument("--task-timeout", type=float, default=None,
                            metavar="SECONDS",
                            help="terminate any cell running longer than this "
                            "(needs worker processes, i.e. --jobs >= 2)")

    profile = sub.add_parser(
        "profile", help="run one simulation under cProfile and print hotspots"
    )
    add_sim_args(profile)
    profile.add_argument("--top", type=int, default=20,
                         help="number of hotspot rows to print")
    profile.add_argument("--sort", default="cumulative",
                         choices=("cumulative", "tottime", "calls"),
                         help="profile sort order")

    record = sub.add_parser("record-trace", help="capture a synthetic trace")
    record.add_argument("--app", default="fft")
    record.add_argument("--pattern", default=None, metavar="SPEC",
                        help="record the generic pattern workload on SPEC "
                        "instead of the calibrated --app generator")
    record.add_argument("--out", required=True, help="output trace file")
    record.add_argument("--accesses", type=int, default=10_000,
                        help="accesses per vCPU to record")
    record.add_argument("--vm-id", type=int, default=1)
    record.add_argument("--vcpus", type=int, default=4)
    record.add_argument("--seed", type=int, default=42)
    return parser


def cmd_list_apps() -> int:
    rows = [
        (
            name,
            profile.suite,
            f"{profile.miss_rate:.3f}",
            f"{100 * profile.content_access_fraction:.1f}%",
            f"{100 * profile.hyp_dom0_miss_share:.1f}%",
        )
        for name, profile in sorted(PROFILES.items())
    ]
    print(render_table(
        ["application", "suite", "miss rate", "content accesses", "hyp+dom0 misses"],
        rows,
    ))
    return 0


def cmd_list_patterns() -> int:
    from repro.workloads import SERVICES, SUITES, pattern_names
    from repro.workloads.patterns import PATTERNS

    pattern_rows = []
    for name in pattern_names():
        instance = PATTERNS[name]() if name != "dynamicmix" else None
        example = instance.spec() if instance is not None else (
            "dynamicmix(phases=zipfian(alpha=1.1)@2000+sequential@2000)"
        )
        pattern_rows.append((name, example))
    print(render_table(["pattern", "default spec / example"], pattern_rows,
                       title="Access patterns (--pattern SPEC)"))
    print()
    service_rows = [
        (name, service.description,
         f"{service.write_fraction:.2f}", service.private_pattern)
        for name, service in sorted(SERVICES.items())
    ]
    print(render_table(
        ["service", "description", "write frac", "private pattern"],
        service_rows, title="Service profiles (suite building blocks)",
    ))
    print()
    suite_rows = [
        (name, suite.description, ", ".join(suite.vm_services))
        for name, suite in sorted(SUITES.items())
    ]
    print(render_table(["suite", "description", "VM services (cycled)"],
                       suite_rows, title="Scenario suites (--suite NAME)"))
    return 0


def _config_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """The run's ``SimConfig``; an invalid one is a usage error (exit 2)."""
    from repro.sim import SimConfig

    try:
        return SimConfig(
            filter_kind=args.filter,
            pattern=args.pattern,
            suite=args.suite,
            topology=args.topology,
            num_cores=args.cores,
            mesh_width=args.width,
            mesh_height=args.height,
            num_sockets=args.sockets,
            inter_socket_hop_cost=args.inter_socket_hop_cost,
            num_vms=args.vms,
            vcpus_per_vm=args.vcpus,
            snoop_policy=_POLICY_NAMES[args.policy],
            content_policy=_CONTENT_NAMES[args.content_policy],
            migration_period_ms=args.migration_ms,
            content_sharing_enabled=args.content_sharing,
            hypervisor_activity_enabled=args.hypervisor,
            accesses_per_vcpu=args.accesses,
            warmup_accesses_per_vcpu=args.warmup,
            seed=args.seed,
            sanitize=args.sanitize,
            sanitize_mode=args.sanitize_mode,
            trace=args.trace,
            trace_format=args.trace_format,
            metrics_sample_every=args.metrics_every,
            kernel=args.kernel,
        )
    except ValueError as exc:
        parser.error(str(exc))


def cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.sim import SimTask, run_simulation_task
    from repro.sim.runner import prepare_task

    config = _config_from_args(args, parser)
    task = SimTask(config, args.app)
    if args.trace is None and not args.sanitize:
        # Plain runs go through the result store (and the warm-state
        # snapshot layer under it) — a repeated run is a cache hit.
        stats = run_simulation_task(task)
        system = None
    else:
        # Tracing writes a file and the sanitizer reports live state:
        # both need the simulation to actually run, so only the
        # warm-state snapshot layer applies.
        system, engine, clocks = prepare_task(task)
        engine.measure(clocks)
        stats = system.stats
    # Zero-length runs (e.g. --accesses 0) produce no measured accesses
    # and may produce no coherence transactions: print "n/a" rather than
    # a 0-division-dodged 0.0 that reads as a perfect score.
    broadcast_snoops = config.num_cores * stats.total_transactions
    miss_rate = f"{stats.miss_rate():.4f}" if stats.l1_accesses else "n/a (no accesses)"
    snoop_pct = (
        f"{100 * stats.total_snoops / broadcast_snoops:.1f}%"
        if broadcast_snoops
        else "n/a (no coherence transactions)"
    )
    rows = [
        ("accesses", stats.l1_accesses),
        ("coherence transactions", stats.total_transactions),
        ("miss rate", miss_rate),
        ("snoops", stats.total_snoops),
        ("snoops vs broadcast", snoop_pct),
        ("network bytes", stats.network_bytes),
        ("execution cycles", stats.execution_cycles),
        ("migrations", stats.migrations),
        ("cow events", stats.cow_events),
    ]
    if system is not None and system.tracer is not None:
        rows.append(("trace events written", system.tracer.sink.events_written))
    if stats.metrics is not None:
        rows.append(("metrics windows sampled", len(stats.metrics)))
    sanitizer = system.sanitizer if system is not None else None
    if sanitizer is not None:
        summary = sanitizer.summary()
        rows.extend([
            ("sanitizer plans checked", summary["plans_checked"]),
            ("sanitizer transactions checked", summary["transactions_checked"]),
            ("sanitizer residence events checked", summary["events_checked"]),
            ("sanitizer filter misses (speculative)", summary["filter_misses"]),
            ("sanitizer retried filter misses", summary["retried_filter_misses"]),
            ("sanitizer violations", summary["violations"]),
        ])
    print(render_table(["metric", "value"], rows, title=f"{args.app} / {args.policy}"))
    if args.trace is not None:
        print(f"trace written to {args.trace}; inspect with "
              f"`repro-sim report {args.trace}`", file=sys.stderr)
    if sanitizer is not None and sanitizer.violation_count:
        print(
            f"sanitizer recorded {sanitizer.violation_count} violation(s):",
            file=sys.stderr,
        )
        for violation in sanitizer.violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    return 0


def cmd_experiment(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    module_name, _ = EXPERIMENTS[args.name]
    import importlib

    from repro.sim.runner import CampaignInterrupted, CampaignSettings, set_campaign

    if args.resume and not args.out:
        parser.error("--resume requires --out DIR")
    if args.out and args.name in _UNCHECKPOINTED:
        parser.error(
            f"experiment {args.name} cannot be checkpointed: it does not run "
            f"through the campaign runner, so --out/--resume would write nothing"
        )
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.task_timeout is not None and args.task_timeout <= 0:
        parser.error("--task-timeout must be positive")
    if args.out and not args.resume:
        from repro.store import ResultStore

        cells = list(ResultStore(args.out).results_dir.glob("*.json"))
        if cells:
            parser.error(
                f"{args.out} already holds {len(cells)} stored cell(s); "
                f"pass --resume to reuse them, or choose a fresh directory"
            )
    # Install campaign defaults only when a flag asked for them, so a
    # plain `experiment` run still honours REPRO_CAMPAIGN_DIR.
    if args.out or args.retries or args.task_timeout is not None:
        set_campaign(
            CampaignSettings(
                checkpoint_dir=args.out,
                retries=args.retries,
                task_timeout=args.task_timeout,
                progress=bool(args.out),
            )
        )
    module = importlib.import_module(module_name)
    try:
        module.main()
    except CampaignInterrupted as exc:
        done = sum(1 for r in exc.results if r.ok)
        print(
            f"interrupted: {done}/{len(exc.results)} cells finished"
            + (
                f"; saved under {args.out} — re-run with --resume to "
                f"complete the rest"
                if args.out
                else ""
            ),
            file=sys.stderr,
        )
        return 130
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        set_campaign(None)
    return 0


def cmd_profile(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Run one simulation under cProfile; print the top-N hotspots.

    The run is split at the measurement boundary so the report shows
    where the wall-clock actually goes: the warm-up phase (or the
    warm-state snapshot restore that replaced it) versus the measured
    phase, plus the result store's traffic. Every number after the
    hotspot table comes from the cell's own report.
    """
    import cProfile
    import io
    import pstats

    from repro.sim import SimTask
    from repro.sim.runner import run_cell

    config = _config_from_args(args, parser)
    profiler = cProfile.Profile()
    profiler.enable()
    stats, report = run_cell(SimTask(config, args.app))
    profiler.disable()
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats(args.sort).print_stats(args.top)
    print(stream.getvalue().rstrip())
    elapsed = report.warm_seconds + report.measure_seconds
    if stats.l1_accesses:
        rate = f"{1e6 * elapsed / stats.l1_accesses:.2f} us/access"
    else:
        # --accesses 0: a per-access rate would be division by zero (or,
        # dodged, a nonsense number): say so instead.
        rate = "no measured accesses, per-access rate n/a"
    print()
    print(
        f"{args.app} / {args.policy}: {stats.l1_accesses} accesses in "
        f"{elapsed:.2f}s under the profiler ({rate})"
    )
    counters = report.store
    warm_label = (
        "build + warm-up (restored from warm-state snapshot)"
        if counters is not None and counters["snapshot_hits"]
        else "build + warm-up"
    )
    share = f" ({100 * report.warm_seconds / elapsed:.0f}%)" if elapsed else ""
    print(f"  {warm_label}: {report.warm_seconds:.2f}s{share}")
    print(f"  measured phase: {report.measure_seconds:.2f}s")
    if counters is not None:
        print(
            "  store (this process): "
            f"results {counters['hits']} hit / {counters['misses']} miss, "
            f"snapshots {counters['snapshot_hits']} hit / "
            f"{counters['snapshot_misses']} miss"
            + (
                f", {counters['skipped'] + counters['snapshot_skipped']} skipped"
                if counters["skipped"] or counters["snapshot_skipped"]
                else ""
            )
        )
    else:
        print("  store: disabled (REPRO_STORE=off)")
    # The bulk-miss seam's diagnostics (only the batched kernel has it).
    if report.bulk is not None:
        bulk = report.bulk["bulk_transacts"]
        bailouts = report.bulk["bailouts"]
        bailed = sum(bailouts.values())
        seen = bulk + bailed
        if seen:
            print(
                f"  bulk-miss seam: {bulk}/{seen} transactions inline "
                f"({100 * bulk / seen:.1f}%), {bailed} bailed out"
            )
            for reason, count in bailouts.items():
                print(f"    bail {reason}: {count}")
    return 0


def cmd_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.obs.reader import TraceError
    from repro.obs.report import render_report

    if args.window <= 0:
        parser.error("--window must be positive")
    if args.before < 0 or args.after < 1:
        parser.error("--before must be >= 0 and --after >= 1")
    try:
        print(
            render_report(
                args.trace,
                window=args.window,
                before=args.before,
                after=args.after,
                allow_partial=args.partial,
            )
        )
    except (OSError, TraceError) as exc:
        print(f"repro-sim report: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_record_trace(args: argparse.Namespace) -> int:
    from repro.workloads.generator import VmWorkload
    from repro.workloads.tracefile import record_workload, save_trace

    if args.pattern is not None:
        from repro.workloads.pattern_workload import PatternWorkload
        from repro.workloads.service import generic_service

        workload = PatternWorkload(
            generic_service(args.pattern), args.vm_id, args.vcpus,
            seed=args.seed,
        )
    else:
        workload = VmWorkload(
            get_profile(args.app), args.vm_id, args.vcpus, seed=args.seed
        )
    captured = record_workload(workload, args.accesses)
    count = save_trace(args.out, captured)
    print(f"wrote {count} accesses to {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs is not None:
        from repro.sim import set_default_jobs
        from repro.sim.runner import parse_jobs

        try:
            set_default_jobs(parse_jobs(args.jobs))
        except ValueError as exc:
            parser.error(str(exc))
    if args.command == "list-apps":
        return cmd_list_apps()
    if args.command == "list-patterns":
        return cmd_list_patterns()
    if args.command == "run":
        return cmd_run(args, parser)
    if args.command == "report":
        return cmd_report(args, parser)
    if args.command == "experiment":
        return cmd_experiment(args, parser)
    if args.command == "profile":
        return cmd_profile(args, parser)
    if args.command == "record-trace":
        return cmd_record_trace(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
