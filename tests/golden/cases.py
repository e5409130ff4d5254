"""The frozen mini-configs behind the golden-run regression corpus.

Each case is one :class:`SimTask` small enough to simulate in well under
a second yet rich enough to exercise a distinct slice of the simulator:
one case per snoop policy, one with Section VI content sharing enabled
and its twin with hypervisor and dom0 activity (the Figure 1 regime),
one migration-heavy counter run that drains residence counters and
shrinks vCPU maps, and the RegionScout, topology and pattern-library
cases.

**These configs are frozen.** Changing a field silently changes every
downstream number, so the byte-exact comparison in ``test_golden.py``
would flag an intentional re-tune as a regression. If a case must
change, regenerate the corpus with ``pytest --update-golden`` and commit
the data diff alongside the reason (CHANGES.md conventions).
"""

from repro.core.filter import ContentPolicy, SnoopPolicy
from repro.sim import SimConfig, SimTask

# Shared scale: 16 vCPUs x 2,500 measured accesses keeps a case around
# half a second while still producing thousands of coherence
# transactions per run.
_ACCESSES = 2_500
_WARMUP = 500


def _case(**overrides) -> SimConfig:
    defaults = dict(
        accesses_per_vcpu=_ACCESSES,
        warmup_accesses_per_vcpu=_WARMUP,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


GOLDEN_CASES = {
    # One case per SnoopPolicy.
    "broadcast-fft": SimTask(
        _case(snoop_policy=SnoopPolicy.BROADCAST), "fft"
    ),
    "vsnoop-base-lu": SimTask(
        _case(snoop_policy=SnoopPolicy.VSNOOP_BASE), "lu"
    ),
    "counter-radix": SimTask(
        _case(snoop_policy=SnoopPolicy.VSNOOP_COUNTER), "radix"
    ),
    "counter-threshold-cholesky": SimTask(
        _case(snoop_policy=SnoopPolicy.VSNOOP_COUNTER_THRESHOLD), "cholesky"
    ),
    # Section VI content sharing: RO_SHARED pages take the intra-VM path.
    "content-intra-vm-blackscholes": SimTask(
        _case(
            snoop_policy=SnoopPolicy.VSNOOP_BASE,
            content_policy=ContentPolicy.INTRA_VM,
            content_sharing_enabled=True,
        ),
        "blackscholes",
    ),
    # The same cell with hypervisor and dom0 streams on (the Figure 1
    # regime): the only case that draws the generator's _HYP/_DOM0
    # branches, which both kernels share.
    "hypervisor-blackscholes": SimTask(
        _case(
            snoop_policy=SnoopPolicy.VSNOOP_BASE,
            content_policy=ContentPolicy.INTRA_VM,
            content_sharing_enabled=True,
            hypervisor_activity_enabled=True,
        ),
        "blackscholes",
    ),
    # Migration-heavy counter run (the Figure 7-9 regime, scaled down):
    # relocations every 0.05 "ms" drain counters and shrink maps.
    "migration-heavy-ocean": SimTask(
        SimConfig.migration_study(
            snoop_policy=SnoopPolicy.VSNOOP_COUNTER,
            migration_period_ms=0.05,
            accesses_per_vcpu=6_000,
            warmup_accesses_per_vcpu=_WARMUP,
        ),
        "ocean",
    ),
    # The RegionScout baseline (repro.baselines.regionscout): CRH
    # filtering, NSRT learning and migration-obliviousness all exercised.
    # Its data file was generated before the filter's hot-path rewrite,
    # so this case proves the rewrite is byte-for-byte equivalent.
    "regionscout-fft": SimTask(
        _case(filter_kind="regionscout", migration_period_ms=0.5), "fft"
    ),
    # Non-default topologies (the consolidation-scale geometries), frozen
    # small: a 4x4 torus (wrap links halve average distance, changing
    # every latency downstream) and a 2-socket hierarchical host with
    # migrations crossing the socket boundary.
    "torus-counter-fft": SimTask(
        _case(
            topology="torus",
            snoop_policy=SnoopPolicy.VSNOOP_COUNTER,
            migration_period_ms=0.5,
        ),
        "fft",
    ),
    "hierarchical-counter-lu": SimTask(
        _case(
            topology="hierarchical",
            num_cores=32,
            num_sockets=2,
            num_vms=8,
            snoop_policy=SnoopPolicy.VSNOOP_COUNTER,
            migration_period_ms=0.5,
        ),
        "lu",
    ),
    # Pattern-library workloads (PatternWorkload instead of VmWorkload):
    # a single-knob Zipfian mix under the counter policy with
    # migrations, and the phase-shift suite's DynamicMix services with
    # content sharing — freezing the pattern RNG/draw-order contract.
    "zipfian-counter": SimTask(
        _case(
            pattern="zipfian(alpha=1.2)",
            snoop_policy=SnoopPolicy.VSNOOP_COUNTER,
            migration_period_ms=0.5,
        ),
        "fft",
    ),
    "dynamicmix-vsnoop": SimTask(
        _case(
            suite="phase-shift",
            snoop_policy=SnoopPolicy.VSNOOP_BASE,
            content_sharing_enabled=True,
        ),
        "fft",
    ),
}
