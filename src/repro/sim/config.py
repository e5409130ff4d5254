"""Simulation configuration — Table II of the paper as defaults.

=================  ==========================================
Processors         16 in-order cores
L1 I/D cache       32 KB, 4-way, 64 B blocks, 2-cycle latency
L2 cache           256 KB, 8-way, 64 B blocks, 10-cycle latency
Coherence          Token Coherence, MOESI
On-chip network    4x4 2D mesh, 16 B links, 4-cycle routers
=================  ==========================================

The paper's VM setup (Section V-A): four VMs with four vCPUs each —
16 vCPUs on 16 physical cores, no overcommitment.

``cycles_per_ms`` maps the paper's millisecond migration periods onto
simulated cycles. The paper simulates full application runs at 1 GHz+;
our traces are shorter, so the default scale (100 000 cycles per "ms")
compresses wall-clock while preserving the *ratio* between migration
period and cache-turnover time, which is what Figures 7-9 depend on.
Use :meth:`SimConfig.real_time` for a 1 GHz mapping instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.filter import ContentPolicy, SnoopPolicy
from repro.interconnect.builder import check_topology_config


@dataclass(frozen=True)
class SimConfig:
    """Full configuration of one coherence simulation."""

    # System (Table II). The topology block is resolved by the builder
    # registry (repro.interconnect.builder): "mesh" and "torus" read
    # mesh_width x mesh_height and require num_cores to match;
    # "hierarchical" is num_sockets sockets of mesh_width x mesh_height
    # each, joined by gateway links charged inter_socket_hop_cost hops.
    num_cores: int = 16
    topology: str = "mesh"
    mesh_width: int = 4
    mesh_height: int = 4
    num_sockets: int = 1
    inter_socket_hop_cost: int = 4
    block_size: int = 64
    l1_size: int = 32 * 1024
    l1_ways: int = 4
    l1_latency: int = 2
    l2_size: int = 256 * 1024
    l2_ways: int = 8
    l2_latency: int = 10
    router_latency: int = 4
    link_latency: int = 1
    link_bytes: int = 16
    memory_latency: int = 80
    memory_node: int = 0
    # Virtualization.
    num_vms: int = 4
    vcpus_per_vm: int = 4
    host_pages: int = 1 << 20
    # Snoop filter. "vsnoop" uses the paper's virtual snooping filter
    # (configured by snoop_policy / content_policy); "regionscout" swaps
    # in the region-based baseline from repro.baselines.
    filter_kind: str = "vsnoop"
    snoop_policy: SnoopPolicy = SnoopPolicy.VSNOOP_BASE
    content_policy: ContentPolicy = ContentPolicy.BROADCAST
    counter_threshold: int = 10
    region_blocks: int = 64
    # Workload and time.
    accesses_per_vcpu: int = 20_000
    warmup_accesses_per_vcpu: int = 4_000
    think_cycles: int = 2
    cycles_per_ms: int = 100_000
    migration_period_ms: Optional[float] = None
    # The paper's Section V simulator runs neither a hypervisor nor
    # content sharing ("a hypervisor is not running, and its effect is
    # not included"); Section III/VI experiments opt in.
    content_sharing_enabled: bool = False
    hypervisor_activity_enabled: bool = False
    working_set_scale: float = 1.0
    seed: int = 42
    # Workload selection beyond the paper's 13 calibrated apps. `pattern`
    # is an access-pattern spec (repro.workloads.patterns grammar, e.g.
    # "zipfian(alpha=1.2)"): every VM runs the generic mixed service with
    # all pools walked by that pattern. `suite` names a scenario suite
    # (repro.workloads.suites): each VM runs its slot's service profile.
    # Mutually exclusive; both None keeps the calibrated VmWorkload
    # generator. Both fields are part of the task/warm-up identity (NOT
    # warm-up-inert): they change the access stream byte-for-byte.
    pattern: Optional[str] = None
    suite: Optional[str] = None
    # Opt-in runtime coherence sanitizer (repro.sanitizer): maintains
    # ground-truth line residence beside the caches and asserts snoop-
    # filter safety, residence-counter consistency, SWMR/state and
    # domain-soundness invariants on every transaction. "raise" fails
    # fast on the first violation; "count" records violations into
    # SimStats.sanitizer_violations for soak runs.
    sanitize: bool = False
    sanitize_mode: str = "raise"
    # Opt-in observability (repro.obs). `trace` names a file to receive
    # the structured event stream (coherence transactions, migrations,
    # vCPU-map changes); `trace_format` picks the backend ("auto" keys on
    # the extension: .jsonl/.json -> JSONL, else compact binary).
    # `metrics_sample_every` attaches the windowed metrics recorder,
    # sampling counter deltas every N cycles into SimStats.metrics. Both
    # are pure observers: with them off the engine hot path is untouched
    # and stats stay bit-identical (the --sanitize guarantee).
    trace: Optional[str] = None
    trace_format: str = "auto"
    metrics_sample_every: Optional[int] = None
    # Execution kernel. "reference" is the engine's plain per-access
    # loop, the executable spec; "batched" is the call-free fast-path
    # kernel (repro.sim.kernel), proven bit-identical to it by the golden
    # corpus and the differential suites; "auto" is batched (observers
    # attached or not) unless the REPRO_KERNEL environment override names
    # a kernel. Bit-identity means the choice never changes a result —
    # only wall-clock time.
    kernel: str = "auto"

    def __post_init__(self) -> None:
        check_topology_config(self)
        if self.num_vms * self.vcpus_per_vm > self.num_cores:
            raise ValueError(
                f"{self.num_vms} VMs x {self.vcpus_per_vm} vCPUs exceed "
                f"{self.num_cores} cores (the coherence simulator does not "
                f"model overcommitment, as in the paper)"
            )
        if self.migration_period_ms is not None and self.migration_period_ms <= 0:
            raise ValueError("migration_period_ms must be positive")
        if self.num_vms < 1:
            raise ValueError("need at least one VM")
        if self.filter_kind not in ("vsnoop", "regionscout"):
            raise ValueError(f"unknown filter_kind {self.filter_kind!r}")
        if self.sanitize_mode not in ("raise", "count"):
            raise ValueError(
                f"sanitize_mode must be 'raise' or 'count', got "
                f"{self.sanitize_mode!r}"
            )
        if self.trace_format not in ("auto", "jsonl", "binary"):
            raise ValueError(
                f"trace_format must be 'auto', 'jsonl' or 'binary', got "
                f"{self.trace_format!r}"
            )
        if self.metrics_sample_every is not None and self.metrics_sample_every <= 0:
            raise ValueError(
                f"metrics_sample_every must be positive, got "
                f"{self.metrics_sample_every}"
            )
        if self.kernel not in ("auto", "batched", "reference"):
            raise ValueError(
                f"kernel must be 'auto', 'batched' or 'reference', got "
                f"{self.kernel!r}"
            )
        if self.pattern is not None and self.suite is not None:
            raise ValueError(
                "pattern and suite are mutually exclusive (a suite already "
                "names each VM's service and patterns)"
            )
        if self.pattern is not None:
            # Validate the spec at config time so a bad CLI/config string
            # fails before any simulation is built or stored. Imported
            # lazily: repro.workloads never imports repro.sim, so this
            # cannot cycle, but config construction is on every hot path.
            from repro.workloads.patterns import parse_pattern

            parse_pattern(self.pattern)
        if self.suite is not None:
            from repro.workloads.suites import SUITE_NAMES

            if self.suite not in SUITE_NAMES:
                raise ValueError(
                    f"unknown suite {self.suite!r} "
                    f"(known: {', '.join(SUITE_NAMES)})"
                )

    @property
    def migration_period_cycles(self) -> Optional[int]:
        if self.migration_period_ms is None:
            return None
        return int(self.migration_period_ms * self.cycles_per_ms)

    def with_policy(
        self,
        snoop_policy: SnoopPolicy,
        content_policy: Optional[ContentPolicy] = None,
    ) -> "SimConfig":
        """A copy of this config under a different filter policy."""
        if content_policy is None:
            return replace(self, snoop_policy=snoop_policy)
        return replace(
            self, snoop_policy=snoop_policy, content_policy=content_policy
        )

    def real_time(self, clock_ghz: float = 1.0) -> "SimConfig":
        """A copy with a physical cycles-per-ms mapping."""
        return replace(self, cycles_per_ms=int(clock_ghz * 1e6))

    @classmethod
    def migration_study(cls, **overrides) -> "SimConfig":
        """Preset for the VM-relocation experiments (Figures 7-9).

        Caches and working sets are scaled down together (1/4) so cache
        turnover completes within a tractable number of simulated
        accesses; ``cycles_per_ms`` is chosen so the counter mechanism
        clears an old core within roughly 10 "ms" of a relocation, the
        regime the paper's Figure 9 shows. Ratios between the migration
        periods (5 / 2.5 / 0.5 / 0.1 ms) and the eviction timescale are
        what the figures depend on, and those are preserved.
        """
        defaults = dict(
            l1_size=4 * 1024,
            l2_size=32 * 1024,
            working_set_scale=0.15,
            cycles_per_ms=84_000,
            accesses_per_vcpu=70_000,
            warmup_accesses_per_vcpu=8_000,
        )
        defaults.update(overrides)
        return cls(**defaults)
