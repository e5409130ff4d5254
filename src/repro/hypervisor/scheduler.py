"""Credit-scheduler simulation — the Section III study.

Models the Xen scheduling behaviour the paper measures on real hardware:
a proportional-share scheduler with a 30 ms time slice, per-core run
queues, and global load balancing ("when all the vCPUs on a physical
core have exhausted their time slices, the scheduler actively steals a
waiting vCPU ... from another busy core"), versus one-to-one pinning.

Guest vCPU behaviour is profile-driven and *barrier-synchronised*: the
vCPUs of a VM run exponential CPU bursts (mean ``run_burst_ms``), meet at
a barrier, block briefly (mean ``block_ms``), and start the next round.
Barriers are what make scheduling policy matter: under one-to-one
pinning on an overcommitted host a VM's round lasts as long as its
slowest vCPU's core queue, while work-conserving migration fills idle
cores (Figure 3(b)); on an undercommitted host pinning wins because
migrated vCPUs pay a cold-cache warm-up penalty (Figure 3(a)).

dom0 wake-ups model I/O: a woken dom0 vCPU gets Xen's BOOST-style
priority, preempting a guest, whose displacement is what produces
relocation churn even on an undercommitted host (Table I).

Discrete time, fixed tick (default 0.25 ms).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import asdict, dataclass
from typing import Deque, Dict, List, Optional

from repro.workloads.profiles import AppProfile

RUNNABLE = "runnable"
RUNNING = "running"
BLOCKED = "blocked"
BARRIER = "barrier"
DONE = "done"


@dataclass
class SchedulerConfig:
    """Host and policy configuration for one scheduler simulation."""

    num_cores: int = 8
    policy: str = "credit"  # "credit", "pinned", or "clustered"
    time_slice_ms: float = 30.0
    tick_ms: float = 0.25
    dom0_vcpus: int = 4
    dom0_service_ms: float = 0.3
    cluster_factor: float = 1.5
    seed: int = 1
    max_ms: float = 600_000.0

    def __post_init__(self) -> None:
        if self.policy not in ("credit", "pinned", "clustered"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.num_cores <= 0 or self.tick_ms <= 0:
            raise ValueError("num_cores and tick_ms must be positive")
        if self.cluster_factor < 1.0:
            raise ValueError("cluster_factor must be >= 1.0")


class SchedVcpu:
    """Scheduler-side state of one vCPU."""

    __slots__ = (
        "vm_id", "index", "is_dom0", "profile", "state", "remaining_work",
        "burst_left", "wake_at", "slice_left", "warmup_left", "last_core",
        "migrations", "home_core", "credits", "allowed_cores",
    )

    def __init__(self, vm_id: int, index: int, profile: AppProfile, is_dom0: bool = False):
        self.vm_id = vm_id
        self.index = index
        self.is_dom0 = is_dom0
        self.profile = profile
        self.state = RUNNABLE
        self.remaining_work = float("inf") if is_dom0 else profile.work_ms_per_vcpu
        self.burst_left = 0.0
        self.wake_at = 0.0
        self.slice_left = 0.0
        self.warmup_left = 0.0
        self.last_core: Optional[int] = None
        self.migrations = 0
        self.home_core: Optional[int] = None  # pinned placement
        self.credits = 30.0  # ms of CPU entitlement (UNDER while positive)
        self.allowed_cores: Optional[frozenset] = None  # clustered policy

    @property
    def is_under(self) -> bool:
        """Xen credit priority: UNDER (has credits) beats OVER."""
        return self.credits > 0.0

    def __repr__(self) -> str:
        kind = "dom0" if self.is_dom0 else "guest"
        return f"SchedVcpu({kind} vm{self.vm_id}.{self.index}, {self.state})"


@dataclass
class SchedulerResult:
    """Outcome of one scheduler simulation."""

    wall_ms: float
    vm_finish_ms: Dict[int, float]
    guest_migrations: int
    guest_vcpus: int
    dom0_wakes: int

    def to_dict(self) -> dict:
        """Every field as JSON-serializable data (a campaign cell's artifact)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SchedulerResult":
        """Inverse of :meth:`to_dict`; JSON stringifies the int VM ids."""
        kwargs = dict(data)
        kwargs["vm_finish_ms"] = {int(vm): ms for vm, ms in data["vm_finish_ms"].items()}
        return cls(**kwargs)

    @property
    def relocation_period_ms(self) -> float:
        """Average time between core changes, per vCPU (Table I)."""
        if self.guest_migrations == 0:
            return float("inf")
        return self.wall_ms * self.guest_vcpus / self.guest_migrations


class CreditSchedulerSim:
    """Simulates barrier-synchronised guest VMs plus dom0 on a host."""

    def __init__(
        self,
        config: SchedulerConfig,
        profile: AppProfile,
        num_vms: int,
        vcpus_per_vm: int = 4,
    ) -> None:
        self.config = config
        self.profile = profile
        # Seed excludes the policy so both policies see identical burst /
        # block / wake sequences — differences are pure scheduling.
        self.rng = random.Random(f"sched/{config.seed}/{profile.name}")
        self.vcpus: List[SchedVcpu] = []
        for vm in range(1, num_vms + 1):
            for index in range(vcpus_per_vm):
                vcpu = SchedVcpu(vm, index, profile)
                vcpu.burst_left = self._sample_burst()
                self.vcpus.append(vcpu)
        self.dom0: List[SchedVcpu] = [
            SchedVcpu(0, i, profile, is_dom0=True) for i in range(config.dom0_vcpus)
        ]
        for vcpu in self.dom0:
            vcpu.state = BLOCKED
            vcpu.wake_at = float("inf")
        self.num_vms = num_vms
        self.vcpus_per_vm = vcpus_per_vm
        self.dom0_wakes = 0
        self._queues: List[Deque[SchedVcpu]] = [deque() for _ in range(config.num_cores)]
        self._assign_initial_placement()

    def _assign_initial_placement(self) -> None:
        cores = self.config.num_cores
        for i, vcpu in enumerate(self.vcpus):
            vcpu.home_core = i % cores
            vcpu.last_core = i % cores
            self._queues[i % cores].append(vcpu)
        for i, vcpu in enumerate(self.dom0):
            vcpu.home_core = i % cores
            vcpu.last_core = i % cores
        if self.config.policy == "clustered":
            # Each VM may run only on a contiguous window of cores, sized
            # cluster_factor x its vCPU count — the paper's future-work
            # middle ground: bounded snoop domains, some load balancing.
            window = min(
                cores, max(1, round(self.vcpus_per_vm * self.config.cluster_factor))
            )
            for vcpu in self.vcpus:
                start = (vcpu.vm_id - 1) * self.vcpus_per_vm % cores
                vcpu.allowed_cores = frozenset(
                    (start + offset) % cores for offset in range(window)
                )

    # ------------------------------------------------------------------
    # Behaviour sampling.
    # ------------------------------------------------------------------

    def _sample_burst(self) -> float:
        return self.rng.expovariate(1.0 / self.profile.run_burst_ms)

    def _sample_block(self) -> float:
        return self.rng.expovariate(1.0 / self.profile.block_ms)

    def _dom0_wake_interval(self) -> float:
        rate_per_ms = self.profile.io_wakes_per_sec * self.num_vms / 1000.0
        if rate_per_ms <= 0:
            return float("inf")
        return self.rng.expovariate(rate_per_ms)

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------

    def run(self) -> SchedulerResult:
        cfg = self.config
        tick = cfg.tick_ms
        now = 0.0
        running: List[Optional[SchedVcpu]] = [None] * cfg.num_cores
        vm_finish: Dict[int, float] = {}
        next_dom0_wake = self._dom0_wake_interval()
        next_accounting = cfg.time_slice_ms
        while now < cfg.max_ms:
            # 0. Credit accounting: replenish fair shares each period.
            if now >= next_accounting:
                next_accounting += cfg.time_slice_ms
                active = [v for v in self.vcpus if v.state != DONE]
                if active:
                    fair = cfg.time_slice_ms * cfg.num_cores / len(active)
                    cap = 1.25 * fair + cfg.time_slice_ms
                    for vcpu in active:
                        vcpu.credits = min(vcpu.credits + 1.25 * fair, cap)
            # 1. Wake blocked guests whose block time elapsed.
            for vcpu in self.vcpus:
                if vcpu.state == BLOCKED and vcpu.wake_at <= now:
                    vcpu.state = RUNNABLE
                    vcpu.burst_left = self._sample_burst()
                    self._enqueue(vcpu)
            # 2. dom0 I/O wake-ups (BOOST: preempt a guest).
            while next_dom0_wake <= now:
                next_dom0_wake += self._dom0_wake_interval()
                self.dom0_wakes += 1
                sleeper = next((d for d in self.dom0 if d.state == BLOCKED), None)
                if sleeper is not None:
                    sleeper.state = RUNNABLE
                    sleeper.burst_left = cfg.dom0_service_ms
                    self._boost_preempt(sleeper, running)
            # 3. Fill idle cores; preempt OVER-priority guests when an
            # UNDER-priority vCPU is waiting (Xen's credit semantics —
            # this rotation is the overcommitted-host migration churn).
            self._fill_cores(running)
            # 4. Account a tick of work.
            for core in range(cfg.num_cores):
                vcpu = running[core]
                if vcpu is None:
                    continue
                self._account(vcpu, tick, now)
                if vcpu.state != RUNNING:
                    running[core] = None
                    if vcpu.state == RUNNABLE:
                        self._enqueue(vcpu)  # slice expired
                    continue
                if not vcpu.is_dom0 and vcpu.remaining_work <= 0:
                    vcpu.state = DONE
                    running[core] = None
                    self._barrier_check(vcpu.vm_id, now)
                    if all(v.state == DONE for v in self.vcpus if v.vm_id == vcpu.vm_id):
                        vm_finish.setdefault(vcpu.vm_id, now)
            now += tick
            if all(v.state == DONE for v in self.vcpus):
                break
        migrations = sum(v.migrations for v in self.vcpus)
        return SchedulerResult(
            wall_ms=now,
            vm_finish_ms=vm_finish,
            guest_migrations=migrations,
            guest_vcpus=len(self.vcpus),
            dom0_wakes=self.dom0_wakes,
        )

    # ------------------------------------------------------------------
    # Queues, dispatch, preemption.
    # ------------------------------------------------------------------

    def _fill_cores(self, running: List[Optional[SchedVcpu]]) -> None:
        """One scheduling pass: fill idle cores, rotate OVER for UNDER."""
        cfg = self.config
        under_waiting = any(
            v.state == RUNNABLE and v.is_under for v in self.vcpus
        )
        for core in range(cfg.num_cores):
            current = running[core]
            if current is not None and current.state == RUNNING:
                preemptable = (
                    under_waiting
                    and not current.is_dom0
                    and not current.is_under
                )
                if not preemptable:
                    continue
                current.state = RUNNABLE
                self._enqueue(current)
                running[core] = None
            replacement = self._dispatch(core)
            running[core] = replacement
            # Any dispatch may have consumed the last waiting UNDER vCPU
            # (an UNDER dispatch does so directly), and a stale True here
            # would spuriously preempt later cores' OVER guests. Once
            # False it stays False: this pass only ever re-queues OVER
            # vCPUs, so skip the rescan then.
            if replacement is not None and under_waiting:
                under_waiting = any(
                    v.state == RUNNABLE and v.is_under for v in self.vcpus
                )

    def _enqueue(self, vcpu: SchedVcpu) -> None:
        core = vcpu.home_core if self.config.policy == "pinned" else vcpu.last_core
        self._queues[core if core is not None else 0].append(vcpu)

    @staticmethod
    def _allowed(vcpu: SchedVcpu, core: int) -> bool:
        return vcpu.allowed_cores is None or core in vcpu.allowed_cores

    def _pop_runnable(
        self, queue: Deque[SchedVcpu], core: int, under_only: bool = False
    ) -> Optional[SchedVcpu]:
        """Pop the first runnable entry eligible to run on ``core``."""
        for _ in range(len(queue)):
            vcpu = queue.popleft()
            if vcpu.state != RUNNABLE:
                continue  # stale entry (running/blocked/done); drop it
            if (under_only and not vcpu.is_under) or not self._allowed(vcpu, core):
                queue.append(vcpu)  # keep ineligible entries queued, in order
                continue
            return vcpu
        return None

    def _steal(self, core: int, under_only: bool) -> Optional[SchedVcpu]:
        """Steal a waiting vCPU from the most loaded other queue."""
        donor = max(
            (q for i, q in enumerate(self._queues) if i != core),
            key=lambda q: sum(
                1 for v in q
                if v.state == RUNNABLE
                and (v.is_under or not under_only)
                and self._allowed(v, core)
            ),
            default=None,
        )
        if donor is None:
            return None
        return self._pop_runnable(donor, core, under_only)

    def _dispatch(self, core: int) -> Optional[SchedVcpu]:
        """Next vCPU for ``core``.

        Credit policy follows Xen: local UNDER, stolen UNDER, local OVER,
        stolen OVER (work-conserving). Pinned never steals; clustered
        steals only vCPUs whose cluster contains this core.
        """
        steals = self.config.policy in ("credit", "clustered")
        choice = self._pop_runnable(self._queues[core], core, under_only=True)
        if choice is None and steals:
            choice = self._steal(core, under_only=True)
        if choice is None:
            choice = self._pop_runnable(self._queues[core], core)
        if choice is None and steals:
            choice = self._steal(core, under_only=False)
        if choice is None:
            return None
        return self._start(choice, core)

    def _start(self, vcpu: SchedVcpu, core: int) -> SchedVcpu:
        if vcpu.last_core is not None and vcpu.last_core != core:
            if not vcpu.is_dom0:
                vcpu.migrations += 1
            vcpu.warmup_left = vcpu.profile.migration_warmup_ms
        vcpu.last_core = core
        vcpu.state = RUNNING
        vcpu.slice_left = self.config.time_slice_ms
        return vcpu

    def _boost_preempt(self, dom0_vcpu: SchedVcpu, running: List[Optional[SchedVcpu]]) -> None:
        """A woken dom0 vCPU preempts a core (guest goes back to its queue)."""
        for core, current in enumerate(running):
            if current is None:
                running[core] = self._start(dom0_vcpu, core)
                return
        victim_core = min(
            range(len(running)),
            key=lambda c: (
                running[c].slice_left if not running[c].is_dom0 else float("inf")
            ),
        )
        victim = running[victim_core]
        if victim.is_dom0:
            return  # all cores busy with dom0 work; drop the boost
        victim.state = RUNNABLE
        self._enqueue(victim)
        running[victim_core] = self._start(dom0_vcpu, victim_core)

    # ------------------------------------------------------------------
    # Work accounting and barriers.
    # ------------------------------------------------------------------

    def _account(self, vcpu: SchedVcpu, tick: float, now: float) -> None:
        efficiency = 1.0
        if vcpu.warmup_left > 0:
            efficiency = vcpu.profile.warmup_efficiency
            vcpu.warmup_left = max(0.0, vcpu.warmup_left - tick)
        if not vcpu.is_dom0:
            vcpu.remaining_work -= tick * efficiency
            vcpu.credits -= tick
        vcpu.burst_left -= tick
        vcpu.slice_left -= tick
        if vcpu.burst_left <= 0:
            if vcpu.is_dom0:
                vcpu.state = BLOCKED
                vcpu.wake_at = float("inf")  # next I/O event re-arms it
            else:
                vcpu.state = BARRIER
                self._barrier_check(vcpu.vm_id, now)
        elif vcpu.slice_left <= 0:
            vcpu.state = RUNNABLE  # caller re-enqueues

    def _barrier_check(self, vm_id: int, now: float) -> None:
        """Release the VM's barrier when every vCPU arrived (or finished)."""
        members = [v for v in self.vcpus if v.vm_id == vm_id]
        if any(v.state in (RUNNABLE, RUNNING, BLOCKED) for v in members):
            return
        for vcpu in members:
            if vcpu.state == BARRIER:
                vcpu.state = BLOCKED
                vcpu.wake_at = now + self._sample_block()
