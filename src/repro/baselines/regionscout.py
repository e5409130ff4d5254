"""RegionScout (Moshovos, ISCA 2005) — a region-based snoop filter.

The closest prior art the paper compares against conceptually: instead
of VM boundaries, RegionScout filters on coarse-grained *regions* of
memory (here one 4 KiB page = 64 blocks by default). Two per-core
structures do the work:

* **CRH** (Cached Region Hash) — a small counting hash summarising which
  regions the core caches. No false negatives: if the CRH says "absent",
  the core provably holds no block of the region, so it need not be
  snooped. Hash collisions cause false positives (extra snoops), which
  is the capacity/energy trade-off of the original design.
* **NSRT** (Not-Shared Region Table) — regions a previous miss found to
  be globally un-shared. A hit lets the requester skip snooping entirely
  and go straight to memory.

An NSRT entry is conservatively validated against the global region
sharer map at use time — modelling the snoop-driven invalidation the
real design performs when another node requests the region.

Unlike virtual snooping, RegionScout needs per-core hardware tables but
is oblivious to VM migration — the comparison experiment
(:mod:`repro.experiments.baseline_comparison`) shows exactly that
trade-off.

Hot-path structure
------------------

``plan`` and ``observe_outcome`` run once per coherence transaction, and
the original formulation walked every core's tracker on each call —
O(num_cores) dictionary probes per transaction, which made this baseline
an order of magnitude slower than the virtual-snooping filter. The
rewrite keeps two *derived* maps in a :class:`RegionMaps` that the filter
shares with its trackers, maintained incrementally by the trackers on
exact-count and CRH-bucket transitions:

* ``_region_sharers``: region -> set of cores whose exact count is
  non-zero (the ground truth ``caches_region`` answers), and
* ``_bucket_cores``: per CRH bucket, the set of cores whose counting
  hash is non-zero there (the ``crh_possibly_present`` answers — all
  cores hash a region to the same bucket, so one shared table serves
  every requester).

Both plans and the filter's counters fall out of set sizes in O(1), and
plans are additionally memoised per (core, bucket, page_type) with a
per-bucket epoch bumped on membership changes — the same
memoise-with-epoch scheme :class:`repro.core.filter.VirtualSnoopFilter`
uses against the snoop-domain version. Region-to-bucket hashes are
memoised in a shared table so the multiply-mod runs once per region.
Every counter update keeps exactly the values the per-core walk would
have produced (see the inline derivations), which is what makes the
rewrite invisible to the golden corpus.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cache.line import CacheLine
from repro.cache.setassoc import CacheObserver
from repro.coherence.plan import RequestPlan
from repro.hypervisor.hypervisor import PlacementListener
from repro.mem.pagetype import PageType

DEFAULT_REGION_BLOCKS = 64  # one 4 KiB page of 64 B blocks
DEFAULT_CRH_BUCKETS = 256
DEFAULT_NSRT_ENTRIES = 32

_HASH_MULTIPLIER = 2654435761


class RegionMaps:
    """The derived maps every tracker of one filter keeps up to date.

    ``region_sharers`` maps a region to the cores whose exact count is
    non-zero; ``bucket_cores``/``bucket_epochs`` hold per-CRH-bucket
    membership and its change epoch; ``bucket_memo`` memoises the
    region-to-bucket hash. Trackers hold this leaf object rather than
    the filter that owns them, so the filter/tracker graph has no
    reference cycle. The containers are only ever mutated in place.
    """

    __slots__ = ("region_sharers", "bucket_cores", "bucket_epochs", "bucket_memo")

    def __init__(self, crh_buckets: int) -> None:
        self.region_sharers: Dict[int, Set[int]] = {}
        self.bucket_cores: List[Set[int]] = [set() for _ in range(crh_buckets)]
        self.bucket_epochs: List[int] = [0] * crh_buckets
        self.bucket_memo: Dict[int, int] = {}


class RegionTracker(CacheObserver):
    """Per-core region occupancy: exact counts plus the CRH summary.

    Standalone trackers (no ``maps``) only keep their own counts;
    trackers created by :class:`RegionScoutFilter` additionally maintain
    the filter's shared :class:`RegionMaps` on count transitions, which
    is what makes the filter's plan path O(1).
    """

    def __init__(
        self,
        region_bits: int,
        crh_buckets: int,
        core: int = -1,
        maps: Optional[RegionMaps] = None,
    ) -> None:
        self.region_bits = region_bits
        self.crh_buckets = crh_buckets
        self.core = core
        self._maps = maps
        self._region_counts: Dict[int, int] = {}
        self._crh = [0] * crh_buckets

    def _region_of(self, block: int) -> int:
        return block >> self.region_bits

    def _bucket(self, region: int) -> int:
        # Multiplicative hashing spreads sequential regions across buckets.
        return (region * _HASH_MULTIPLIER) % self.crh_buckets

    def on_insert(self, line: CacheLine) -> None:
        # Inlined _region_of/_bucket and the bucket memo: this observer
        # fires on every L2 insert, and the helper-call overhead is
        # measurable there.
        region = line.block >> self.region_bits
        counts = self._region_counts
        count = counts.get(region, 0)
        counts[region] = count + 1
        if count == 0:
            maps = self._maps
            if maps is None:
                bucket = (region * _HASH_MULTIPLIER) % self.crh_buckets
            else:
                memo = maps.bucket_memo
                bucket = memo.get(region)
                if bucket is None:
                    bucket = memo[region] = (
                        region * _HASH_MULTIPLIER
                    ) % self.crh_buckets
                sharers = maps.region_sharers.get(region)
                if sharers is None:
                    maps.region_sharers[region] = {self.core}
                else:
                    sharers.add(self.core)
            crh = self._crh
            crh[bucket] += 1
            if maps is not None and crh[bucket] == 1:
                maps.bucket_cores[bucket].add(self.core)
                maps.bucket_epochs[bucket] += 1

    def on_evict(self, line: CacheLine) -> None:
        self._remove(line)

    def on_invalidate(self, line: CacheLine) -> None:
        self._remove(line)

    def _remove(self, line: CacheLine) -> None:
        region = line.block >> self.region_bits
        counts = self._region_counts
        count = counts.get(region, 0)
        if count <= 0:
            raise RuntimeError(f"region counter underflow for region {region:#x}")
        if count == 1:
            del counts[region]
            maps = self._maps
            if maps is None:
                bucket = (region * _HASH_MULTIPLIER) % self.crh_buckets
            else:
                memo = maps.bucket_memo
                bucket = memo.get(region)
                if bucket is None:
                    bucket = memo[region] = (
                        region * _HASH_MULTIPLIER
                    ) % self.crh_buckets
                sharers = maps.region_sharers.get(region)
                if sharers is not None:
                    sharers.discard(self.core)
                    if not sharers:
                        del maps.region_sharers[region]
            crh = self._crh
            crh[bucket] -= 1
            if maps is not None and crh[bucket] == 0:
                maps.bucket_cores[bucket].discard(self.core)
                maps.bucket_epochs[bucket] += 1
        else:
            counts[region] = count - 1

    def caches_region(self, region: int) -> bool:
        """Exact occupancy (ground truth, used for NSRT validation)."""
        return region in self._region_counts

    def crh_possibly_present(self, region: int) -> bool:
        """CRH answer: may return true for absent regions (collisions),
        never false for present ones."""
        return self._crh[self._bucket(region)] > 0


class RegionScoutFilter(PlacementListener):
    """Drop-in alternative to :class:`VirtualSnoopFilter`.

    Produces a :class:`RequestPlan` per transaction from the CRH/NSRT
    state. Filtering is safe by construction: a core excluded from the
    destination set provably caches no block of the region, so it can
    hold no tokens for the requested block.
    """

    def __init__(
        self,
        num_cores: int,
        region_blocks: int = DEFAULT_REGION_BLOCKS,
        crh_buckets: int = DEFAULT_CRH_BUCKETS,
        nsrt_entries: int = DEFAULT_NSRT_ENTRIES,
    ) -> None:
        if region_blocks <= 0 or (region_blocks & (region_blocks - 1)) != 0:
            raise ValueError(f"region_blocks must be a power of two, got {region_blocks}")
        self.num_cores = num_cores
        self.region_bits = region_blocks.bit_length() - 1
        self.crh_buckets = crh_buckets
        self.all_cores: FrozenSet[int] = frozenset(range(num_cores))
        # Derived maps (see module docstring): region -> exact sharer
        # cores, and per-bucket CRH membership with change epochs. The
        # trackers keep them incrementally consistent with their counts;
        # the aliases below are the same containers, never rebound.
        maps = RegionMaps(crh_buckets)
        self._region_sharers = maps.region_sharers
        self._bucket_cores = maps.bucket_cores
        self._bucket_epochs = maps.bucket_epochs
        # region -> CRH bucket, shared across all trackers (identical
        # hash everywhere), so the multiply-mod runs once per region.
        self._bucket_memo = maps.bucket_memo
        self.trackers: Dict[int, RegionTracker] = {
            core: RegionTracker(self.region_bits, crh_buckets, core=core, maps=maps)
            for core in range(num_cores)
        }
        self.nsrt_entries = nsrt_entries
        self._nsrt: Dict[int, "OrderedDict[int, None]"] = {
            core: OrderedDict() for core in range(num_cores)
        }
        # Memoised plans: NSRT hits keyed (core, page_type) — the
        # own-core singleton never changes — and CRH plans keyed
        # (core, bucket, page_type), valid while the bucket's membership
        # epoch is unchanged (destinations depend only on membership).
        self._self_plans: Dict[Tuple[int, PageType], RequestPlan] = {}
        self._plan_cache: Dict[Tuple[int, int, PageType], Tuple[int, RequestPlan]] = {}
        # Statistics about the filter's own behaviour.
        self.nsrt_hits = 0
        self.crh_filtered_cores = 0
        self.false_positive_cores = 0

    def bucket_of(self, region: int) -> int:
        """The (memoised) CRH bucket every core hashes ``region`` into."""
        # The region->bucket mapping is a pure function of (region,
        # crh_buckets), so this memo has no epoch to consult — unlike
        # _plan_cache, whose entries go stale when bucket membership
        # changes and are therefore (epoch, plan) pairs.
        bucket = self._bucket_memo.get(region)
        if bucket is None:
            bucket = self._bucket_memo[region] = (
                region * _HASH_MULTIPLIER
            ) % self.crh_buckets
        return bucket

    # ------------------------------------------------------------------
    # Plan construction (same contract as VirtualSnoopFilter.plan).
    # ------------------------------------------------------------------

    def plan(
        self,
        core: int,
        vm_id: int,
        page_type: PageType,
        block: Optional[int] = None,
    ) -> RequestPlan:
        if block is None:
            return RequestPlan.broadcast(self.all_cores, page_type)
        region = block >> self.region_bits
        sharers = self._region_sharers.get(region)
        nsrt = self._nsrt[core]
        if region in nsrt:
            # Valid iff no *other* core caches the region (the sharer map
            # never keeps empty sets, so None means globally uncached).
            if sharers is None or (len(sharers) == 1 and core in sharers):
                self.nsrt_hits += 1
                key = (core, page_type)
                plan = self._self_plans.get(key)
                if plan is None:
                    plan = self._self_plans[key] = RequestPlan(
                        attempts=(frozenset((core,)),), page_type=page_type
                    )
                return plan
            # Snoop-driven invalidation: another node acquired the region.
            del nsrt[region]
        bucket = self._bucket_memo.get(region)
        if bucket is None:
            bucket = self._bucket_memo[region] = (
                region * _HASH_MULTIPLIER
            ) % self.crh_buckets
        bucket_cores = self._bucket_cores[bucket]
        # Counter bookkeeping, O(1) from set sizes. With B = bucket
        # members besides the requester and S = exact sharers besides the
        # requester, the per-core walk counted: every non-requester core
        # outside the bucket as CRH-filtered (num_cores - 1 - |B|), and
        # every bucket member not actually caching the region as a false
        # positive (|B| - |S|; caching a region implies a non-zero CRH
        # bucket, so S is always a subset of B).
        others_in_bucket = len(bucket_cores) - (core in bucket_cores)
        if sharers is None:
            sharers_elsewhere = 0
        else:
            sharers_elsewhere = len(sharers) - (core in sharers)
        self.false_positive_cores += others_in_bucket - sharers_elsewhere
        self.crh_filtered_cores += self.num_cores - 1 - others_in_bucket
        epoch = self._bucket_epochs[bucket]
        key2 = (core, bucket, page_type)
        cached = self._plan_cache.get(key2)
        if cached is not None and cached[0] == epoch:
            return cached[1]
        destinations = frozenset(bucket_cores) | {core}
        plan = RequestPlan(attempts=(destinations,), page_type=page_type)
        self._plan_cache[key2] = (epoch, plan)
        return plan

    def observe_outcome(self, core: int, block: int) -> None:
        """Post-transaction NSRT learning: if no other core holds the
        region, remember it as not-shared."""
        region = block >> self.region_bits
        sharers = self._region_sharers.get(region)
        if sharers is not None and not (len(sharers) == 1 and core in sharers):
            return
        nsrt = self._nsrt[core]
        nsrt[region] = None
        nsrt.move_to_end(region)
        while len(nsrt) > self.nsrt_entries:
            nsrt.popitem(last=False)

    # ------------------------------------------------------------------
    # Snapshot support (warm-state reuse; see repro.sim.system).
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Plain-data capture of all mutable filter state."""
        return {
            "counts": {
                core: dict(tracker._region_counts)
                for core, tracker in self.trackers.items()
            },
            "crh": {core: list(tracker._crh) for core, tracker in self.trackers.items()},
            "nsrt": {core: list(entries) for core, entries in self._nsrt.items()},
            "nsrt_hits": self.nsrt_hits,
            "crh_filtered_cores": self.crh_filtered_cores,
            "false_positive_cores": self.false_positive_cores,
        }

    def restore_state(self, state: dict) -> None:
        """Transplant a :meth:`snapshot_state` capture into this filter.

        Mutates the existing trackers in place (the caches hold them as
        observers) and rebuilds the derived sharer/bucket maps from the
        restored counts, in place too (the trackers share them); plan
        caches are dropped, epochs restart at zero.
        """
        self._region_sharers.clear()
        for bucket_set in self._bucket_cores:
            bucket_set.clear()
        self._bucket_epochs[:] = [0] * self.crh_buckets
        self._plan_cache.clear()
        self._self_plans.clear()
        for core, tracker in self.trackers.items():
            tracker._region_counts = dict(state["counts"][core])
            tracker._crh = list(state["crh"][core])
            for region in tracker._region_counts:
                sharers = self._region_sharers.get(region)
                if sharers is None:
                    self._region_sharers[region] = {core}
                else:
                    sharers.add(core)
            for bucket, value in enumerate(tracker._crh):
                if value > 0:
                    self._bucket_cores[bucket].add(core)
        for core, regions in state["nsrt"].items():
            nsrt = self._nsrt[core]
            nsrt.clear()
            for region in regions:
                nsrt[region] = None
        self.nsrt_hits = state["nsrt_hits"]
        self.crh_filtered_cores = state["crh_filtered_cores"]
        self.false_positive_cores = state["false_positive_cores"]

    # ------------------------------------------------------------------
    # PlacementListener interface — RegionScout ignores VM events.
    # ------------------------------------------------------------------

    def on_vcpu_placed(self, vm_id: int, core: int) -> None:
        pass

    def on_vcpu_displaced(self, vm_id: int, core: int) -> None:
        pass
