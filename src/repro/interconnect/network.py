"""Network traffic accounting and latency model.

The model charges every message ``flits x hops`` link traffic (unicast
replication for multicasts, as in TokenB's broadcast of transient
requests) and computes delivery latency from the XY hop count, the router
pipeline depth, and a congestion term derived from recent link
utilisation.

The congestion term is what lets virtual snooping show its (modest)
execution-time advantage in Figure 6: fewer snoop messages lower link
utilisation, which lowers the queueing delay every message sees. The
paper reports 0.2–9.1 % runtime reductions; the term here is deliberately
mild to match.
"""

from __future__ import annotations

from typing import Iterable

from repro.interconnect.messages import DEFAULT_SIZING, FlitSizing, MessageKind
from repro.interconnect.topology import Topology


class NetworkModel:
    """Traffic and latency accounting for one interconnect.

    The model is *analytic*: it does not queue individual flits, it
    estimates delay from utilisation measured over a sliding window of
    ``window_cycles``. Callers pass the current global cycle to
    :meth:`send`/:meth:`multicast` so the window can advance.
    """

    def __init__(
        self,
        topology: Topology,
        sizing: FlitSizing = DEFAULT_SIZING,
        router_latency: int = 4,
        link_latency: int = 1,
        window_cycles: int = 4096,
        contention_scale: float = 24.0,
    ) -> None:
        self.topology = topology
        self.sizing = sizing
        self.router_latency = router_latency
        self.link_latency = link_latency
        self.window_cycles = window_cycles
        self.contention_scale = contention_scale
        # Hot-path precomputation: the hop table, per-kind flit counts and
        # the per-hop pipeline latency are all invariant for the model's
        # lifetime, and recomputing them per message dominates profile time.
        self._hops = topology.hops_table
        self._flits = {kind: sizing.flits(kind) for kind in MessageKind}
        self._per_hop = router_latency + link_latency
        # Directed link count — the capacity denominator for windowed
        # utilisation. Each topology reports its own (hierarchical ones
        # count inter-socket channels as their serialised segments).
        self.num_links = topology.num_links
        # Traffic counters (cumulative).
        self.messages = 0
        self.flit_hops = 0
        self.bytes_transferred = 0
        # Sliding-window utilisation state.
        self._window_start = 0
        self._window_flit_hops = 0
        self._last_utilisation = 0.0
        # (src, destination-frozenset) -> (count, total_hops, worst_hops).
        # Plans reuse their destination frozensets across transactions, so
        # the per-destination hop walk is paid once per distinct set. The
        # cache is bounded: past _mc_cache_max entries it is cleared and
        # rebuilt (distinct destination sets are few in practice, so the
        # bound only guards against pathological callers).
        self._mc_cache: dict = {}
        self._mc_cache_max = 4096

    def hops(self, src: int, dst: int) -> int:
        """XY hop count between two nodes (table lookup)."""
        return self._hops[src][dst]

    def _advance_window(self, cycle: int) -> None:
        if cycle - self._window_start >= self.window_cycles:
            # Close the accumulating window at its true width — judging
            # its flit-hops over the whole gap to the next message would
            # dilute a busy window toward zero after a quiet stretch.
            capacity = self.window_cycles * self.num_links
            self._last_utilisation = min(self._window_flit_hops / capacity, 0.95)
            self._window_start += self.window_cycles
            self._window_flit_hops = 0
            # Any further fully-elapsed windows carried no traffic:
            # utilisation decays to zero and the window grid re-tiles up
            # to the current cycle.
            idle = (cycle - self._window_start) // self.window_cycles
            if idle > 0:
                self._window_start += idle * self.window_cycles
                self._last_utilisation = 0.0

    def utilisation(self) -> float:
        """Most recent windowed link utilisation estimate in [0, 0.95]."""
        return self._last_utilisation

    def contention_delay(self) -> int:
        """Extra cycles of queueing delay implied by current utilisation."""
        u = self._last_utilisation
        return int(self.contention_scale * u / (1.0 - u))

    def _aggregate_hops(self, src: int, dsts: Iterable[int]) -> tuple:
        """(count, total_hops, worst_hops) of a multicast from ``src``."""
        hops_row = self._hops[src]
        worst_hops = 0
        total_hops = 0
        count = 0
        for dst in dsts:
            if dst == src:
                continue
            hops = hops_row[dst]
            total_hops += hops
            count += 1
            if hops > worst_hops:
                worst_hops = hops
        return count, total_hops, worst_hops

    def send(self, src: int, dst: int, kind: MessageKind, cycle: int = 0) -> int:
        """Record a unicast message; return its delivery latency in cycles.

        A self-send (``src == dst``) is free and instantaneous — the
        protocol never puts local lookups on the network.
        """
        # Inline guard: the window rolls over rarely, so skip the helper
        # call in the common case (the helper re-checks the condition).
        if cycle - self._window_start >= self.window_cycles:
            self._advance_window(cycle)
        if src == dst:
            return 0
        hops = self._hops[src][dst]
        flits = self._flits[kind]
        flit_hops = flits * hops
        self.messages += 1
        self.flit_hops += flit_hops
        self.bytes_transferred += flit_hops * self.sizing.link_bytes
        self._window_flit_hops += flit_hops
        return hops * self._per_hop + self.contention_delay()

    def multicast(
        self,
        src: int,
        dsts: Iterable[int],
        kind: MessageKind,
        cycle: int = 0,
    ) -> int:
        """Record a multicast (unicast replication); return the worst latency.

        Traffic is charged once per *distinct* destination (a repeated
        core receives one copy of the message, however many times it
        appears in ``dsts``); latency is the slowest destination's, since
        the requester must wait for all responses.
        """
        if cycle - self._window_start >= self.window_cycles:
            self._advance_window(cycle)
        if type(dsts) is not frozenset:
            # Normalising to a frozenset dedupes repeated destinations and
            # keys the cache by *value*. Anything else either fails to hash
            # (lists, sets) or hashes by identity (a generator), which
            # charged duplicates and grew the cache one dead entry per call.
            dsts = frozenset(dsts)
        key = (src, dsts)
        agg = self._mc_cache.get(key)
        if agg is None:
            if len(self._mc_cache) >= self._mc_cache_max:
                self._mc_cache.clear()
            agg = self._mc_cache[key] = self._aggregate_hops(src, dsts)
        count, total_hops, worst_hops = agg
        if count:
            flit_hops = self._flits[kind] * total_hops
            self.messages += count
            self.flit_hops += flit_hops
            self.bytes_transferred += flit_hops * self.sizing.link_bytes
            self._window_flit_hops += flit_hops
        if worst_hops == 0:
            return 0
        return worst_hops * self._per_hop + self.contention_delay()

    def reset(self, cycle: int = 0) -> None:
        """Zero the counters and restart the utilisation window at ``cycle``.

        A mid-run reset (the warm-up / measurement boundary) must pass
        the current cycle: rewinding the window epoch to 0 would make
        the next window span the entire prior run and dilute its
        utilisation toward zero.
        """
        self.messages = 0
        self.flit_hops = 0
        self.bytes_transferred = 0
        self._window_start = cycle
        self._window_flit_hops = 0
        self._last_utilisation = 0.0
        self._mc_cache.clear()
