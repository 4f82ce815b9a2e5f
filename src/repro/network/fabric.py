"""The fabric: topology + links + switches + routing, with transfer timing.

This is the Venus role in the paper's Dimemas+Venus co-simulation: given a
message (src host, dst host, size), the fabric computes when its last byte
arrives, reserving every directed channel along the route so contention is
honoured, and recording busy intervals for idle/power analysis.

Timing model (virtual cut-through with segment pipelining, Table II):

* the path latency is ``MPI_LATENCY_US + hops * SWITCH_HOP_LATENCY_US``;
* each directed channel serialises the full message at link bandwidth and
  is busy for that long; the head segment advances to the next hop after
  one segment serialisation time, so the end-to-end duration of an
  uncongested transfer is ``latency + (hops-1)*t_seg + size/bw``;
* a channel already busy delays the transfer (per-link FIFO reservation).

Power interaction: if any link on the path is not at full width when the
transfer wants to start, the transfer waits for that link's reactivation
(the paper's misprediction penalty — the one remaining lane keeps
connectivity, but the design waits for full width rather than crawling at
1X, matching the paper's accounting of reactivation delays).

Routing is *static per (src, dst) pair*: a :class:`~repro.network.routing.
RouteTable` compiles each pair's up*/down* path once (random or d-mod-k
ascent choices, seeded order-independently), mirroring how an IB subnet
manager programs forwarding tables ahead of traffic.  On top of the path
the fabric precompiles a flat per-pair table of hop records, so the
replay hot path never walks routing dicts or recomputes subtree
arithmetic per message.

There are two transfer bodies, and a healthy fabric is a faulted one
with no events.  :meth:`Fabric.transfer` is the reference kernel: a
live per-message walk, which also backs ``transfer_hot`` when
``use_fast_path=False``.  :meth:`Fabric.transfer_hot` is the replay
kernel over compiled hop records: the static tables, also under fault
injection (:meth:`Fabric.install_faults`) for every pair resolved to
its static route; only failover paths compile records of their own.
Records read bandwidth live from the channel and scheduled down times
from the link, so neither degradation nor a fault plan invalidates
them.  The two kernels are property-tested to be bit-for-bit identical,
on healthy fabrics and on hand-built fault plans (see
:mod:`repro.network.faults`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..constants import (
    MPI_LATENCY_US,
    SEGMENT_SIZE_BYTES,
    SWITCH_HOP_LATENCY_US,
)
from .faults import (
    FabricPartitioned,
    FaultPlan,
    FaultSpec,
    FaultState,
    compile_fault_plan,
    parse_faults,
)
from .links import Link, LinkPowerMode
from .routing import (
    DeterministicRouter,
    RandomRouter,
    Router,
    RouteTable,
    path_links,
)
from .switches import Switch
from .topology import NodeId, Topology, build_xgft, fitted_topology


def _edge_key(a: NodeId, b: NodeId) -> tuple[NodeId, NodeId]:
    return (a, b) if a <= b else (b, a)


@dataclass(slots=True)
class TransferTiming:
    """Outcome of pushing one message through the fabric.

    Mutable-slots on purpose: frozen dataclasses assign fields through
    ``object.__setattr__`` and one timing is built per message on the
    replay hot path.  Treat instances as read-only all the same.
    """

    depart_us: float        # when the first byte leaves the source HCA
    arrive_us: float        # when the last byte reaches the destination
    wire_us: float          # arrive - depart (queueing + wire time)
    power_wait_us: float    # time spent waiting for lane reactivation
    hops: int
    #: when the source HCA channel has drained the message — the moment a
    #: blocking sender's buffer is reusable and the call can return
    src_release_us: float = 0.0

    @property
    def total_us(self) -> float:
        return self.arrive_us - self.depart_us


@dataclass
class Fabric:
    """A routed, power-state-aware IB network."""

    topo: Topology
    router: Router
    mpi_latency_us: float = MPI_LATENCY_US
    hop_latency_us: float = SWITCH_HOP_LATENCY_US
    segment_bytes: int = SEGMENT_SIZE_BYTES
    links: dict[tuple[NodeId, NodeId], Link] = field(default_factory=dict)
    switches: dict[NodeId, Switch] = field(default_factory=dict)
    messages_sent: int = 0
    #: compiled static routes; derived from ``router`` when not given
    routes: RouteTable | None = None
    #: run :meth:`transfer_hot` on the flat hop tables (True) or on the
    #: reference per-message walk (False); both are bit-for-bit identical
    use_fast_path: bool = True

    def __post_init__(self) -> None:
        if not self.links:
            for a, b in self.topo.edges:
                self.links[_edge_key(a, b)] = Link(*_edge_key(a, b))
        if not self.switches:
            for node in self.topo.switches:
                self.switches[node] = Switch(node, hop_latency_us=self.hop_latency_us)
            for link in self.links.values():
                for end in link.endpoints:
                    if not end.is_host:
                        self.switches[end].attach(link)
        if self.routes is None:
            if isinstance(self.router, RandomRouter) and self.router.seed is not None:
                self.routes = RouteTable(self.topo, seed=self.router.seed)
            elif isinstance(self.router, DeterministicRouter):
                self.routes = RouteTable(self.topo, seed=None)
            else:
                # custom router, or a RandomRouter around an unseeded
                # generator: compile pairs through the router itself
                self.routes = RouteTable(self.topo, router=self.router)
        #: per-(src, dst) static-route hop records (see
        #: :meth:`_path_hops`), keyed src*H+dst
        self._hops: dict[int, tuple] = {}
        self._num_hosts = self.topo.num_hosts
        #: active fault-injection state (None = healthy fabric)
        self._faults: FaultState | None = None
        #: the last pair set :meth:`precompile_pairs` compiled; only a
        #: frozenset is kept, as it cannot change behind the fabric
        self._compiled_pairs: frozenset | None = None

    # -- construction helpers ----------------------------------------------

    @classmethod
    def for_ranks(
        cls,
        nranks: int,
        *,
        seed: int = 0,
        hosts_per_leaf: int = 18,
        random_routing: bool = True,
        topology: "str | Topology | None" = None,
    ) -> "Fabric":
        """A routed fabric sized for ``nranks`` hosts.

        ``topology`` selects the family: ``None`` keeps the paper's
        right-sized two-level XGFT (``hosts_per_leaf`` applies), a spec
        string (``"torus:k=4,n=2"``, see :mod:`repro.network.topologies`)
        builds that family fitted to ``nranks``, and an already-built
        :class:`Topology` is used as-is.
        """

        if topology is None:
            topo = fitted_topology(nranks, hosts_per_leaf=hosts_per_leaf)
        elif isinstance(topology, Topology):
            if topology.num_hosts < nranks:
                raise ValueError(
                    f"topology provides {topology.num_hosts} hosts, fewer "
                    f"than the {nranks} ranks it must carry"
                )
            topo = topology
        else:
            from .topologies import build_topology

            topo = build_topology(topology, nranks)
        router: Router
        if random_routing:
            router = RandomRouter.seeded(topo, seed)
        else:
            router = DeterministicRouter(topo)
        return cls(topo=topo, router=router)

    # -- link access --------------------------------------------------------

    def link_between(self, a: NodeId, b: NodeId) -> Link:
        return self.links[_edge_key(a, b)]

    def host_link(self, host_index: int) -> Link:
        """The HCA link of host ``host_index`` (hosts have one uplink)."""

        host = self.topo.host(host_index)
        (up,) = self.topo.up_neighbors(host)
        return self.link_between(host, up)

    def host_links(self) -> list[Link]:
        return [self.host_link(i) for i in range(self.topo.num_hosts)]

    def trunk_links(self) -> list[Link]:
        return [l for l in self.links.values() if not l.is_host_link]

    def all_links(self) -> list[Link]:
        return list(self.links.values())

    # -- transfer timing -----------------------------------------------------

    def _path_hops(self, path: Sequence[NodeId]) -> tuple:
        """Flatten a vertex path into per-hop records.

        Each record is ``(link, channel, switch, busy_starts.append,
        busy_ends.append)``; ``switch`` is None at the destination host.
        Links, channels and busy-log lists are cleared in place by
        :meth:`reset`, never rebuilt, and bandwidth (from the channel) and
        scheduled down times (``Link.downs``) are read live, so a record
        stays valid for the fabric's whole lifetime, healthy or faulted.
        """

        hops = []
        for tail, head in path_links(path):
            link = self.link_between(tail, head)
            channel = link.channel(tail)
            switch = None if head.is_host else self.switches[head]
            hops.append(
                (
                    link,
                    channel,
                    switch,
                    channel.busy_starts.append,
                    channel.busy_ends.append,
                )
            )
        return tuple(hops)

    def _compile_hops(self, src_host: int, dst_host: int) -> tuple:
        """Compile and keep one pair's static-route hop records."""

        compiled = self._path_hops(self.routes.path(src_host, dst_host))
        self._hops[src_host * self._num_hosts + dst_host] = compiled
        return compiled

    def precompile_pairs(self, pairs: Iterable[tuple[int, int]]) -> int:
        """Compile routes + hop tables for ``pairs`` ahead of traffic.

        Replay drivers pass the compiled trace's
        :meth:`~repro.sim.program.CompiledTrace.comm_pairs` so the timed
        replay never pays lazy route compilation (loopback and
        already-compiled pairs are skipped).  Returns the number of
        pairs compiled.  A pooled fabric is handed the same
        ``comm_pair_set`` on every replay of a cell, and hop tables
        survive :meth:`reset`, so the last frozenset compiled is
        remembered and not walked again.
        """

        if pairs is self._compiled_pairs:
            return 0
        hops = self._hops
        n = self._num_hosts
        # sort only the pairs that compile, in the whole set's order
        todo = sorted(
            (src, dst) for src, dst in pairs
            if src != dst and src * n + dst not in hops
        )
        for src, dst in todo:
            self._compile_hops(src, dst)
        if type(pairs) is frozenset:
            self._compiled_pairs = pairs
        return len(todo)

    def transfer(
        self,
        src_host: int,
        dst_host: int,
        size_bytes: int,
        earliest_us: float,
        *,
        on_power_block=None,
    ) -> TransferTiming:
        """Send ``size_bytes`` from ``src_host`` to ``dst_host``.

        ``earliest_us`` is when the payload is ready at the source.
        ``on_power_block(link, now) -> ready_us`` is invoked for each link
        on the path that is not at full width; it must initiate (or join)
        a reactivation and return when the link is usable.  Without a
        callback, links are assumed always-on (the baseline run).

        Returns the transfer timing; the overlapping busy intervals are
        recorded on every traversed channel.  This is the reference
        kernel, a live per-message walk and the equivalence oracle for
        :meth:`transfer_hot`.  A healthy fabric walks the static route.
        Under faults the walk first applies pending events up to the
        transfer clock and resolves the pair's surviving route.  A hop
        whose reservation window contains the link's scheduled down time
        is cut at that instant (partial busy interval) and the whole
        transfer retries after ``retry_delay_us`` on a route excluding
        the dying link; earlier hops keep their reservations — those
        bytes really transited.  ``depart`` is the first transmission
        attempt's start; ``src_release`` is the successful attempt's
        first-hop drain.
        """

        state = self._faults
        if size_bytes < 0:
            raise ValueError("negative message size")
        self.messages_sent += 1
        if state is not None:
            state.apply_until(self, earliest_us)
        if src_host == dst_host:
            # loopback: no network involvement, only the software latency
            arrive = earliest_us + self.mpi_latency_us
            return TransferTiming(
                earliest_us, arrive, self.mpi_latency_us, 0.0, 0, arrive
            )

        size = max(1, size_bytes)
        # software injection latency happens before the wire
        head_ready = earliest_us + self.mpi_latency_us
        power_wait = 0.0
        depart = None
        exclude = None
        attempts = 0
        while True:
            if state is None:
                path = self.routes.path(src_host, dst_host)
            else:
                attempts += 1
                if attempts > 64:
                    raise RuntimeError(
                        f"fault retry livelock: transfer {src_host}->"
                        f"{dst_host} interrupted {attempts} times"
                    )
                state.apply_until(self, head_ready)
                t_applied = head_ready
                try:
                    path, migrated = state.resolve_route(
                        self, src_host, dst_host, head_ready, exclude
                    )
                except FabricPartitioned:
                    heal = state.next_link_up(head_ready)
                    if heal is None:
                        raise  # genuinely partitioned: no scheduled heal
                    # every surviving-candidate route is down but a
                    # flapped link heals later: stall until then and
                    # re-resolve
                    head_ready = heal + state.plan.spec.retry_delay_us
                    exclude = None
                    continue
                if migrated:
                    penalty = state.plan.spec.reroute_penalty_us
                    state.migration_wait_us += penalty
                    head_ready += penalty
                    t_applied = head_ready
            src_release = None
            for tail, head in path_links(path):
                link = self.link_between(tail, head)
                if link.mode is not LinkPowerMode.FULL:
                    if on_power_block is not None:
                        usable = on_power_block(link, head_ready)
                    else:
                        usable = link.ready_time(head_ready)
                    if usable > head_ready:
                        power_wait += usable - head_ready
                        head_ready = usable
                channel = link.channel(tail)
                start = max(head_ready, channel.next_free_us)
                serial = size / channel.bandwidth_bytes_per_us
                end = start + serial
                down = (
                    None if state is None
                    else state.next_down((link.a, link.b), t_applied, end)
                )
                if down is not None:
                    # the link dies mid-reservation: cut the busy window
                    # at the down instant and retry on another route
                    if down > start:
                        channel.next_free_us = down
                        channel.busy_starts.append(start)
                        channel.busy_ends.append(down)
                        if src_release is None and depart is None:
                            depart = start
                    state.inflight_retries += 1
                    head_ready = down + state.plan.spec.retry_delay_us
                    exclude = (link.a, link.b)
                    break
                channel.next_free_us = end
                channel.bytes_carried += size
                channel.busy_starts.append(start)
                channel.busy_ends.append(end)
                if src_release is None:
                    if depart is None:
                        depart = start
                    src_release = end
                if not head.is_host:
                    self.switches[head].record_forward(size)
                # head of the message reaches the next hop after one
                # segment plus the switch traversal latency
                head_ready = (
                    start
                    + min(self.segment_bytes / channel.bandwidth_bytes_per_us,
                          serial)
                    + self.hop_latency_us
                )
            else:
                # the last byte arrives when the final channel finishes
                return TransferTiming(
                    depart_us=depart,
                    arrive_us=end,
                    wire_us=end - depart,
                    power_wait_us=power_wait,
                    hops=len(path) - 1,
                    src_release_us=src_release,
                )

    def transfer_hot(
        self,
        src_host: int,
        dst_host: int,
        size_bytes: int,
        earliest_us: float,
        on_power_block=None,
    ) -> tuple[float, float]:
        """The replay kernel: :meth:`transfer` over compiled hop records,
        returning only ``(arrive_us, src_release_us)``.

        The MPI replay layer only consumes those two fields, so its hot
        path skips the per-message :class:`TransferTiming` construction.
        The pair's static-route records come from ``_hops``.  Under
        faults a pair's route is resolved once per fault epoch (see
        :class:`~repro.network.faults.FaultState`) and served from
        ``route_cache`` while the epoch holds: the ``_hops`` records if
        it is the static route, records compiled for the path if it
        fails over.  An in-flight retry, which resolves around the dying
        link, bypasses the cache, and pending events are applied only
        once the clock reaches the next event time.  Same arithmetic,
        same bookkeeping
        and the same fault-state mutations as the reference walk; with
        ``use_fast_path`` off it simply wraps that walk.
        """

        if not self.use_fast_path:
            t = self.transfer(
                src_host, dst_host, size_bytes, earliest_us,
                on_power_block=on_power_block,
            )
            return t.arrive_us, t.src_release_us
        if size_bytes < 0:
            raise ValueError("negative message size")
        self.messages_sent += 1
        state = self._faults
        if state is not None and earliest_us >= state.next_t:
            state.apply_until(self, earliest_us)
        if src_host == dst_host:
            arrive = earliest_us + self.mpi_latency_us
            return arrive, arrive

        key = src_host * self._num_hosts + dst_host
        size = size_bytes if size_bytes > 1 else 1
        head_ready = earliest_us + self.mpi_latency_us
        hop_latency = self.hop_latency_us
        segment = self.segment_bytes
        full = LinkPowerMode.FULL
        if state is None:
            route = self._hops.get(key)
            if route is None:
                route = self._compile_hops(src_host, dst_host)
        else:
            exclude = None
            attempts = 0
        while True:
            if state is not None:
                # resolve (or serve from the epoch cache) per attempt
                attempts += 1
                if attempts > 64:
                    raise RuntimeError(
                        f"fault retry livelock: transfer {src_host}->"
                        f"{dst_host} interrupted {attempts} times"
                    )
                if head_ready >= state.next_t:
                    state.apply_until(self, head_ready)
                t_applied = head_ready
                cached = (
                    state.route_cache.get(key) if exclude is None else None
                )
                if cached is not None and cached[0] == state.epoch:
                    route = cached[1]
                else:
                    try:
                        path, migrated = state.resolve_route(
                            self, src_host, dst_host, head_ready, exclude
                        )
                    except FabricPartitioned:
                        heal = state.next_link_up(head_ready)
                        if heal is None:
                            raise
                        head_ready = heal + state.plan.spec.retry_delay_us
                        exclude = None
                        continue
                    if path is self.routes.path(src_host, dst_host):
                        route = self._hops.get(key)
                        if route is None:
                            route = self._compile_hops(src_host, dst_host)
                    else:
                        route = self._path_hops(path)
                    if exclude is None:
                        state.route_cache[key] = (state.epoch, route)
                    if migrated:
                        penalty = state.plan.spec.reroute_penalty_us
                        state.migration_wait_us += penalty
                        head_ready += penalty
                        t_applied = head_ready
            src_release = None
            for link, channel, switch, s_append, e_append in route:
                if link.mode is not full:
                    if on_power_block is not None:
                        usable = on_power_block(link, head_ready)
                    else:
                        usable = link.ready_time(head_ready)
                    if usable > head_ready:
                        head_ready = usable
                # channel.reserve, inlined (same float ops — start is
                # max(earliest, next_free), end adds the serialisation time)
                next_free = channel.next_free_us
                start = next_free if next_free > head_ready else head_ready
                bandwidth = channel.bandwidth_bytes_per_us
                serial = size / bandwidth
                end = start + serial
                if state is not None and link.downs is not None:
                    # FaultState.next_down, inlined over the link's copy
                    # of the plan's down times
                    downs = link.downs
                    i = bisect_right(downs, t_applied)
                    if i < len(downs) and downs[i] < end:
                        down = downs[i]
                        if down > start:
                            channel.next_free_us = down
                            s_append(start)
                            e_append(down)
                        state.inflight_retries += 1
                        head_ready = down + state.plan.spec.retry_delay_us
                        exclude = (link.a, link.b)
                        break
                channel.next_free_us = end
                channel.bytes_carried += size
                s_append(start)
                e_append(end)
                if src_release is None:
                    src_release = end
                if switch is not None:
                    switch.messages_forwarded += 1
                    switch.bytes_switched += size
                # min(segment / bandwidth, serial) with one division:
                # dividing by the same bandwidth preserves order
                head_ready = (
                    start
                    + (segment / bandwidth if size > segment else serial)
                    + hop_latency
                )
            else:
                return end, src_release

    # -- fault injection -----------------------------------------------------

    def install_faults(self, plan: "FaultPlan | FaultSpec | str") -> None:
        """Arm the fabric with a fault plan (spec string / spec / plan).

        Every subsequent transfer, on either kernel, applies the plan's
        timed events lazily at the simulation clock (see
        :mod:`repro.network.faults` for the determinism argument) and
        handles failover, in-flight retries and partitions.
        :meth:`reset` restores the fabric to pristine and disarms it;
        arming over an armed plan first undoes that plan's degraded
        bandwidths.
        """

        if isinstance(plan, str):
            plan = parse_faults(plan)  # None for "none"
        if isinstance(plan, FaultSpec):
            plan = compile_fault_plan(plan, self)
        if self._faults is not None:
            self._faults.restore(self)
        # each link carries its own down times for the fast kernel
        down_times = {} if plan is None else plan.down_times
        for key, link in self.links.items():
            link.downs = down_times.get(key)
        self._faults = None if plan is None else FaultState(plan)

    def fault_summary(self):
        """The active replay's :class:`~repro.network.faults.
        FaultSummary`, or ``None`` on a healthy fabric."""

        return None if self._faults is None else self._faults.summary()

    def wake_fault_model(self):
        """The plan's wake-timeout model for managed links (or None)."""

        return None if self._faults is None else self._faults.plan.wake_model()

    # -- analysis ------------------------------------------------------------

    def host_link_busy_logs(self) -> dict[int, list[tuple[float, float]]]:
        """Merged (both directions) busy intervals per HCA link."""

        out: dict[int, list[tuple[float, float]]] = {}
        for i in range(self.topo.num_hosts):
            link = self.host_link(i)
            merged = sorted(link.forward.busy_log + link.backward.busy_log)
            out[i] = merged
        return out

    def total_bytes_carried(self) -> int:
        return sum(
            l.forward.bytes_carried + l.backward.bytes_carried
            for l in self.links.values()
        )

    def switch_traffic(self) -> dict[NodeId, tuple[int, int]]:
        """Per-switch (messages forwarded, bytes switched)."""

        return {
            node: (sw.messages_forwarded, sw.bytes_switched)
            for node, sw in self.switches.items()
        }

    def reset(self) -> None:
        """Clear all per-replay state so the fabric can be reused.

        Links (channels, busy logs, power mode, ``t_react_us``, down
        times), switch traffic counters and the message counter are
        cleared; the static route table and compiled hop tables survive —
        routes are a property of (topology, seed), not of a run — which
        is exactly what makes back-to-back replays on one fabric equal
        fresh-fabric replays.
        """

        if self._faults is not None:
            # undo fault-layer mutations (degraded channel bandwidths);
            # the fault-state audit (failed elements, overlays,
            # counters) dies with the state
            self._faults.restore(self)
            self._faults = None
        for link in self.links.values():
            link.reset()
        for sw in self.switches.values():
            sw.reset()
        self.messages_sent = 0
