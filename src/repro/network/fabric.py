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
the fabric precompiles a flat per-pair hop table — ``(link, channel,
switch)`` triples plus the pipelining constants — so the replay hot path
never walks routing dicts or recomputes subtree arithmetic per message.
:meth:`Fabric.transfer_hot` (the replay path) executes that fast kernel;
:meth:`Fabric.transfer` is the straightforward per-message walk, which
also backs ``transfer_hot`` when ``use_fast_path=False``, and the two are
property-tested to be bit-for-bit identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

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
from .links import DirectedChannel, Link, LinkPowerMode
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
        #: per-(src, dst) flat hop tables: tuple of (link, channel,
        #: switch-or-None, segment_time_us) hops, keyed src*H+dst
        self._hops: dict[int, tuple] = {}
        self._num_hosts = self.topo.num_hosts
        #: active fault-injection state (None = healthy fabric); when
        #: set, every transfer routes through the shared faulted kernel
        self._faults: FaultState | None = None

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

    def segment_time_us(self, channel: DirectedChannel) -> float:
        return self.segment_bytes / channel.bandwidth_bytes_per_us

    def _compile_hops(self, src_host: int, dst_host: int) -> tuple:
        """Flatten one pair's static route into per-hop records.

        Each hop carries the channel's bandwidth alongside the objects so
        the transfer kernel never chases attribute chains per hop; links
        and channels are stable across :meth:`reset` (cleared in place,
        never rebuilt), so the compiled records stay valid for the
        fabric's whole lifetime.
        """

        path = self.routes.path(src_host, dst_host)
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
                    self.segment_time_us(channel),
                    channel.bandwidth_bytes_per_us,
                    # busy-log lists are cleared in place by reset(), so
                    # their bound append methods stay valid for the
                    # fabric's lifetime
                    channel.busy_starts.append,
                    channel.busy_ends.append,
                )
            )
        compiled = tuple(hops)
        self._hops[src_host * self._num_hosts + dst_host] = compiled
        return compiled

    def precompile_pairs(self, pairs: Iterable[tuple[int, int]]) -> int:
        """Compile routes + hop tables for ``pairs`` ahead of traffic.

        Replay drivers pass the compiled trace's
        :meth:`~repro.sim.program.CompiledTrace.comm_pairs` so the timed
        replay never pays lazy route compilation (loopback and
        already-compiled pairs are skipped).  Returns the number of
        pairs compiled.
        """

        compiled = 0
        hops = self._hops
        n = self._num_hosts
        for src, dst in sorted(pairs):
            if src == dst or src * n + dst in hops:
                continue
            self._compile_hops(src, dst)
            compiled += 1
        return compiled

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
        kernel: a per-message walk of the static route, the equivalence
        oracle for :meth:`transfer_hot`.
        """

        if self._faults is not None:
            # both kernels share one faulted implementation, so the
            # fast == reference equality under faults is structural
            return self._transfer_faulted(
                src_host, dst_host, size_bytes, earliest_us, on_power_block
            )
        if size_bytes < 0:
            raise ValueError("negative message size")
        self.messages_sent += 1
        if src_host == dst_host:
            # loopback: no network involvement, only the software latency
            arrive = earliest_us + self.mpi_latency_us
            return TransferTiming(
                earliest_us, arrive, self.mpi_latency_us, 0.0, 0, arrive
            )

        path = self.routes.path(src_host, dst_host)
        hops = len(path) - 1
        size = max(1, size_bytes)

        # software injection latency happens before the wire
        head_ready = earliest_us + self.mpi_latency_us
        power_wait = 0.0
        depart = None
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
            start, end = channel.reserve(head_ready, size)
            if depart is None:
                depart = start
                src_release = end
            if not head.is_host:
                self.switches[head].record_forward(size)
            # head of the message reaches the next hop after one segment
            # plus the switch traversal latency
            head_ready = (
                start
                + min(self.segment_time_us(channel), size / channel.bandwidth_bytes_per_us)
                + self.hop_latency_us
            )

        assert depart is not None and src_release is not None
        last_tail, last_head = path[-2], path[-1]
        last_channel = self.link_between(last_tail, last_head).channel(last_tail)
        # the last byte arrives when the final channel finishes serialising
        arrive = last_channel.next_free_us
        return TransferTiming(
            depart_us=depart,
            arrive_us=arrive,
            wire_us=arrive - depart,
            power_wait_us=power_wait,
            hops=hops,
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
        """The replay kernel: :meth:`transfer` over the precompiled flat
        hop table, returning only ``(arrive_us, src_release_us)``.

        The MPI replay layer only consumes those two fields, so its hot
        path skips the per-message :class:`TransferTiming` construction.
        Identical arithmetic and identical channel/switch bookkeeping;
        with ``use_fast_path`` off it simply wraps the reference walk.
        """

        if self._faults is not None:
            t = self._transfer_faulted(
                src_host, dst_host, size_bytes, earliest_us, on_power_block
            )
            return t.arrive_us, t.src_release_us
        if not self.use_fast_path:
            t = self.transfer(
                src_host, dst_host, size_bytes, earliest_us,
                on_power_block=on_power_block,
            )
            return t.arrive_us, t.src_release_us
        if size_bytes < 0:
            raise ValueError("negative message size")
        self.messages_sent += 1
        if src_host == dst_host:
            arrive = earliest_us + self.mpi_latency_us
            return arrive, arrive

        route = self._hops.get(src_host * self._num_hosts + dst_host)
        if route is None:
            route = self._compile_hops(src_host, dst_host)
        size = size_bytes if size_bytes > 1 else 1

        head_ready = earliest_us + self.mpi_latency_us
        hop_latency = self.hop_latency_us
        full = LinkPowerMode.FULL
        src_release = None
        end = 0.0
        for link, channel, switch, seg_time, bandwidth, s_append, e_append in route:
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
            serial = size / bandwidth
            end = start + serial
            channel.next_free_us = end
            channel.bytes_carried += size
            s_append(start)
            e_append(end)
            if src_release is None:
                src_release = end
            if switch is not None:
                switch.messages_forwarded += 1
                switch.bytes_switched += size
            head_ready = (
                start + (seg_time if seg_time < serial else serial) + hop_latency
            )

        assert src_release is not None
        return end, src_release

    # -- fault injection -----------------------------------------------------

    def install_faults(self, plan: "FaultPlan | FaultSpec | str") -> None:
        """Arm the fabric with a fault plan (spec string / spec / plan).

        Every subsequent transfer runs the shared faulted kernel, which
        applies the plan's timed events lazily at the simulation clock
        (see :mod:`repro.network.faults` for the determinism argument)
        and handles failover, in-flight retries and partitions.
        :meth:`reset` restores the fabric to pristine and disarms it.
        """

        if isinstance(plan, str):
            spec = parse_faults(plan)
            if spec is None:
                self._faults = None
                return
            plan = spec
        if isinstance(plan, FaultSpec):
            plan = compile_fault_plan(plan, self)
        self._faults = FaultState(plan)

    def fault_summary(self):
        """The active replay's :class:`~repro.network.faults.
        FaultSummary`, or ``None`` on a healthy fabric."""

        return None if self._faults is None else self._faults.summary()

    def wake_fault_model(self):
        """The plan's wake-timeout model for managed links (or None)."""

        return None if self._faults is None else self._faults.plan.wake_model()

    def _transfer_faulted(
        self, src_host, dst_host, size_bytes, earliest_us, on_power_block
    ) -> TransferTiming:
        """The faulted transfer kernel, shared by fast and reference.

        Always walks the resolved route live (compiled ``_hops`` bake
        channel bandwidths, which degradation events change under our
        feet), applying pending fault events up to the transfer clock
        first.  A hop whose reservation window contains the link's
        scheduled down time is cut at that instant (partial busy
        interval) and the whole transfer retries after
        ``retry_delay_us`` on a route excluding the dying link; earlier
        hops keep their reservations — those bytes really transited.
        ``depart`` is the first transmission attempt's start;
        ``src_release`` is the successful attempt's first-hop drain.
        """

        state = self._faults
        spec = state.plan.spec
        if size_bytes < 0:
            raise ValueError("negative message size")
        self.messages_sent += 1
        state.apply_until(self, earliest_us)
        if src_host == dst_host:
            arrive = earliest_us + self.mpi_latency_us
            return TransferTiming(
                earliest_us, arrive, self.mpi_latency_us, 0.0, 0, arrive
            )

        size = max(1, size_bytes)
        head_ready = earliest_us + self.mpi_latency_us
        hop_latency = self.hop_latency_us
        full = LinkPowerMode.FULL
        power_wait = 0.0
        depart = None
        src_release = None
        exclude = None
        attempts = 0
        while True:
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
                # every surviving-candidate route is down but a flapped
                # link heals later: stall until then and re-resolve
                head_ready = heal + spec.retry_delay_us
                exclude = None
                continue
            if migrated:
                state.migration_wait_us += spec.reroute_penalty_us
                head_ready += spec.reroute_penalty_us
                t_applied = head_ready
            retry_at = None
            end = 0.0
            hops = len(path) - 1
            prev = path[0]
            first_hop = True
            for head in path[1:]:
                link = self.links[
                    (prev, head) if prev <= head else (head, prev)
                ]
                edge = (link.a, link.b)
                if link.mode is not full:
                    if on_power_block is not None:
                        usable = on_power_block(link, head_ready)
                    else:
                        usable = link.ready_time(head_ready)
                    if usable > head_ready:
                        power_wait += usable - head_ready
                        head_ready = usable
                channel = link.channel(prev)
                next_free = channel.next_free_us
                start = next_free if next_free > head_ready else head_ready
                bandwidth = channel.bandwidth_bytes_per_us
                serial = size / bandwidth
                end = start + serial
                down = state.next_down(edge, t_applied, end)
                if down is not None:
                    # the link dies mid-reservation: cut the busy window
                    # at the down instant and retry on another route
                    if down > start:
                        channel.next_free_us = down
                        channel.busy_starts.append(start)
                        channel.busy_ends.append(down)
                        if first_hop and depart is None:
                            depart = start
                    state.inflight_retries += 1
                    retry_at = down + spec.retry_delay_us
                    exclude = edge
                    break
                channel.next_free_us = end
                channel.bytes_carried += size
                channel.busy_starts.append(start)
                channel.busy_ends.append(end)
                if first_hop:
                    if depart is None:
                        depart = start
                    src_release = end
                    first_hop = False
                if not head.is_host:
                    sw = self.switches[head]
                    sw.messages_forwarded += 1
                    sw.bytes_switched += size
                seg_time = self.segment_bytes / bandwidth
                head_ready = (
                    start
                    + (seg_time if seg_time < serial else serial)
                    + hop_latency
                )
                prev = head
            if retry_at is None:
                break
            head_ready = retry_at

        assert depart is not None and src_release is not None
        return TransferTiming(
            depart_us=depart,
            arrive_us=end,
            wire_us=end - depart,
            power_wait_us=power_wait,
            hops=hops,
            src_release_us=src_release,
        )

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

        Links (channels, busy logs, power mode, ``t_react_us``), switch
        traffic counters and the message counter are cleared; the static
        route table and compiled hop tables survive — routes are a
        property of (topology, seed), not of a run — which is exactly
        what makes back-to-back replays on one fabric equal fresh-fabric
        replays.
        """

        if self._faults is not None:
            # undo fault-layer mutations (degraded channel bandwidths)
            # BEFORE clearing: compiled hop tables bake the pristine
            # bandwidths and must stay valid, and the fault-state audit
            # (failed elements, overlays, counters) dies with the state
            self._faults.restore(self)
            self._faults = None
        for link in self.links.values():
            link.reset()
        for sw in self.switches.values():
            sw.reset()
        self.messages_sent = 0
