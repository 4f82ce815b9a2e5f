"""MPI replay semantics on top of the DES engine and the fabric.

This is the Dimemas half of the paper's co-simulation: each rank is a
simulation process that walks its trace — CPU bursts advance its clock,
MPI operations are executed against the matching layer and the network.

Protocol model:

* **eager** sends (size <= eager threshold): the payload is injected
  immediately; the sender unblocks when its HCA channel has drained the
  message, the receiver completes at last-byte arrival.
* **rendezvous** sends: an RTS control message (MPI latency) travels to
  the receiver; when the receiver matches it, a CTS returns (another MPI
  latency) and the payload transfer starts.  The sender unblocks when its
  buffer is drained, the receiver at arrival.
* **collectives** are expanded into the point-to-point schedules of
  :mod:`repro.sim.collectives` and executed through the same machinery,
  so collective traffic exercises the fabric (and the power mechanism)
  exactly like application point-to-point traffic.

Message matching is by exact ``(source, tag)`` (traces are explicit; no
wildcards), with the standard posted-receive / unexpected-message queues
per rank.

Nonblocking operations are **processless**.  An eager isend injects the
payload at call time and its request is just the *float* completion time
(the source-drain instant, known immediately); an irecv probes the
matching layer at call time and returns either that float (message
already there) or a completion :class:`Signal`.  WAIT/WAITALL drains the
mixed request list in one slice: pure-float requests reduce to a single
absolute-time sleep (:class:`~repro.sim.engine.At`) — or to no yield at
all when everything already completed — and only genuine signals pay
the :class:`~repro.sim.engine.AllOf` barrier.

**The RTS is the rendezvous.**  A rendezvous send is one pooled
:class:`_RendezvousSend`: injected as the RTS, kept in the receiver's
unexpected queue until a receive matches it, and completed by
:meth:`_RendezvousSend.match` — the CTS — which starts the payload
transfer, schedules its arrival straight onto the receive's wait target
and schedules the sender's completion at source drain.  Blocking and
nonblocking sends share it; no helper process and no handshake signal
is created (``Composition.helper_spawns`` stays 0 and the replay
drivers assert it).  On the fast kernel a rank that blocks — a receive
with nothing to match, a rendezvous send — leaves its own process handle in
the posted queue or on the rendezvous and yields
:data:`~repro.sim.engine.PARK`; the matching layer resumes it directly.
The reference interpreter waits on Signals instead and stays the
oracle; the matching layer accepts both kinds of wait target.  Both
matching maps drop a ``(source, tag)`` key as soon as its queue empties
(collective tags are new per instance) and recycle the deque.

Deadlock reports: in-flight nonblocking rendezvous sends are invisible
to the engine's process table, so :class:`MPIWorld` registers a
``blocked_reporter`` with the engine that renders them under
precomputed per-rank names (``isend<rank>``).  A blocking send stalls
the rank's own process, which the report names.

Power coupling: a ``power_hook(link, t) -> usable_t`` callable is invoked
by the fabric whenever a transfer finds a link below full width.  The
managed run wires this to its :class:`~repro.sim.dimemas.PowerDomain`'s
``hook``, which asks every power controller of that link (the HCA's
prediction-driven one, the reactive trunk and switch gates) and returns
when the last of them has the link back at full width; a mispredicted
HCA pays its emergency reactivation there.  The world only forwards the
hook to the fabric.

Placement: the world translates ranks to fabric hosts
(``MPIWorld.hosts``) on every transfer, so worlds placed on one shared
fabric contend on its links.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..constants import EAGER_THRESHOLD_BYTES, MPI_LATENCY_US
from ..network.fabric import Fabric
from ..trace.events import (
    Collective,
    Compute,
    MPICall,
    MPIEvent,
    PointToPoint,
    TraceRecord,
)
from . import collectives as coll
from .collectives import COLLECTIVE_TAG_BASE, COLLECTIVE_TAG_STRIDE
from .engine import (
    PARK,
    RESUME,
    AllOf,
    At,
    Delay,
    Engine,
    Signal,
    SimulationError,
    _Process,
)
from .program import (
    OP_COLLECTIVE,
    OP_DELAY,
    OP_DELAY_OVH,
    OP_IRECV,
    OP_ISEND,
    OP_OVERHEAD,
    OP_OVH_DELAY,
    OP_RECV,
    OP_SEND,
    OP_SENDRECV,
    OP_SHUTDOWN,
    OP_WAITALL,
    STEP_RECV,
    STEP_SEND_ASYNC,
    RankProgram,
)


@dataclass(slots=True)
class _RankContext:
    rank: int
    #: arrived, unmatched messages: (src, tag) -> deque of rendezvous
    #: RTSs and ``None`` entries (an eager payload that has landed); a
    #: key lives only while its deque is non-empty
    unexpected: dict[tuple[int, int], deque] = field(default_factory=dict)
    #: posted receives: (src, tag) -> deque of wait targets (a parked
    #: rank process or a completion Signal); same key lifetime
    posted: dict[tuple[int, int], deque] = field(default_factory=dict)
    collective_instance: int = 0
    #: mixed completion requests: floats (processless eager ops, the
    #: value is the known completion time) and Signals (rendezvous /
    #: posted receives)
    pending_requests: list = field(default_factory=list)


PowerHook = Callable[[object, float], float]


@dataclass(frozen=True, slots=True)
class RankDirective:
    """Managed-run instrumentation attached to one MPI call of one rank.

    ``pre_overhead_us``/``post_overhead_us`` are PMPI software costs
    charged before/after the call; ``shutdown_timer_us`` (if set) issues
    the turn-off-lanes instruction right after the call with that timer
    value programmed (Algorithm 3's ``predictedIdleTime``).

    ``shutdown_delay_us`` postpones the turn-off instruction relative to
    the call's exit; the paper's mechanism always uses 0 (shut down
    immediately after the predicted gram), while the *reactive* hardware
    baseline (:mod:`repro.baselines`) uses it to model "power down after
    the link has been idle for tau".

    The fast replay kernel never reads directives at run time: the
    compiled-program layer (:func:`repro.sim.program.compile_trace` with
    ``directives=``) lowers them into dedicated opcodes at compile time.
    The reference interpreter (:meth:`MPIWorld.rank_program`) keeps the
    per-call dict probes as the oracle.

    Frozen: a displacement rebind (:meth:`repro.core.runtime.RankPlan.
    rebind_displacement`) shares every timer-free directive with its
    plan, so no caller may change one in place.
    """

    pre_overhead_us: float = 0.0
    post_overhead_us: float = 0.0
    shutdown_timer_us: float | None = None
    shutdown_delay_us: float = 0.0


class _RendezvousSend:
    """A rendezvous send: its RTS envelope and its continuation in one.

    :meth:`MPIWorld._start_rendezvous` injects it as the RTS, which
    reaches the receiver's matching layer one MPI latency later and
    waits in the unexpected queue if no receive is posted.  Whichever
    side matches calls :meth:`match` with the receive's wait target —
    ``_arrive`` for a posted receive, the receiver's recv, irecv,
    sendrecv or collective step for an unexpected RTS — and that call is
    the CTS: the payload leaves one MPI latency later, its arrival is
    scheduled straight onto the receiver's target, and the sender
    completes when its buffer has drained.  No helper process, no
    handshake Signals.  Instances are pooled on the world
    (``_rdv_pool``); nonblocking ones are tracked per rank for deadlock
    reports.
    """

    __slots__ = ("world", "src", "dst", "size_bytes", "sender", "done")

    def __init__(self, world: "MPIWorld") -> None:
        self.world = world
        self.src = 0
        self.dst = 0
        self.size_bytes = 0
        #: blocking send: the sender's wait target (its parked process on
        #: the fast kernel, a Signal on the reference interpreter)
        self.sender = None
        #: nonblocking send: the completion Signal (its request)
        self.done: Signal | None = None

    def match(self, target) -> None:
        """The receive waiting on ``target`` matched this RTS now.

        ``target`` is a parked :class:`_Process` or a :class:`Signal`;
        it is resumed (or fired) when the payload lands.
        """

        world = self.world
        engine = world.engine
        schedule = engine._schedule
        now = engine.now
        hosts = world.hosts
        arrive_us, src_release = world.fabric.transfer_hot(
            hosts[self.src], hosts[self.dst], self.size_bytes,
            now + MPI_LATENCY_US, world.power_hook,
        )
        if target.__class__ is _Process:
            schedule(arrive_us, RESUME, target)
        else:
            schedule(arrive_us, target.fire, arrive_us)
        sender = self.sender
        if sender is None:
            schedule(
                now + (src_release - now if src_release > now else 0.0),
                self._finish,
                None,
            )
            return
        # a blocking send resumes at source drain, or on the spot
        self.sender = None
        world._rdv_pool.append(self)
        if src_release > now:
            t_us = now + (src_release - now)
            if sender.__class__ is _Process:
                schedule(t_us, RESUME, sender)
            else:
                schedule(t_us, sender.fire, t_us)
        elif sender.__class__ is _Process:
            engine._resume(sender, None)
        else:
            sender.fire(now)

    def _finish(self, _arg) -> None:
        """Source buffer drained: complete the nonblocking send."""

        world = self.world
        self.done.fire(world.engine.now)
        world._rdv_inflight[self.src] -= 1
        self.done = None
        world._rdv_pool.append(self)


class MPIWorld:
    """Shared state of one replay: engine + fabric + matching layer.

    Rank ``r`` runs on fabric host ``hosts[r]`` (default ``0..n-1``);
    :meth:`~repro.sim.dimemas.Composition.admit` validates placements.
    """

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        nranks: int,
        *,
        hosts: Sequence[int] | None = None,
        eager_threshold_bytes: int = EAGER_THRESHOLD_BYTES,
        power_hook: PowerHook | None = None,
        cpu_speedup: float = 1.0,
        name_prefix: str = "",
    ) -> None:
        if nranks > fabric.topo.num_hosts:
            raise ValueError(
                f"{nranks} ranks do not fit in a fabric with "
                f"{fabric.topo.num_hosts} hosts"
            )
        if cpu_speedup <= 0:
            raise ValueError("cpu_speedup must be positive")
        self.engine = engine
        self.fabric = fabric
        self.nranks = nranks
        #: rank -> fabric host
        self.hosts = tuple(range(nranks)) if hosts is None else tuple(hosts)
        self.eager_threshold = eager_threshold_bytes
        self.power_hook = power_hook
        self.cpu_speedup = cpu_speedup
        #: free-list of empty matching-map deques: a drained key is
        #: dropped from its map and its deque parked here for reuse
        self._deques: list[deque] = []
        self.ranks = [_RankContext(r) for r in range(nranks)]
        self.event_logs: list[list[MPIEvent]] = [[] for _ in range(nranks)]
        #: free-list of completed rendezvous sends
        self._rdv_pool: list[_RendezvousSend] = []
        #: per-rank count of in-flight nonblocking rendezvous sends, for
        #: deadlock reports (they have no process-table entry)
        self._rdv_inflight = [0] * nranks
        # per-rank names, precomputed, under which deadlock reports
        # render a stuck nonblocking rendezvous send; ``name_prefix``
        # namespaces them (and the world's identity in reports) when
        # several worlds — cluster jobs — share one engine
        self.name_prefix = name_prefix
        self._isend_names = [f"{name_prefix}isend{r}" for r in range(nranks)]
        engine.blocked_reporter = self._blocked_helpers

    # ------------------------------------------------------------ reporting

    def _blocked_helpers(self) -> list[str]:
        """Deadlock-report entries for processless in-flight helpers."""

        out: list[str] = []
        for rank, n in enumerate(self._rdv_inflight):
            if n > 0:
                name = self._isend_names[rank]
                out.append(
                    f"{name} (rendezvous in flight)"
                    if n == 1
                    else f"{name} (rendezvous in flight x{n})"
                )
        return out

    # ------------------------------------------------------------------ rank

    def rank_program(
        self,
        rank: int,
        records: Sequence[TraceRecord],
        directives: dict[int, RankDirective] | None = None,
        on_shutdown: Callable[[int, float, float, float], None] | None = None,
    ):
        """Generator executing one rank's trace (the reference oracle).

        ``directives`` maps MPI-call index -> :class:`RankDirective`;
        ``on_shutdown(rank, t_us, timer_us, delay_us)`` is invoked when a
        shutdown directive executes (the managed run wires it to the
        rank's :class:`~repro.power.controller.ManagedLink`).  The fast
        kernel compiles directives into the instruction stream instead
        (:func:`repro.sim.program.compile_trace`); this interpreter keeps
        the per-call dict probes as the equivalence oracle.
        """

        engine = self.engine
        log = self.event_logs[rank]
        call_index = 0
        for rec in records:
            if isinstance(rec, Compute):
                yield Delay(rec.duration_us / self.cpu_speedup)
                continue
            directive = directives.get(call_index) if directives else None
            if directive and directive.pre_overhead_us > 0:
                yield Delay(directive.pre_overhead_us)
            enter = engine.now
            if isinstance(rec, PointToPoint):
                yield from self._execute_p2p(rank, rec)
            elif isinstance(rec, Collective):
                yield from self._execute_collective(rank, rec)
            else:  # pragma: no cover - record types are closed
                raise SimulationError(f"unknown record {rec!r}")
            log.append(MPIEvent(rec.call, enter, engine.now))
            if directive and directive.post_overhead_us > 0:
                yield Delay(directive.post_overhead_us)
            if (
                directive
                and directive.shutdown_timer_us is not None
                and on_shutdown is not None
            ):
                on_shutdown(
                    rank,
                    engine.now,
                    directive.shutdown_timer_us,
                    directive.shutdown_delay_us,
                )
            call_index += 1

    def run_program(
        self,
        rank: int,
        program: RankProgram,
        on_shutdown: Callable[[int, float, float, float], None] | None = None,
    ):
        """Generator executing one rank's *compiled* program.

        The fast twin of :meth:`rank_program`: dispatches on small-integer
        opcodes and inlines the hot operations (eager sends, receives,
        collective step loops, request draining) so the whole rank runs
        as a single generator frame.  Managed-run directives arrive
        pre-compiled as ``OP_OVERHEAD`` / ``OP_SHUTDOWN`` /
        fused-delay instructions — there is no per-call directive lookup
        here.  It must drive the engine through exactly the same request
        sequence as the interpreter on the same records+directives (bare
        floats stand in for :class:`Delay`; the one-event fused delays
        reach the identical absolute timestamps through an :class:`At`;
        a parked rank resumes at the instant the interpreter's Signal
        fires), which the differential harness asserts bit-for-bit.
        Must run as a spawned process: it reads its own handle from
        :attr:`Engine.starting` in its first step.
        """

        engine = self.engine
        #: this rank's own process: a blocked receive or blocking
        #: rendezvous send leaves it with its waker and parks
        me = engine.starting
        ctx = self.ranks[rank]
        log_append = self.event_logs[rank].append
        fabric = self.fabric
        hosts = self.hosts
        host = hosts[rank]
        eager_threshold = self.eager_threshold
        speed = self.cpu_speedup
        power_hook = self.power_hook
        deques = self._deques
        signal_pool = engine._signal_pool
        recycle_signal = engine.recycle_signal
        schedule = engine._schedule
        arrive = self._arrive
        transfer = fabric.transfer_hot
        start_rdv = self._start_rendezvous
        unexpected = ctx.unexpected
        posted = ctx.posted
        mpi_latency = MPI_LATENCY_US
        park = PARK
        #: one reusable absolute-time request per frame — the engine
        #: reads ``t_us`` synchronously at dispatch, so rewriting it
        #: between yields is safe and allocation-free
        at = At(0.0)
        for ins in program.code:
            op = ins[0]
            if op == OP_DELAY:
                yield ins[1] / speed
                continue
            if op == OP_DELAY_OVH:
                # coalesced compute burst + PPA overhead charged right
                # after it: one queue event landing on the exact
                # timestamp two chained delays would have reached
                at.t_us = (engine.now + ins[1] / speed) + ins[2]
                yield at
                continue
            if op == OP_OVERHEAD:
                yield ins[1]
                continue
            if op == OP_OVH_DELAY:
                at.t_us = (engine.now + ins[1]) + ins[2] / speed
                yield at
                continue
            if op == OP_SHUTDOWN:
                # same None-guard as the interpreter: a managed-compiled
                # program run without a wired power controller skips the
                # turn-off instead of diverging from the oracle
                if on_shutdown is not None:
                    on_shutdown(rank, engine.now, ins[1], ins[2])
                continue
            enter = engine.now
            if op == OP_COLLECTIVE:
                instance = ctx.collective_instance
                ctx.collective_instance = instance + 1
                base_tag = COLLECTIVE_TAG_BASE + instance * COLLECTIVE_TAG_STRIDE
                # software entry cost of the collective call itself
                yield mpi_latency
                tmax = 0.0
                pending = None
                for sop, peer, size, rel_tag in ins[2]:
                    if sop == STEP_RECV:
                        key = (peer, rel_tag + base_tag)
                        q = unexpected.get(key)
                        if q is None:
                            pq = posted.get(key)
                            if pq is None:
                                posted[key] = pq = (
                                    deques.pop() if deques else deque()
                                )
                            pq.append(me)
                            yield park
                        else:
                            rts = q.popleft()
                            if not q:
                                del unexpected[key]
                                deques.append(q)
                            if rts is not None:
                                rts.match(me)
                                yield park
                    elif sop == STEP_SEND_ASYNC:
                        tag = rel_tag + base_tag
                        if size <= eager_threshold:
                            arrive_us, src_release = transfer(
                                host, hosts[peer], size, engine.now,
                                power_hook,
                            )
                            schedule(arrive_us, arrive, (peer, (rank, tag), None))
                            now_us = engine.now
                            rel = src_release if src_release > now_us else now_us
                            if rel > tmax:
                                tmax = rel
                        elif pending is None:
                            pending = [start_rdv(rank, peer, size, tag)]
                        else:
                            pending.append(start_rdv(rank, peer, size, tag))
                    else:  # STEP_SEND: blocking send
                        tag = rel_tag + base_tag
                        if size <= eager_threshold:
                            arrive_us, src_release = transfer(
                                host, hosts[peer], size, engine.now,
                                power_hook,
                            )
                            schedule(arrive_us, arrive, (peer, (rank, tag), None))
                            now_us = engine.now
                            if src_release > now_us:
                                yield src_release - now_us
                        else:
                            start_rdv(rank, peer, size, tag, me)
                            yield park
                if pending is not None:
                    real = None
                    for sig in pending:
                        if sig.fired:
                            recycle_signal(sig)
                        elif real is None:
                            real = [sig]
                        else:
                            real.append(sig)
                    if real is not None:
                        yield AllOf(real)
                        for sig in real:
                            recycle_signal(sig)
                if tmax > engine.now:
                    at.t_us = tmax
                    yield at
            elif op == OP_SENDRECV:
                peer, size, tag = ins[2], ins[3], ins[4]
                if size <= eager_threshold:
                    arrive_us, src_release = transfer(
                        host, hosts[peer], size, engine.now, power_hook
                    )
                    schedule(arrive_us, arrive, (peer, (rank, tag), None))
                    now_us = engine.now
                    send_done = src_release if src_release > now_us else now_us
                else:
                    send_done = start_rdv(rank, peer, size, tag)
                key = (ins[5], tag)
                q = unexpected.get(key)
                if q is None:
                    pq = posted.get(key)
                    if pq is None:
                        posted[key] = pq = deques.pop() if deques else deque()
                    pq.append(me)
                    yield park
                else:
                    rts = q.popleft()
                    if not q:
                        del unexpected[key]
                        deques.append(q)
                    if rts is not None:
                        rts.match(me)
                        yield park
                if send_done.__class__ is float:
                    if send_done > engine.now:
                        at.t_us = send_done
                        yield at
                elif send_done.fired:
                    recycle_signal(send_done)
                else:
                    yield send_done
                    recycle_signal(send_done)
            elif op == OP_SEND:
                peer, size, tag = ins[2], ins[3], ins[4]
                if size <= eager_threshold:
                    arrive_us, src_release = transfer(
                        host, hosts[peer], size, engine.now, power_hook
                    )
                    schedule(arrive_us, arrive, (peer, (rank, tag), None))
                    now_us = engine.now
                    if src_release > now_us:
                        yield src_release - now_us
                else:
                    start_rdv(rank, peer, size, tag, me)
                    yield park
            elif op == OP_RECV:
                key = (ins[2], ins[3])
                q = unexpected.get(key)
                if q is None:
                    pq = posted.get(key)
                    if pq is None:
                        posted[key] = pq = deques.pop() if deques else deque()
                    pq.append(me)
                    yield park
                else:
                    rts = q.popleft()
                    if not q:
                        del unexpected[key]
                        deques.append(q)
                    if rts is not None:
                        rts.match(me)
                        yield park
            elif op == OP_ISEND:
                peer, size, tag = ins[2], ins[3], ins[4]
                if size <= eager_threshold:
                    arrive_us, src_release = transfer(
                        host, hosts[peer], size, engine.now, power_hook
                    )
                    schedule(arrive_us, arrive, (peer, (rank, tag), None))
                    now_us = engine.now
                    ctx.pending_requests.append(
                        src_release if src_release > now_us else now_us
                    )
                else:
                    ctx.pending_requests.append(
                        start_rdv(rank, peer, size, tag)
                    )
            elif op == OP_IRECV:
                key = (ins[2], ins[3])
                q = unexpected.get(key)
                rts = None
                if q is not None:
                    rts = q.popleft()
                    if not q:
                        del unexpected[key]
                        deques.append(q)
                if q is not None and rts is None:
                    # the eager payload has landed: complete on the spot
                    ctx.pending_requests.append(engine.now)
                else:
                    if signal_pool:
                        sig = signal_pool.pop()
                        sig.name = "recv"
                        sig.fired = False
                        sig.value = None
                    else:
                        sig = Signal(engine, "recv")
                    if rts is None:
                        pq = posted.get(key)
                        if pq is None:
                            posted[key] = pq = (
                                deques.pop() if deques else deque()
                            )
                        pq.append(sig)
                    else:
                        rts.match(sig)
                    ctx.pending_requests.append(sig)
            elif op == OP_WAITALL:
                pending = ctx.pending_requests
                if pending:
                    ctx.pending_requests = []
                    tmax = 0.0
                    real = None
                    for req in pending:
                        if req.__class__ is float:
                            if req > tmax:
                                tmax = req
                        elif req.fired:
                            recycle_signal(req)
                        elif real is None:
                            real = [req]
                        else:
                            real.append(req)
                    if real is not None:
                        yield AllOf(real)
                        for sig in real:
                            recycle_signal(sig)
                    if tmax > engine.now:
                        at.t_us = tmax
                        yield at
            else:  # pragma: no cover - opcodes are closed
                raise SimulationError(f"unknown opcode {op!r}")
            log_append(MPIEvent(ins[1], enter, engine.now))

    # ----------------------------------------------------------- primitives

    def _arrive(self, message: tuple) -> None:
        """A message reaches its receiver's matching layer.

        ``message`` is ``(dst, (src, tag), rts)``: ``rts`` is the
        :class:`_RendezvousSend` whose RTS has landed, or None for an
        eager payload that has.  With a receive posted for it, the eager
        payload wakes that receive's target on the spot and the RTS is
        matched; otherwise ``rts`` waits unexpected.  A target is a
        parked :class:`_Process` (the fast kernel's blocking receive) or
        a :class:`Signal` (an irecv's request, the reference
        interpreter's receive).
        """

        dst, key, rts = message
        ctx = self.ranks[dst]
        posted = ctx.posted
        q = posted.get(key)
        if q is None:
            unexpected = ctx.unexpected
            uq = unexpected.get(key)
            if uq is None:
                deques = self._deques
                unexpected[key] = uq = deques.pop() if deques else deque()
            uq.append(rts)
            return
        target = q.popleft()
        if not q:
            del posted[key]
            self._deques.append(q)
        if rts is not None:
            rts.match(target)
        elif target.__class__ is _Process:
            self.engine._resume(target, None)
        else:
            target.fire(self.engine.now)

    def _start_rendezvous(self, rank: int, dst: int, size: int, tag: int,
                          sender=None) -> Signal | None:
        """Inject a rendezvous send's RTS; it lands one MPI latency later.

        A blocking send passes its wait target as ``sender`` (its own
        process on the fast kernel, a Signal on the interpreter), which
        :meth:`_RendezvousSend.match` resumes at source drain.  A
        nonblocking one returns its completion Signal and counts as in
        flight for deadlock reports until then.
        """

        engine = self.engine
        pool = self._rdv_pool
        rdv = pool.pop() if pool else _RendezvousSend(self)
        rdv.src = rank
        rdv.dst = dst
        rdv.size_bytes = size
        done = None
        if sender is None:
            done = rdv.done = engine.new_signal("isend")
            self._rdv_inflight[rank] += 1
        else:
            rdv.sender = sender
        engine._schedule(
            engine.now + MPI_LATENCY_US, self._arrive, (dst, (rank, tag), rdv)
        )
        return done

    def _inject_eager(self, rank: int, dst: int, size: int, tag: int) -> float:
        """Push an eager message into the fabric now; its source-drain
        time.  The receiver completes off the payload's arrival event
        alone: the matching layer wakes the posted receive (or queues
        the arrival as unexpected)."""

        engine = self.engine
        hosts = self.hosts
        arrive_us, src_release = self.fabric.transfer_hot(
            hosts[rank], hosts[dst], size, engine.now, self.power_hook
        )
        engine._schedule(arrive_us, self._arrive, (dst, (rank, tag), None))
        return src_release

    def _send(self, rank: int, dst: int, size: int, tag: int):
        """Blocking-send generator (eager or rendezvous)."""

        engine = self.engine
        if size <= self.eager_threshold:
            src_release = self._inject_eager(rank, dst, size, tag)
            now = engine.now
            if src_release > now:
                yield Delay(src_release - now)
            return
        sig = engine.new_signal("send")
        self._start_rendezvous(rank, dst, size, tag, sig)
        yield sig
        engine.recycle_signal(sig)

    def _recv(self, rank: int, src: int, tag: int):
        """Blocking-receive generator."""

        req = self.irecv(rank, src, tag)
        if req.__class__ is not float:
            yield req
            # the signal's only waiter (this process) has been resumed
            self.engine.recycle_signal(req)

    def _wait_requests(self, requests: list):
        """Drain a mixed request list (the WAIT/WAITALL semantics).

        Floats are known completion times of processless operations:
        they reduce to one absolute-time sleep at their maximum — or to
        *no* scheduler round trip at all when everything already
        completed, so a slice of consecutive nonblocking ops ends in the
        same engine event it started in.  Signals (rendezvous sends,
        posted receives) wait through one :class:`AllOf` barrier and are
        recycled once drained.
        """

        engine = self.engine
        recycle = engine.recycle_signal
        tmax = 0.0
        real = None
        for req in requests:
            if req.__class__ is float:
                if req > tmax:
                    tmax = req
            elif req.fired:
                # completed while we weren't looking: no barrier, no
                # queue round trip — drain it on the spot
                recycle(req)
            elif real is None:
                real = [req]
            else:
                real.append(req)
        if real is not None:
            yield AllOf(real)
            for sig in real:
                recycle(sig)
        if tmax > engine.now:
            yield At(tmax)

    def isend(self, rank: int, dst: int, size: int, tag: int):
        """Nonblocking send; returns its completion request.

        Eager messages are processless: the payload is injected into the
        fabric immediately (real eager isends hand the buffer to the HCA
        at call time) and the request is simply the *float* source-drain
        time — no signal, no scheduled completion event.  A rendezvous
        send returns the completion :class:`Signal` of its
        :class:`_RendezvousSend`.
        """

        if size <= self.eager_threshold:
            src_release = self._inject_eager(rank, dst, size, tag)
            now = self.engine.now
            return src_release if src_release > now else now
        return self._start_rendezvous(rank, dst, size, tag)

    def irecv(self, rank: int, src: int, tag: int):
        """Nonblocking receive; returns its completion request.

        Probes the matching layer at call time (no helper process): an
        already-arrived eager payload completes immediately (the request
        is the float ``now``); otherwise the request is a fresh Signal,
        fired when the payload lands — an unexpected RTS is matched on
        the spot, else the receive is posted.
        """

        engine = self.engine
        ctx = self.ranks[rank]
        key = (src, tag)
        q = ctx.unexpected.get(key)
        if q is None:
            sig = engine.new_signal("recv")
            q = ctx.posted.get(key)
            if q is None:
                q = ctx.posted[key] = (
                    self._deques.pop() if self._deques else deque()
                )
            q.append(sig)
            return sig
        rts = q.popleft()
        if not q:
            del ctx.unexpected[key]
            self._deques.append(q)
        if rts is None:
            return engine.now
        sig = engine.new_signal("recv")
        rts.match(sig)
        return sig

    # ------------------------------------------------------------ operations

    def _execute_p2p(self, rank: int, rec: PointToPoint):
        call = rec.call
        ctx = self.ranks[rank]
        if call in (MPICall.SEND,):
            yield from self._send(rank, rec.peer, rec.size_bytes, rec.tag)
        elif call in (MPICall.RECV,):
            yield from self._recv(rank, rec.peer, rec.tag)
        elif call is MPICall.ISEND:
            ctx.pending_requests.append(
                self.isend(rank, rec.peer, rec.size_bytes, rec.tag)
            )
        elif call is MPICall.IRECV:
            ctx.pending_requests.append(self.irecv(rank, rec.peer, rec.tag))
        elif call in (MPICall.WAIT, MPICall.WAITALL):
            pending, ctx.pending_requests = ctx.pending_requests, []
            if pending:
                yield from self._wait_requests(pending)
        elif call in (MPICall.SENDRECV, MPICall.SENDRECV_REPLACE):
            send_done = self.isend(rank, rec.peer, rec.size_bytes, rec.tag)
            src = rec.recv_peer if rec.recv_peer is not None else rec.peer
            yield from self._recv(rank, src, rec.tag)
            if send_done.__class__ is float:
                if send_done > self.engine.now:
                    yield At(send_done)
            elif send_done.fired:
                self.engine.recycle_signal(send_done)
            else:
                yield send_done
                self.engine.recycle_signal(send_done)
        else:  # pragma: no cover
            raise SimulationError(f"unhandled point-to-point call {call!r}")

    def _execute_collective(self, rank: int, rec: Collective):
        ctx = self.ranks[rank]
        instance = ctx.collective_instance
        ctx.collective_instance += 1
        # memoised relative schedule for this shape; tags rebased per
        # instance so occurrences never share tag space
        steps = coll.schedule_steps(
            rec.call, rank, self.nranks, rec.size_bytes, rec.root
        )
        base_tag = coll.base_tag_for(instance)
        # software entry cost of the collective call itself
        yield Delay(MPI_LATENCY_US)
        pending: list = []
        for step in steps:
            if step.kind == "send":
                if step.concurrent:
                    pending.append(
                        self.isend(rank, step.peer, step.size_bytes,
                                   step.tag + base_tag)
                    )
                else:
                    yield from self._send(rank, step.peer, step.size_bytes,
                                          step.tag + base_tag)
            else:
                yield from self._recv(rank, step.peer, step.tag + base_tag)
        if pending:
            yield from self._wait_requests(pending)
