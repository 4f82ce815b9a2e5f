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
already there) or the posted completion :class:`Signal`.  A rendezvous
isend/send used to spawn a helper generator process per large message;
it is now a **signal-chained continuation** (:class:`_RendezvousSend`):
the RTS is injected inline, the CTS callback launches the payload
transfer, and a final timed event fires the completion signal — no new
process frame anywhere (``MPIWorld.helper_spawns`` stays 0 and the
replay drivers assert it).  WAIT/WAITALL drains the mixed request list
in one slice: pure-float requests reduce to a single absolute-time
sleep (:class:`~repro.sim.engine.At`) — or to no yield at all when
everything already completed — and only genuine signals pay the
:class:`~repro.sim.engine.AllOf` barrier.

Deadlock reports: in-flight rendezvous continuations are invisible to
the engine's process table, so :class:`MPIWorld` registers a
``blocked_reporter`` with the engine that renders them under the same
precomputed per-rank helper names (``isend<rank>``) the spawned helpers
used to carry.

Power coupling: a ``power_hook(link, t) -> usable_t`` callable is invoked
by the fabric whenever a transfer finds a link below full width.  The
managed run wires this to :meth:`repro.power.controller.ManagedLink.
request_full`, which performs the emergency reactivation and yields the
misprediction penalty.
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
from .engine import AllOf, At, Delay, Engine, Signal, SimulationError
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
class _Envelope:
    """An in-flight message (payload or rendezvous RTS)."""

    src: int
    dst: int
    tag: int
    size_bytes: int
    is_rts: bool = False
    #: eager: fired at last-byte arrival. rendezvous: fired when payload lands.
    data_signal: Signal | None = None
    #: rendezvous only: fired when the receiver matches the RTS.
    cts_signal: Signal | None = None


@dataclass(slots=True)
class _RankContext:
    rank: int
    unexpected: dict[tuple[int, int], deque] = field(default_factory=dict)
    #: posted receives: (src, tag) -> deque of completion Signals
    posted: dict[tuple[int, int], deque] = field(default_factory=dict)
    collective_instance: int = 0
    #: mixed completion requests: floats (processless eager ops, the
    #: value is the known completion time) and Signals (rendezvous /
    #: posted receives)
    pending_requests: list = field(default_factory=list)

    def pop_unexpected(self, src: int, tag: int) -> _Envelope | None:
        q = self.unexpected.get((src, tag))
        if q:
            return q.popleft()
        return None

    def add_posted(self, src: int, tag: int, recv: Signal) -> None:
        # get-then-insert instead of setdefault: the hot path must not
        # allocate a fresh deque per call just to throw it away
        key = (src, tag)
        q = self.posted.get(key)
        if q is None:
            self.posted[key] = q = deque()
        q.append(recv)


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
    """Zero-spawn rendezvous send: a continuation chained on signals.

    Replaces the helper generator process that used to run one
    rendezvous isend/send-completion per large message.  The lifecycle
    mirrors the old helper exactly — RTS flight, CTS wait, payload
    transfer, source-drain completion — but each step is a plain
    callback on the engine: no generator frame, no process-table entry,
    no ``spawn`` event.  Instances are pooled on the world
    (``_rdv_pool``) and tracked per rank for deadlock reports.
    """

    __slots__ = ("world", "rank", "dst", "size", "done", "cts", "data")

    def __init__(self, world: "MPIWorld") -> None:
        self.world = world
        self.rank = 0
        self.dst = 0
        self.size = 0
        self.done: Signal | None = None
        self.cts: Signal | None = None
        self.data: Signal | None = None

    def _on_cts(self, _value) -> None:
        """Receiver matched the RTS; CTS flew back — start the payload."""

        world = self.world
        engine = world.engine
        arrive_us, src_release = world.fabric.transfer_hot(
            self.rank, self.dst, self.size, engine.now + MPI_LATENCY_US,
            world.power_hook,
        )
        self.data.fire_at(arrive_us, arrive_us)
        now = engine.now
        engine._schedule(
            now + (src_release - now if src_release > now else 0.0),
            self._finish,
            None,
        )

    def _finish(self, _arg) -> None:
        """Source buffer drained: complete the send, recycle the pieces."""

        world = self.world
        engine = world.engine
        self.done.fire(engine.now)
        world._rdv_inflight[self.rank] -= 1
        engine.recycle_signal(self.cts)
        self.done = self.cts = self.data = None
        world._rdv_pool.append(self)


class MPIWorld:
    """Shared state of one replay: engine + fabric + matching layer."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        nranks: int,
        *,
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
        self.eager_threshold = eager_threshold_bytes
        self.power_hook = power_hook
        self.cpu_speedup = cpu_speedup
        self.ranks = [_RankContext(r) for r in range(nranks)]
        self.event_logs: list[list[MPIEvent]] = [[] for _ in range(nranks)]
        #: free-list of dead envelopes (consumed by the matching layer)
        self._env_pool: list[_Envelope] = []
        #: free-list of completed rendezvous continuations
        self._rdv_pool: list[_RendezvousSend] = []
        #: per-rank count of in-flight rendezvous continuations, for
        #: deadlock reports (they have no process-table entry)
        self._rdv_inflight = [0] * nranks
        # per-rank helper names, precomputed so deadlock reports render
        # a stuck rendezvous send under the same name the spawned
        # helper process used to carry; ``name_prefix`` namespaces them
        # (and the world's identity in reports) when several worlds —
        # cluster jobs — share one engine
        self.name_prefix = name_prefix
        self._isend_names = [f"{name_prefix}isend{r}" for r in range(nranks)]
        engine.blocked_reporter = self._blocked_helpers

    # -------------------------------------------------------------- pooling

    def _new_envelope(
        self,
        src: int,
        dst: int,
        tag: int,
        size_bytes: int,
        is_rts: bool = False,
        data_signal: Signal | None = None,
        cts_signal: Signal | None = None,
    ) -> _Envelope:
        pool = self._env_pool
        if pool:
            env = pool.pop()
            env.src = src
            env.dst = dst
            env.tag = tag
            env.size_bytes = size_bytes
            env.is_rts = is_rts
            env.data_signal = data_signal
            env.cts_signal = cts_signal
            return env
        return _Envelope(src, dst, tag, size_bytes, is_rts, data_signal, cts_signal)

    def _recycle_envelope(self, env: _Envelope) -> None:
        """Free an envelope the matching layer has fully consumed."""

        env.data_signal = None
        env.cts_signal = None
        self._env_pool.append(env)

    # ------------------------------------------------------------ reporting

    @property
    def helper_spawns(self) -> int:
        """Helper processes spawned by the MPI layer (the no-spawn
        invariant).

        The zero-spawn rendezvous/irecv refactor removed every helper
        spawn site, so only the per-rank replay processes ever hit
        ``Engine.spawn`` and this is 0 on **both** kernels.  Counted
        from the engine's lifetime spawn counter rather than hardcoded,
        so a reintroduced helper spawn trips the bench detail and the
        regression tests immediately.
        """

        spawned = self.engine.spawn_count
        return spawned - self.nranks if spawned > self.nranks else 0

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
        reach the identical absolute timestamps through an :class:`At`),
        which the differential harness asserts bit-for-bit.
        """

        engine = self.engine
        ctx = self.ranks[rank]
        log_append = self.event_logs[rank].append
        fabric = self.fabric
        eager_threshold = self.eager_threshold
        speed = self.cpu_speedup
        power_hook = self.power_hook
        env_pool = self._env_pool
        new_env = self._new_envelope
        recycle_env = self._recycle_envelope
        new_signal = engine.new_signal
        signal_pool = engine._signal_pool
        recycle_signal = engine.recycle_signal
        schedule = engine._schedule
        arrive = self._arrive
        transfer = fabric.transfer_hot
        start_rdv = self._start_rendezvous
        unexpected = ctx.unexpected
        posted = ctx.posted
        mpi_latency = MPI_LATENCY_US
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
                        env = q.popleft() if q else None
                        if env is None:
                            if signal_pool:
                                sig = signal_pool.pop()
                                sig.name = "recv"
                                sig.fired = False
                                sig.value = None
                            else:
                                sig = Signal(engine, "recv")
                            pq = posted.get(key)
                            if pq is None:
                                posted[key] = pq = deque()
                            pq.append(sig)
                            yield sig
                            recycle_signal(sig)
                        elif env.is_rts:
                            cts, data = env.cts_signal, env.data_signal
                            recycle_env(env)
                            cts.fire(engine.now)
                            yield data
                        else:
                            recycle_env(env)
                    elif sop == STEP_SEND_ASYNC:
                        tag = rel_tag + base_tag
                        if size <= eager_threshold:
                            arrive_us, src_release = transfer(
                                rank, peer, size, engine.now, power_hook
                            )
                            if env_pool:
                                env = env_pool.pop()
                                env.src = rank
                                env.dst = peer
                                env.tag = tag
                                env.size_bytes = size
                                env.is_rts = False
                            else:
                                env = _Envelope(rank, peer, tag, size)
                            schedule(arrive_us, arrive, env)
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
                                rank, peer, size, engine.now, power_hook
                            )
                            schedule(
                                arrive_us, arrive,
                                new_env(rank, peer, tag, size),
                            )
                            now_us = engine.now
                            if src_release > now_us:
                                yield src_release - now_us
                        else:
                            cts = new_signal("cts")
                            data = new_signal("data")
                            schedule(
                                engine.now + mpi_latency, arrive,
                                new_env(rank, peer, tag, size, True, data, cts),
                            )
                            yield cts
                            arrive_us, src_release = transfer(
                                rank, peer, size, engine.now + mpi_latency,
                                power_hook,
                            )
                            data.fire_at(arrive_us, arrive_us)
                            now_us = engine.now
                            if src_release > now_us:
                                yield src_release - now_us
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
                        rank, peer, size, engine.now, power_hook
                    )
                    if env_pool:
                        env = env_pool.pop()
                        env.src = rank
                        env.dst = peer
                        env.tag = tag
                        env.size_bytes = size
                        env.is_rts = False
                    else:
                        env = _Envelope(rank, peer, tag, size)
                    schedule(arrive_us, arrive, env)
                    now_us = engine.now
                    send_done = src_release if src_release > now_us else now_us
                else:
                    send_done = start_rdv(rank, peer, size, tag)
                key = (ins[5], tag)
                q = unexpected.get(key)
                env = q.popleft() if q else None
                if env is None:
                    if signal_pool:
                        sig = signal_pool.pop()
                        sig.name = "recv"
                        sig.fired = False
                        sig.value = None
                    else:
                        sig = Signal(engine, "recv")
                    pq = posted.get(key)
                    if pq is None:
                        posted[key] = pq = deque()
                    pq.append(sig)
                    yield sig
                    recycle_signal(sig)
                elif env.is_rts:
                    cts, data = env.cts_signal, env.data_signal
                    recycle_env(env)
                    cts.fire(engine.now)
                    yield data
                else:
                    recycle_env(env)
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
                        rank, peer, size, engine.now, power_hook
                    )
                    if env_pool:
                        env = env_pool.pop()
                        env.src = rank
                        env.dst = peer
                        env.tag = tag
                        env.size_bytes = size
                        env.is_rts = False
                    else:
                        env = _Envelope(rank, peer, tag, size)
                    schedule(arrive_us, arrive, env)
                    now_us = engine.now
                    if src_release > now_us:
                        yield src_release - now_us
                else:
                    cts = new_signal("cts")
                    data = new_signal("data")
                    schedule(
                        engine.now + mpi_latency, arrive,
                        new_env(rank, peer, tag, size, True, data, cts),
                    )
                    yield cts
                    arrive_us, src_release = transfer(
                        rank, peer, size, engine.now + mpi_latency,
                        power_hook,
                    )
                    data.fire_at(arrive_us, arrive_us)
                    now_us = engine.now
                    if src_release > now_us:
                        yield src_release - now_us
            elif op == OP_RECV:
                key = (ins[2], ins[3])
                q = unexpected.get(key)
                env = q.popleft() if q else None
                if env is None:
                    if signal_pool:
                        sig = signal_pool.pop()
                        sig.name = "recv"
                        sig.fired = False
                        sig.value = None
                    else:
                        sig = Signal(engine, "recv")
                    pq = posted.get(key)
                    if pq is None:
                        posted[key] = pq = deque()
                    pq.append(sig)
                    yield sig
                    recycle_signal(sig)
                elif env.is_rts:
                    cts, data = env.cts_signal, env.data_signal
                    recycle_env(env)
                    cts.fire(engine.now)
                    yield data
                else:
                    recycle_env(env)
            elif op == OP_ISEND:
                peer, size, tag = ins[2], ins[3], ins[4]
                if size <= eager_threshold:
                    arrive_us, src_release = transfer(
                        rank, peer, size, engine.now, power_hook
                    )
                    if env_pool:
                        env = env_pool.pop()
                        env.src = rank
                        env.dst = peer
                        env.tag = tag
                        env.size_bytes = size
                        env.is_rts = False
                    else:
                        env = _Envelope(rank, peer, tag, size)
                    schedule(arrive_us, arrive, env)
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
                env = q.popleft() if q else None
                if env is None:
                    if signal_pool:
                        sig = signal_pool.pop()
                        sig.name = "recv"
                        sig.fired = False
                        sig.value = None
                    else:
                        sig = Signal(engine, "recv")
                    pq = posted.get(key)
                    if pq is None:
                        posted[key] = pq = deque()
                    pq.append(sig)
                    ctx.pending_requests.append(sig)
                elif env.is_rts:
                    cts, data = env.cts_signal, env.data_signal
                    recycle_env(env)
                    cts.fire(engine.now)
                    ctx.pending_requests.append(data)
                else:
                    recycle_env(env)
                    ctx.pending_requests.append(engine.now)
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

    def _transfer(self, src: int, dst: int, size: int, earliest: float):
        """Push one message through the fabric: ``(arrive, src_release)``."""

        return self.fabric.transfer_hot(
            src, dst, size, earliest, self.power_hook
        )

    def _deliver(self, env: _Envelope, t_us: float) -> None:
        """Schedule envelope delivery into the receiver's matching layer."""

        self.engine._schedule(t_us, self._arrive, env)

    def _arrive(self, env: _Envelope) -> None:
        ctx = self.ranks[env.dst]
        key = (env.src, env.tag)
        q = ctx.posted.get(key)
        if not q:
            uq = ctx.unexpected.get(key)
            if uq is None:
                ctx.unexpected[key] = uq = deque()
            uq.append(env)
            return
        sig = q.popleft()
        if env.is_rts:
            assert env.cts_signal is not None
            env.cts_signal.fire(self.engine.now)
            # the posted recv completes when the payload lands
            assert env.data_signal is not None
            env.data_signal.add_callback(sig.fire)
            env.data_signal = None
            env.cts_signal = None
        else:
            sig.fire(self.engine.now)
        self._env_pool.append(env)

    def _start_rendezvous(self, rank: int, dst: int, size: int,
                          tag: int) -> Signal:
        """Launch a zero-spawn rendezvous send; returns its completion
        signal.  The continuation performs the exact step sequence the
        old helper process did — RTS delivery now, payload transfer on
        CTS, completion fire at source drain — without a process frame.
        """

        engine = self.engine
        done = engine.new_signal("isend")
        pool = self._rdv_pool
        if pool:
            rdv = pool.pop()
        else:
            rdv = _RendezvousSend(self)
        rdv.rank = rank
        rdv.dst = dst
        rdv.size = size
        rdv.done = done
        cts = engine.new_signal("cts")
        data = engine.new_signal("data")
        rdv.cts = cts
        rdv.data = data
        env = self._new_envelope(rank, dst, tag, size, is_rts=True,
                                 data_signal=data, cts_signal=cts)
        self._deliver(env, engine.now + MPI_LATENCY_US)  # RTS flight
        cts.add_callback(rdv._on_cts)
        self._rdv_inflight[rank] += 1
        return done

    def _send(self, rank: int, dst: int, size: int, tag: int):
        """Blocking-send generator (eager or rendezvous)."""

        engine = self.engine
        if size <= self.eager_threshold:
            # eager: the receiver completes off the envelope's arrival
            # event alone — no payload signal is needed, the matching
            # layer fires the posted recv (or queues the envelope)
            arrive_us, src_release = self._transfer(rank, dst, size, engine.now)
            env = self._new_envelope(rank, dst, tag, size)
            self._deliver(env, arrive_us)
            now = engine.now
            if src_release > now:
                yield Delay(src_release - now)
            return
        # rendezvous
        cts = engine.new_signal("cts")
        data = engine.new_signal("data")
        env = self._new_envelope(rank, dst, tag, size, is_rts=True,
                                 data_signal=data, cts_signal=cts)
        self._deliver(env, engine.now + MPI_LATENCY_US)  # RTS flight
        yield cts  # receiver matched; CTS flies back
        start = engine.now + MPI_LATENCY_US
        arrive_us, src_release = self._transfer(rank, dst, size, start)
        data.fire_at(arrive_us, arrive_us)
        now = engine.now
        if src_release > now:
            yield Delay(src_release - now)

    def _recv(self, rank: int, src: int, tag: int):
        """Blocking-receive generator."""

        engine = self.engine
        ctx = self.ranks[rank]
        env = ctx.pop_unexpected(src, tag)
        if env is None:
            sig = engine.new_signal("recv")
            ctx.add_posted(src, tag, sig)
            yield sig
            # the signal's only waiter (this process) has been resumed
            engine.recycle_signal(sig)
            return
        if env.is_rts:
            cts, data = env.cts_signal, env.data_signal
            assert cts is not None and data is not None
            self._recycle_envelope(env)
            cts.fire(engine.now)
            yield data
            return
        # eager payload already arrived; receive completes immediately
        self._recycle_envelope(env)

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
        time — no signal, no scheduled completion event.  Rendezvous
        sends need the CTS handshake and return the completion
        :class:`Signal` of a zero-spawn continuation
        (:class:`_RendezvousSend`).
        """

        if size <= self.eager_threshold:
            engine = self.engine
            arrive_us, src_release = self._transfer(rank, dst, size, engine.now)
            self._deliver(self._new_envelope(rank, dst, tag, size), arrive_us)
            now = engine.now
            return src_release if src_release > now else now
        return self._start_rendezvous(rank, dst, size, tag)

    def irecv(self, rank: int, src: int, tag: int):
        """Nonblocking receive; returns its completion request.

        Probes the matching layer at call time (no helper process): an
        already-arrived eager payload completes immediately (the request
        is the float ``now``), an RTS is matched on the spot (CTS fires,
        the request is the payload signal), otherwise the receive is
        posted and its signal returned.
        """

        engine = self.engine
        ctx = self.ranks[rank]
        env = ctx.pop_unexpected(src, tag)
        if env is None:
            sig = engine.new_signal("recv")
            ctx.add_posted(src, tag, sig)
            return sig
        if env.is_rts:
            cts, data = env.cts_signal, env.data_signal
            self._recycle_envelope(env)
            cts.fire(engine.now)
            return data
        self._recycle_envelope(env)
        return engine.now

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
