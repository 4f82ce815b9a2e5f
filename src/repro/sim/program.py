"""Compiled rank programs: flat opcode streams for the replay hot loop.

The interpreted replay path (:meth:`repro.sim.mpi.MPIWorld.rank_program`)
walks each rank's heterogeneous record list per replay: an ``isinstance``
chain per record, a sub-generator per MPI operation (``yield from``
through ``_execute_p2p`` / ``_execute_collective`` / ``_send`` /
``_recv``) and a collective-schedule cache lookup per collective
instance.  Trace-driven simulators (SynchroTrace and friends) instead
*pre-compile* the event stream once and replay a flat program; this
module brings that shape here.

:func:`compile_trace` lowers a :class:`~repro.trace.trace.Trace` into one
:class:`RankProgram` per rank — a tuple of plain instruction tuples
``(opcode, ...)``:

* consecutive :class:`~repro.trace.events.Compute` records are coalesced
  into a single ``OP_DELAY`` carrying the *raw* (unscaled) duration; the
  driver divides by ``cpu_speedup`` at run time, exactly like the
  interpreter, so the scaling arithmetic is bit-for-bit identical;
* collectives resolve their memoised relative step schedule **at compile
  time** (:func:`repro.sim.collectives.schedule_steps` is a pure function
  of ``(kind, rank, nranks, size, root)``), lowered further into plain
  ``(step_op, peer, size_bytes, rel_tag)`` tuples so the driver touches
  no :class:`~repro.sim.collectives.Step` attributes per step;
* the eager/rendezvous decision is **not** baked in — message sizes stay
  in the instructions and the driver compares against the world's eager
  threshold at run time, so one compiled trace serves every protocol
  configuration;
* managed-run directives compile too: :meth:`CompiledTrace.
  with_directives` resolves each rank's per-call
  :class:`~repro.sim.mpi.RankDirective` lookups at compile time into
  dedicated opcodes (``OP_OVERHEAD`` / ``OP_SHUTDOWN``), fusing PPA
  overheads into adjacent ``OP_DELAY`` instructions where semantics
  allow (``OP_DELAY_OVH`` / ``OP_OVH_DELAY`` reach the exact chained
  timestamps through one absolute-time event) — so the managed replay
  runs the same single-frame driver with no per-call dict probes.

The driver itself lives in :meth:`repro.sim.mpi.MPIWorld.run_program`;
it dispatches on the small-integer opcode (a per-opcode branch table)
instead of ``isinstance`` chains, and inlines the hot operations so a
whole rank executes as **one** generator frame — no per-operation
sub-generators for the engine's ``send`` to traverse.

Equivalence contract: a compiled program must drive the engine through
*exactly* the same request sequence (same yields, same ``_schedule``
calls in the same order, same float arithmetic) as the interpreter on the
same records — the differential harness
(``tests/sim/test_differential_kernels.py``) holds the two bit-for-bit
equal across the full workload × protocol × topology matrix.  The one
intentional difference is invisible to the simulation: traces whose
builders did not already coalesce adjacent compute bursts sum the raw
durations at compile time (``ProcessTrace.compute`` performs the same
summation at build time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..trace.events import Collective, Compute, MPICall, PointToPoint, TraceRecord
from ..trace.trace import Trace
from . import collectives as coll

# -- opcodes ----------------------------------------------------------------
# Instruction layouts (plain tuples; index 0 is always the opcode and, for
# MPI operations, index 1 is always the MPICall used for event logging):

#: ``(OP_DELAY, raw_duration_us)`` — coalesced compute burst
OP_DELAY = 0
#: ``(OP_SEND, call, peer, size_bytes, tag)`` — blocking send
OP_SEND = 1
#: ``(OP_RECV, call, peer, tag)`` — blocking receive
OP_RECV = 2
#: ``(OP_ISEND, call, peer, size_bytes, tag)`` — nonblocking send
OP_ISEND = 3
#: ``(OP_IRECV, call, peer, tag)`` — nonblocking receive
OP_IRECV = 4
#: ``(OP_WAITALL, call)`` — drain all pending requests (WAIT and WAITALL)
OP_WAITALL = 5
#: ``(OP_SENDRECV, call, peer, size_bytes, tag, recv_src)``
OP_SENDRECV = 6
#: ``(OP_COLLECTIVE, call, steps)`` — steps are lowered relative-tag
#: tuples ``(step_op, peer, size_bytes, rel_tag)``
OP_COLLECTIVE = 7

# -- managed-run opcodes (compiled from RankDirectives; see
# ``CompiledTrace.with_directives``) ----------------------------------------

#: ``(OP_OVERHEAD, overhead_us)`` — PPA software cost charged as one
#: plain delay (a pre- or post-overhead that could not fuse)
OP_OVERHEAD = 8
#: ``(OP_SHUTDOWN, timer_us, delay_us)`` — turn-off-lanes instruction;
#: the driver invokes ``on_shutdown(rank, now, timer_us, delay_us)``
OP_SHUTDOWN = 9
#: ``(OP_DELAY_OVH, raw_duration_us, overhead_us)`` — a coalesced
#: compute burst with the *next* call's pre-overhead fused behind it:
#: one queue event landing on ``(now + raw/speedup) + overhead``, the
#: exact timestamp the interpreter's two chained delays reach
OP_DELAY_OVH = 10
#: ``(OP_OVH_DELAY, overhead_us, raw_duration_us)`` — the mirror fusion:
#: a call's post-overhead followed by a compute burst
OP_OVH_DELAY = 11

#: collective step micro-opcodes (see ``_lower_steps``)
STEP_SEND = 0        # blocking send
STEP_SEND_ASYNC = 1  # concurrent send (isend, awaited by the trailing barrier)
STEP_RECV = 2        # blocking receive


def _lower_steps(steps: Sequence[coll.Step]) -> tuple:
    """Lower a memoised relative schedule into plain step tuples."""

    lowered = []
    for s in steps:
        if s.kind == "send":
            op = STEP_SEND_ASYNC if s.concurrent else STEP_SEND
        else:
            op = STEP_RECV
        lowered.append((op, s.peer, s.size_bytes, s.tag))
    return tuple(lowered)


def compile_records(
    records: Sequence[TraceRecord], rank: int, nranks: int
) -> tuple:
    """Compile one rank's record list into a flat instruction tuple."""

    code: list[tuple] = []
    pending_delay = 0.0
    have_delay = False
    for rec in records:
        if isinstance(rec, Compute):
            # coalesce adjacent bursts; raw durations are summed exactly
            # like ProcessTrace.compute does at build time
            pending_delay = pending_delay + rec.duration_us if have_delay else rec.duration_us
            have_delay = True
            continue
        if have_delay:
            code.append((OP_DELAY, pending_delay))
            have_delay = False
        if isinstance(rec, PointToPoint):
            call = rec.call
            if call is MPICall.SEND:
                code.append((OP_SEND, call, rec.peer, rec.size_bytes, rec.tag))
            elif call is MPICall.RECV:
                code.append((OP_RECV, call, rec.peer, rec.tag))
            elif call is MPICall.ISEND:
                code.append((OP_ISEND, call, rec.peer, rec.size_bytes, rec.tag))
            elif call is MPICall.IRECV:
                code.append((OP_IRECV, call, rec.peer, rec.tag))
            elif call in (MPICall.WAIT, MPICall.WAITALL):
                code.append((OP_WAITALL, call))
            elif call in (MPICall.SENDRECV, MPICall.SENDRECV_REPLACE):
                src = rec.recv_peer if rec.recv_peer is not None else rec.peer
                code.append(
                    (OP_SENDRECV, call, rec.peer, rec.size_bytes, rec.tag, src)
                )
            else:  # pragma: no cover - record types are closed
                raise ValueError(f"unhandled point-to-point call {call!r}")
        elif isinstance(rec, Collective):
            steps = coll.schedule_steps(
                rec.call, rank, nranks, rec.size_bytes, rec.root
            )
            code.append((OP_COLLECTIVE, rec.call, _lower_steps(steps)))
        else:  # pragma: no cover - record types are closed
            raise ValueError(f"unknown record {rec!r}")
    if have_delay:
        code.append((OP_DELAY, pending_delay))
    return tuple(code)


@dataclass(frozen=True, slots=True)
class RankProgram:
    """One rank's compiled instruction stream."""

    rank: int
    code: tuple

    def __len__(self) -> int:
        return len(self.code)


@dataclass(frozen=True, slots=True)
class CompiledTrace:
    """All ranks' programs plus the identity of the trace they came from.

    The identity fields let the replay drivers reject a program set that
    was compiled for a different trace (the same guard discipline as
    ``Fabric.build_signature``).  ``trace_meta`` captures the generator
    parameters (seed, iterations, scaling) that the workload generators
    record on ``Trace.meta``, so two same-named, same-shaped traces from
    different seeds do not silently share programs; hand-built traces
    with empty meta fall back to the structural fields.

    ``managed`` marks a program set specialised with one displacement's
    :class:`~repro.sim.mpi.RankDirective` maps
    (:meth:`with_directives`).  Specialised sets are private to the
    managed replay that wove them — the drivers reject one arriving
    through the shared ``programs=`` parameter, because nothing could
    verify it was woven from *these* directives.
    """

    trace_name: str
    nranks: int
    total_records: int
    programs: tuple[RankProgram, ...]
    trace_meta: tuple = ()
    managed: bool = False

    @property
    def name(self) -> str:
        """The source trace's name: a replay driver reads a program set's
        identity (``name``, ``nranks``) exactly as it reads a trace's."""

        return self.trace_name

    @property
    def total_instructions(self) -> int:
        return sum(len(p) for p in self.programs)

    def comm_pairs(self) -> set[tuple[int, int]]:
        """Every (src, dst) host pair this trace will transfer on.

        Collective schedules are already expanded into the instructions,
        so the full set is known before the first replay — drivers hand
        it to :meth:`repro.network.fabric.Fabric.precompile_pairs` so
        route/hop-table compilation happens at build time (the way an IB
        subnet manager programs forwarding tables ahead of traffic)
        instead of lazily inside the first timed replay.
        """

        pairs: set[tuple[int, int]] = set()
        for prog in self.programs:
            rank = prog.rank
            for ins in prog.code:
                op = ins[0]
                if op in (OP_SEND, OP_ISEND):
                    pairs.add((rank, ins[2]))
                elif op == OP_SENDRECV:
                    pairs.add((rank, ins[2]))
                    pairs.add((ins[5], rank))
                elif op in (OP_RECV, OP_IRECV):
                    pairs.add((ins[2], rank))
                elif op == OP_COLLECTIVE:
                    for sop, peer, _size, _tag in ins[2]:
                        if sop == STEP_RECV:
                            pairs.add((peer, rank))
                        else:
                            pairs.add((rank, peer))
        return pairs

    def matches(self, trace: Trace) -> bool:
        return (
            self.trace_name == trace.name
            and self.nranks == trace.nranks
            and self.total_records == trace.total_records
            and self.trace_meta == _meta_signature(trace)
        )

    def with_directives(self, directives: Sequence[dict]) -> "CompiledTrace":
        """Specialise this (base) program set for one managed replay.

        ``directives[rank]`` maps MPI-call index ->
        :class:`~repro.sim.mpi.RankDirective`.  Each rank's per-call
        directive lookups are resolved *here*, at compile time, into
        dedicated instructions woven around the base opcodes — the
        driver's hot loop then runs with no directive dict probes at
        all:

        * ``pre_overhead_us``  -> ``OP_OVERHEAD`` right before the call,
          fused into an immediately preceding plain ``OP_DELAY`` as
          ``OP_DELAY_OVH`` (one queue event instead of two; the fused
          arithmetic reproduces the chained-delay timestamps exactly);
        * ``post_overhead_us`` -> ``OP_OVERHEAD`` right after the call,
          fused forward into a following plain ``OP_DELAY`` as
          ``OP_OVH_DELAY`` — unless a shutdown directive intervenes
          (the turn-off instruction must execute *at* the
          post-overhead's exit time, so semantics forbid the fusion);
        * ``shutdown_timer_us`` -> ``OP_SHUTDOWN`` after the overheads.

        Raises :class:`ValueError` on a rank-count mismatch or when
        called on an already-specialised set.
        """

        if self.managed:
            raise ValueError(
                "programs are already directive-specialised; specialise "
                "the base compile_trace() result instead"
            )
        if len(directives) != self.nranks:
            raise ValueError(
                f"need directives for {self.nranks} ranks, "
                f"got {len(directives)}"
            )
        return CompiledTrace(
            trace_name=self.trace_name,
            nranks=self.nranks,
            total_records=self.total_records,
            programs=tuple(
                RankProgram(p.rank, _weave_directives(p.code, rank_dirs))
                for p, rank_dirs in zip(self.programs, directives)
            ),
            trace_meta=self.trace_meta,
            managed=True,
        )


def _meta_signature(trace: Trace) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in trace.meta.items()))


def _weave_directives(code: tuple, rank_dirs: dict) -> tuple:
    """Weave one rank's directive map into its base instruction tuple.

    Every instruction except ``OP_DELAY`` is exactly one MPI call, in
    call-index order — the same indexing the interpreter's per-call
    ``directives.get(call_index)`` probes use.  Overheads are coerced to
    float here (``1.0 *``) so the driver's bare yields are always exact
    floats, like the ``Delay`` boxing the interpreter pays per call.
    """

    if not rank_dirs:
        return code
    out: list[tuple] = []
    append = out.append
    get_directive = rank_dirs.get
    call_index = 0
    prev_op = -1  # opcode of out[-1] (-1: empty), tracked as a local
    for ins in code:
        if ins[0] == OP_DELAY:
            if prev_op == OP_OVERHEAD:
                # a post-overhead directly before a compute burst (no
                # shutdown in between): fuse into one instruction
                out[-1] = (OP_OVH_DELAY, out[-1][1], ins[1])
                prev_op = OP_OVH_DELAY
            else:
                append(ins)
                prev_op = OP_DELAY
            continue
        directive = get_directive(call_index)
        call_index += 1
        if directive is None:
            append(ins)
            prev_op = ins[0]
            continue
        pre = directive.pre_overhead_us
        if pre > 0:
            if prev_op == OP_DELAY:
                # compute burst directly before the call: charge the
                # pre-overhead behind it in the same queue event
                out[-1] = (OP_DELAY_OVH, out[-1][1], 1.0 * pre)
            else:
                append((OP_OVERHEAD, 1.0 * pre))
        append(ins)
        prev_op = ins[0]
        post = directive.post_overhead_us
        if post > 0:
            append((OP_OVERHEAD, 1.0 * post))
            prev_op = OP_OVERHEAD
        if directive.shutdown_timer_us is not None:
            append(
                (OP_SHUTDOWN, directive.shutdown_timer_us,
                 directive.shutdown_delay_us)
            )
            prev_op = OP_SHUTDOWN
    return tuple(out)


def compile_trace(
    trace: Trace, directives: Sequence[dict] | None = None
) -> CompiledTrace:
    """Compile every rank of ``trace`` (done once, reused per replay).

    Drivers compile a trace once per cell and hand the result to
    :func:`repro.sim.dimemas.replay_baseline` /
    :func:`~repro.sim.dimemas.replay_managed` via their ``programs=``
    parameter, the same sharing idiom as ``fabric=``.

    With ``directives`` (one per-call :class:`~repro.sim.mpi.
    RankDirective` map per rank) the result is additionally specialised
    for one managed replay — equivalent to
    ``compile_trace(trace).with_directives(directives)``, which is what
    :func:`~repro.sim.dimemas.replay_managed` does internally with the
    shared base set.
    """

    nranks = trace.nranks
    compiled = CompiledTrace(
        trace_name=trace.name,
        nranks=nranks,
        total_records=trace.total_records,
        programs=tuple(
            RankProgram(p.rank, compile_records(p.records, p.rank, nranks))
            for p in trace.processes
        ),
        trace_meta=_meta_signature(trace),
    )
    if directives is None:
        return compiled
    return compiled.with_directives(directives)
