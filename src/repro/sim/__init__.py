"""Simulator substrate: DES engine, MPI replay, collectives, replays.

The Dimemas+Venus co-simulation of the paper, in two layers:

* :mod:`repro.sim.engine` / :mod:`repro.sim.mpi` — discrete-event kernel
  and MPI semantics (matching, eager/rendezvous, collectives);
* :mod:`repro.sim.dimemas` — the trace replay drivers used by every
  experiment (baseline and managed runs), all built on one
  ``Composition`` (engine, fabric, admitted worlds, power domain) that
  the multi-job cluster layer admits its job streams into as well.

Replay architecture (the fast kernel)
-------------------------------------

A replay pushes every traced MPI operation through five layers; each one
precompiles or pools whatever is invariant across the run so that the
per-message hot path touches only flat, already-compiled state:

1. **Compiled rank programs** (:mod:`repro.sim.program`) — each rank's
   record list is lowered once per trace into a flat opcode stream
   (``compile_trace``): adjacent compute bursts coalesce into one
   delay, collectives resolve their memoised step schedules at compile
   time, and :meth:`~repro.sim.mpi.MPIWorld.run_program` executes the
   whole rank as a single generator frame dispatching on small-int
   opcodes.  Managed-run directives compile too
   (``CompiledTrace.with_directives``): PPA overheads and shutdown
   instructions become dedicated opcodes, fused into adjacent delays
   where semantics allow, so the managed replay runs the same
   probe-free driver.  The record interpreter (with its per-call
   directive dict probes) is kept as
   ``ReplayConfig(kernel="reference")``.
2. **Collective expansion** (:mod:`repro.sim.collectives`) — a
   collective's point-to-point schedule is a pure function of
   ``(kind, rank, nranks, size, root)``; it is memoised once per shape
   with *relative* tags and rebased per instance
   (``base_tag_for(instance)``), so a collective occurring thousands of
   times in a trace expands exactly once.  Relative tags are validated
   against ``COLLECTIVE_TAG_STRIDE`` so rebased instances never collide.
3. **Matching + protocol** (:mod:`repro.sim.mpi`) — posted/unexpected
   queues with eager and rendezvous protocols, fully **processless**:
   eager isends complete as plain float timestamps, irecvs probe the
   matching layer at call time, a rendezvous send is one pooled object
   that is its own RTS and continuation (zero spawns — asserted), a
   blocked fast-kernel rank parks its own process where its waker finds
   it, and WAIT/WAITALL drains a slice of nonblocking ops with at most
   one absolute-time sleep.  Rendezvous sends, completion
   :class:`~repro.sim.engine.Signal` objects and emptied matching-map
   queues are recycled through free-lists, so steady-state replay
   allocates few per-message objects.
4. **The fabric** (:mod:`repro.network.fabric`) — routes are *static
   per (src, dst) pair* (an IB subnet manager programs forwarding tables
   ahead of traffic): a seeded, order-independent
   :class:`~repro.network.routing.RouteTable` compiles each pair once,
   the fabric flattens it into per-pair ``(link, channel, switch)`` hop
   tables, and ``Fabric.precompile_pairs`` builds them ahead of traffic
   from the compiled trace's pair set (``CompiledTrace.comm_pair_set``,
   walked once at compile time).  ``Fabric.transfer_hot``
   walks that flat table; the per-message route walk is kept as
   ``Fabric.transfer`` (``ReplayConfig(kernel="reference")``) and
   property-tested bit-for-bit identical.  Channel busy intervals append to flat start/end arrays;
   coalescing and utilisation/energy aggregation are deferred to query
   time.
5. **The DES engine** (:mod:`repro.sim.engine`) — one heapq event
   queue with a ``(time, insertion-order)`` determinism contract.
   Plain-tuple entries, no per-event closures, pooled signals, and
   synchronous resume of pre-registered signal waiters.

Fabrics and compiled programs are reused across replays (a pooled
fabric, :func:`repro.experiments.common.checked_out`, and
``compile_trace``, via the replays' ``fabric=`` / ``programs=``):
construction, route compilation and program lowering are run-invariant,
and :meth:`Fabric.reset` clears the rest, with back-to-back-equals-fresh
covered by regression tests.
On the fast kernel a replay may take the compiled programs alone in
place of the trace (they carry the rank set, ``nranks`` and name), so a
warm what-if never regenerates its trace; only the reference kernel
interprets trace records.
The fast kernel is pinned bit-for-bit to the ``"reference"`` kernel
oracle by the differential harness
(``tests/sim/test_differential_kernels.py``).
"""

from ..network.faults import FabricPartitioned, FaultSummary
from .dimemas import (
    KERNELS,
    ReplayConfig,
    fabric_for,
    replay_baseline,
    replay_managed,
)
from .engine import AllOf, Delay, Engine, Signal, SimulationError
from .mpi import MPIWorld, RankDirective
from .program import CompiledTrace, RankProgram, compile_trace
from .results import BaselineResult, ManagedResult
from .venus import LinkUsage, fabric_usage, link_usage

__all__ = [
    "KERNELS",
    "FabricPartitioned",
    "FaultSummary",
    "ReplayConfig",
    "fabric_for",
    "replay_baseline",
    "replay_managed",
    "CompiledTrace",
    "RankProgram",
    "compile_trace",
    "AllOf",
    "Delay",
    "Engine",
    "Signal",
    "SimulationError",
    "MPIWorld",
    "RankDirective",
    "BaselineResult",
    "ManagedResult",
    "LinkUsage",
    "fabric_usage",
    "link_usage",
]
