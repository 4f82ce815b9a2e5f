"""Collective decomposition into point-to-point rounds.

The replay engine executes collectives the way real MPI libraries do: as
schedules of point-to-point messages.  Each function below returns, for
one rank, the ordered list of :class:`Step` objects for one collective
instance; every rank of the communicator computes the *same* schedule
independently (textbook algorithms, deterministic), so the sends and
receives pair up inside the simulator's matching layer.

Algorithms (standard choices, cf. MPICH/Open MPI):

* Barrier          — dissemination (ceil(log2 P) rounds, zero payload)
* Bcast            — binomial tree from the root
* Reduce           — binomial tree to the root
* Allreduce        — recursive doubling, with pre/post folding for
                     non-power-of-two communicators
* Allgather        — ring (P-1 rounds, each carrying one block)
* Alltoall         — pairwise exchange (P-1 rounds, XOR/ring pairing)
* Scatter / Gather — linear to/from the root
* Reduce_scatter   — implemented as Reduce + Scatter (simple, balanced)
* Scan             — linear chain
* *v-variants*     — same schedule as their regular counterpart, sized by
                     the per-rank payload (traces carry one size)

Tags: each collective instance gets a unique base tag so that message
matching can never confuse rounds of different collectives (or different
rounds of the same collective).

Schedule memoisation: the algorithms above are pure functions of
``(kind, rank, nranks, size, root)`` — the instance number only shifts
the tag space.  :func:`schedule_steps` therefore caches one *relative*
schedule (tags counted from 0) per shape and the replay engine rebases
tags by ``base_tag(instance)`` at execution time, so a collective that
occurs thousands of times in a trace is expanded exactly once.  Every
cached schedule is validated to keep its relative tags inside
``[0, COLLECTIVE_TAG_STRIDE)`` so rebased tag ranges of consecutive
instances can never collide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..trace.events import MPICall

#: tag space reserved for collective internals; user p2p tags are small.
COLLECTIVE_TAG_BASE = 1 << 20
#: stride between collective instances: rounds within an instance use
#: base+round, so instances must be spaced by more than the max rounds.
COLLECTIVE_TAG_STRIDE = 4096


@dataclass(frozen=True, slots=True)
class Step:
    """One point-to-point action inside a collective schedule.

    ``kind`` is ``"send"`` or ``"recv"``; ``sendrecv`` pairs are expressed
    as a ``send`` and ``recv`` with ``concurrent=True`` on the send,
    meaning the engine should launch the send without blocking and then
    wait for both.
    """

    kind: str                 # "send" | "recv"
    peer: int
    size_bytes: int
    tag: int
    concurrent: bool = False  # pair with the following step (exchange)


def _exchange(peer: int, size: int, tag: int) -> list[Step]:
    """A simultaneous send+recv with the same peer (pairwise exchange)."""

    return [
        Step("send", peer, size, tag, concurrent=True),
        Step("recv", peer, size, tag),
    ]


def barrier(rank: int, nranks: int, _size: int, base_tag: int) -> list[Step]:
    """Dissemination barrier: round k exchanges with rank +/- 2^k."""

    steps: list[Step] = []
    if nranks <= 1:
        return steps
    rounds = math.ceil(math.log2(nranks))
    for k in range(rounds):
        dst = (rank + (1 << k)) % nranks
        src = (rank - (1 << k)) % nranks
        steps.append(Step("send", dst, 0, base_tag + k, concurrent=True))
        steps.append(Step("recv", src, 0, base_tag + k))
    return steps


def _binomial_children(rank: int, nranks: int, root: int) -> tuple[int | None, list[int]]:
    """Parent and children of ``rank`` in a binomial broadcast tree.

    Built on ranks relative to the root (MPICH-style): a rank's parent is
    its relative id with the lowest set bit cleared; its children are
    ``rel + b`` for every power of two ``b`` strictly below that lowest
    set bit (all powers, for the root), while staying inside the
    communicator.  Children are listed in *descending* ``b`` order — the
    order a binomial bcast sends (farthest subtree first).
    """

    rel = (rank - root) % nranks
    if rel == 0:
        parent = None
        limit = 1 << max(0, (nranks - 1).bit_length())
    else:
        low_bit = rel & -rel
        parent = ((rel - low_bit) + root) % nranks
        limit = low_bit
    children: list[int] = []
    b = limit >> 1
    while b >= 1:
        if rel + b < nranks:
            children.append(((rel + b) + root) % nranks)
        b >>= 1
    return parent, children


def bcast(rank: int, nranks: int, size: int, base_tag: int, root: int = 0) -> list[Step]:
    """Binomial-tree broadcast: receive from parent, send to children."""

    if nranks <= 1:
        return []
    parent, children = _binomial_children(rank, nranks, root)
    steps: list[Step] = []
    if parent is not None:
        steps.append(Step("recv", parent, size, base_tag))
    for child in children:
        steps.append(Step("send", child, size, base_tag))
    return steps


def reduce(rank: int, nranks: int, size: int, base_tag: int, root: int = 0) -> list[Step]:
    """Binomial-tree reduction: mirror image of bcast."""

    if nranks <= 1:
        return []
    parent, children = _binomial_children(rank, nranks, root)
    steps: list[Step] = []
    # receive partial results from children (deepest first = reverse of
    # bcast send order), then forward to parent
    for child in reversed(children):
        steps.append(Step("recv", child, size, base_tag))
    if parent is not None:
        steps.append(Step("send", parent, size, base_tag))
    return steps


def allreduce(rank: int, nranks: int, size: int, base_tag: int) -> list[Step]:
    """Recursive doubling with non-power-of-two fold-in.

    For P not a power of two, the 2r extra ranks first fold into their
    even neighbours (pre-phase), the largest power-of-two subset runs
    recursive doubling, then results fan back out (post-phase).
    """

    if nranks <= 1:
        return []
    steps: list[Step] = []
    pof2 = 1 << (nranks.bit_length() - 1)
    rem = nranks - pof2
    tag = base_tag

    if rank < 2 * rem:
        if rank % 2 == 0:
            # sends its data to rank+1 and drops out of the core phase
            steps.append(Step("send", rank + 1, size, tag))
            new_rank = -1
        else:
            steps.append(Step("recv", rank - 1, size, tag))
            new_rank = rank // 2
    else:
        new_rank = rank - rem
    tag += 1

    if new_rank >= 0:
        mask = 1
        while mask < pof2:
            peer_new = new_rank ^ mask
            peer = peer_new * 2 + 1 if peer_new < rem else peer_new + rem
            steps.extend(_exchange(peer, size, tag))
            tag += 1
            mask <<= 1
    else:
        tag += max(0, pof2.bit_length() - 1)

    if rank < 2 * rem:
        if rank % 2 == 0:
            steps.append(Step("recv", rank + 1, size, tag))
        else:
            steps.append(Step("send", rank - 1, size, tag))
    return steps


def allgather(rank: int, nranks: int, size: int, base_tag: int) -> list[Step]:
    """Ring allgather: P-1 rounds, pass blocks around the ring."""

    if nranks <= 1:
        return []
    steps: list[Step] = []
    right = (rank + 1) % nranks
    left = (rank - 1) % nranks
    for k in range(nranks - 1):
        steps.append(Step("send", right, size, base_tag + k, concurrent=True))
        steps.append(Step("recv", left, size, base_tag + k))
    return steps


def alltoall(rank: int, nranks: int, size: int, base_tag: int) -> list[Step]:
    """Pairwise-exchange alltoall.

    For power-of-two P, round k pairs rank with ``rank ^ k`` (perfect
    matching); otherwise a ring schedule (send to rank+k, recv from
    rank-k) is used.  ``size`` is the per-destination block size.
    """

    if nranks <= 1:
        return []
    steps: list[Step] = []
    is_pof2 = (nranks & (nranks - 1)) == 0
    for k in range(1, nranks):
        if is_pof2:
            peer_s = peer_r = rank ^ k
            steps.extend(_exchange(peer_s, size, base_tag + k))
        else:
            dst = (rank + k) % nranks
            src = (rank - k) % nranks
            steps.append(Step("send", dst, size, base_tag + k, concurrent=True))
            steps.append(Step("recv", src, size, base_tag + k))
    return steps


def scatter(rank: int, nranks: int, size: int, base_tag: int, root: int = 0) -> list[Step]:
    """Linear scatter: root sends one block to every other rank."""

    if nranks <= 1:
        return []
    if rank == root:
        return [
            Step("send", r, size, base_tag) for r in range(nranks) if r != root
        ]
    return [Step("recv", root, size, base_tag)]


def gather(rank: int, nranks: int, size: int, base_tag: int, root: int = 0) -> list[Step]:
    """Linear gather: every rank sends its block to the root."""

    if nranks <= 1:
        return []
    if rank == root:
        return [
            Step("recv", r, size, base_tag) for r in range(nranks) if r != root
        ]
    return [Step("send", root, size, base_tag)]


def reduce_scatter(rank: int, nranks: int, size: int, base_tag: int) -> list[Step]:
    """Reduce to rank 0, then scatter the result blocks."""

    steps = reduce(rank, nranks, size, base_tag, root=0)
    steps.extend(
        scatter(rank, nranks, max(1, size // max(1, nranks)), base_tag + 2048, root=0)
    )
    return steps


def scan(rank: int, nranks: int, size: int, base_tag: int) -> list[Step]:
    """Linear chain scan: receive from rank-1, send to rank+1."""

    steps: list[Step] = []
    if rank > 0:
        steps.append(Step("recv", rank - 1, size, base_tag))
    if rank < nranks - 1:
        steps.append(Step("send", rank + 1, size, base_tag))
    return steps


ScheduleFn = Callable[..., list[Step]]

_SCHEDULES: dict[MPICall, ScheduleFn] = {
    MPICall.BARRIER: barrier,
    MPICall.BCAST: bcast,
    MPICall.REDUCE: reduce,
    MPICall.ALLREDUCE: allreduce,
    MPICall.ALLGATHER: allgather,
    MPICall.ALLGATHERV: allgather,
    MPICall.ALLTOALL: alltoall,
    MPICall.ALLTOALLV: alltoall,
    MPICall.SCATTER: scatter,
    MPICall.SCATTERV: scatter,
    MPICall.GATHER: gather,
    MPICall.GATHERV: gather,
    MPICall.REDUCE_SCATTER: reduce_scatter,
    MPICall.SCAN: scan,
}

_ROOTED = frozenset(
    {
        MPICall.BCAST,
        MPICall.REDUCE,
        MPICall.SCATTER,
        MPICall.SCATTERV,
        MPICall.GATHER,
        MPICall.GATHERV,
    }
)


#: memoised relative schedules, keyed (call, rank, nranks, size, root)
_SCHEDULE_CACHE: dict[tuple, tuple[Step, ...]] = {}

#: cache instrumentation: process-cumulative hit/miss counters
_CACHE_STATS = {"hits": 0, "misses": 0}


def schedule_cache_stats(
    since: dict[str, int] | None = None
) -> dict[str, int]:
    """Snapshot of the schedule-cache hit/miss counters.

    The module-level counters are *process-cumulative*: a worker process
    that replays several cells keeps counting across them.  A caller
    that reports per-run numbers must therefore either start from
    :func:`clear_schedule_cache` (destructive: the memoised schedules
    go too) or take a snapshot before the run and
    pass it as ``since`` afterwards — the returned dict is then the
    delta attributable to the run alone, not to the process's whole
    history.
    """

    stats = dict(_CACHE_STATS)
    if since is not None:
        return {key: stats[key] - since.get(key, 0) for key in stats}
    return stats


def clear_schedule_cache() -> None:
    """Drop memoised schedules and zero the hit/miss counters."""

    _SCHEDULE_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def base_tag_for(instance: int) -> int:
    """The tag-space origin of one collective instance."""

    return COLLECTIVE_TAG_BASE + instance * COLLECTIVE_TAG_STRIDE


def schedule_steps(
    call: MPICall,
    rank: int,
    nranks: int,
    size_bytes: int,
    root: int = 0,
) -> tuple[Step, ...]:
    """The memoised *relative* schedule of one collective shape.

    Tags are counted from 0; callers rebase them by
    :func:`base_tag_for` per instance.  The cached schedule is validated
    once: every relative tag must lie in ``[0, COLLECTIVE_TAG_STRIDE)``,
    which guarantees the rebased tag ranges of consecutive instances are
    disjoint.
    """

    key = (call, rank, nranks, size_bytes, root)
    cached = _SCHEDULE_CACHE.get(key)
    if cached is not None:
        _CACHE_STATS["hits"] += 1
        return cached
    try:
        fn = _SCHEDULES[call]
    except KeyError:
        raise ValueError(f"no schedule for collective {call!r}") from None
    if call in _ROOTED:
        steps = fn(rank, nranks, size_bytes, 0, root)
    else:
        steps = fn(rank, nranks, size_bytes, 0)
    for step in steps:
        if not 0 <= step.tag < COLLECTIVE_TAG_STRIDE:
            raise AssertionError(
                f"{call.name} schedule uses relative tag {step.tag} outside "
                f"[0, {COLLECTIVE_TAG_STRIDE}); consecutive instances would "
                "share tags"
            )
    cached = tuple(steps)
    _SCHEDULE_CACHE[key] = cached
    _CACHE_STATS["misses"] += 1
    return cached


def schedule_for(
    call: MPICall,
    rank: int,
    nranks: int,
    size_bytes: int,
    instance: int,
    root: int = 0,
) -> list[Step]:
    """The p2p schedule of ``rank`` for one collective instance.

    ``instance`` is a per-communicator sequence number; it isolates the
    tag space of each collective occurrence.  This is the compatibility
    wrapper over :func:`schedule_steps`: it materialises absolute-tag
    :class:`Step` objects; the replay hot path rebases the cached
    relative tags in place instead.
    """

    base = base_tag_for(instance)
    return [
        Step(s.kind, s.peer, s.size_bytes, s.tag + base, s.concurrent)
        for s in schedule_steps(call, rank, nranks, size_bytes, root)
    ]


def validate_schedule(call: MPICall, nranks: int, size: int = 8) -> list[str]:
    """Cross-check that all ranks' schedules pair up (used by tests).

    Returns a list of problems (empty = consistent): every (src, dst,
    tag, size) send must have exactly one matching recv.
    """

    sends: dict[tuple[int, int, int], list[int]] = {}
    recvs: dict[tuple[int, int, int], list[int]] = {}
    for rank in range(nranks):
        for step in schedule_for(call, rank, nranks, size, instance=0):
            key_src = rank if step.kind == "send" else step.peer
            key_dst = step.peer if step.kind == "send" else rank
            key = (key_src, key_dst, step.tag)
            (sends if step.kind == "send" else recvs).setdefault(key, []).append(
                step.size_bytes
            )
    problems = []
    for key in sorted(set(sends) | set(recvs)):
        s, r = sorted(sends.get(key, [])), sorted(recvs.get(key, []))
        if s != r:
            problems.append(f"{key[0]}->{key[1]} tag={key[2]}: sends {s} recvs {r}")
    return problems
