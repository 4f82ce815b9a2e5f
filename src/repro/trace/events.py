"""MPI event model: call identifiers and per-rank trace records.

The replay engine consumes *Dimemas-like* traces: per-rank sequences of
records that say either "burn CPU for d microseconds" or "perform this MPI
operation".  Absolute timestamps are **not** stored in the trace — they
are a product of the replay (exactly as in Dimemas, where computation is
represented by recorded burst lengths and communication is simulated).

MPI call identifiers follow the Paraver ``MPI value`` numbering used by
the paper's Figures 2 and 3 (``41`` = ``MPI_Sendrecv``, ``10`` =
``MPI_Allreduce``).
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from itertools import islice
from operator import sub
from typing import Iterable, Iterator, Sequence, Union


class MPICall(enum.IntEnum):
    """Paraver-compatible MPI call identifiers.

    Only the calls exercised by the five workloads (plus a few common
    companions) are listed; the numbering for the two calls that appear in
    the paper's worked example (Sendrecv=41, Allreduce=10) matches the
    paper exactly.
    """

    SEND = 1
    RECV = 2
    ISEND = 3
    IRECV = 4
    WAIT = 5
    WAITALL = 6
    BCAST = 7
    BARRIER = 8
    REDUCE = 9
    ALLREDUCE = 10
    ALLTOALL = 11
    ALLTOALLV = 12
    GATHER = 13
    GATHERV = 14
    SCATTER = 15
    SCATTERV = 16
    ALLGATHER = 17
    ALLGATHERV = 18
    REDUCE_SCATTER = 19
    SCAN = 20
    SENDRECV = 41
    SENDRECV_REPLACE = 42
    INIT = 31
    FINALIZE = 32

    @property
    def is_collective(self) -> bool:
        return self in _COLLECTIVES

    @property
    def is_pointtopoint(self) -> bool:
        return self in _POINT_TO_POINT


_COLLECTIVES = frozenset(
    {
        MPICall.BCAST,
        MPICall.BARRIER,
        MPICall.REDUCE,
        MPICall.ALLREDUCE,
        MPICall.ALLTOALL,
        MPICall.ALLTOALLV,
        MPICall.GATHER,
        MPICall.GATHERV,
        MPICall.SCATTER,
        MPICall.SCATTERV,
        MPICall.ALLGATHER,
        MPICall.ALLGATHERV,
        MPICall.REDUCE_SCATTER,
        MPICall.SCAN,
    }
)

_POINT_TO_POINT = frozenset(
    {
        MPICall.SEND,
        MPICall.RECV,
        MPICall.ISEND,
        MPICall.IRECV,
        MPICall.WAIT,
        MPICall.WAITALL,
        MPICall.SENDRECV,
        MPICall.SENDRECV_REPLACE,
    }
)


@dataclass(frozen=True, slots=True)
class Compute:
    """A CPU burst: the rank computes for ``duration_us`` microseconds."""

    duration_us: float

    def __post_init__(self) -> None:
        if self.duration_us < 0:
            raise ValueError(f"negative compute burst: {self.duration_us}")


@dataclass(frozen=True, slots=True)
class PointToPoint:
    """A point-to-point MPI operation.

    ``peer`` is the partner rank.  For :data:`MPICall.SENDRECV`, ``peer``
    is the destination and ``recv_peer`` the source (both directions carry
    ``size_bytes`` unless ``recv_size_bytes`` is given).
    """

    call: MPICall
    peer: int
    size_bytes: int
    tag: int = 0
    recv_peer: int | None = None
    recv_size_bytes: int | None = None

    def __post_init__(self) -> None:
        if not self.call.is_pointtopoint:
            raise ValueError(f"{self.call!r} is not a point-to-point call")
        if self.size_bytes < 0:
            raise ValueError("negative message size")
        if self.peer < 0:
            raise ValueError("negative peer rank")


@dataclass(frozen=True, slots=True)
class Collective:
    """A collective MPI operation over the full communicator.

    ``size_bytes`` is the per-rank payload (e.g. the reduction vector
    length for Allreduce, the send count for Alltoall).
    ``root`` matters only for rooted collectives (Bcast, Reduce, ...).
    """

    call: MPICall
    size_bytes: int
    root: int = 0

    def __post_init__(self) -> None:
        if not self.call.is_collective:
            raise ValueError(f"{self.call!r} is not a collective call")
        if self.size_bytes < 0:
            raise ValueError("negative payload size")


TraceRecord = Union[Compute, PointToPoint, Collective]


def mpi_records(records: Iterable[TraceRecord]) -> list[TraceRecord]:
    """Return only the MPI (non-compute) records, preserving order."""

    return [r for r in records if not isinstance(r, Compute)]


@dataclass(slots=True, unsafe_hash=True)
class MPIEvent:
    """A *timed* MPI event, as observed by the PMPI interposition layer.

    The element type of an :class:`EventLog`: the replay records each
    MPI call straight into its rank's log columns, and an ``MPIEvent``
    is built only when a log is indexed or iterated (tests, examples,
    hand-made streams).  ``enter_us``/``exit_us`` bracket the MPI call;
    the gap between one event's ``exit_us`` and the next event's
    ``enter_us`` is the inter-communication (idle) interval the paper's
    PPA feeds on.

    Not frozen: a frozen dataclass pays three ``object.__setattr__``
    round trips per construction.  Nothing mutates events;
    ``unsafe_hash`` keeps the type hashable by field values for
    set/dict users.
    """

    call: MPICall
    enter_us: float
    exit_us: float

    def __post_init__(self) -> None:
        if self.exit_us < self.enter_us:
            raise exits_before_enters(self.enter_us, self.exit_us)

    @property
    def duration_us(self) -> float:
        return self.exit_us - self.enter_us


def exits_before_enters(enter_us: float, exit_us: float) -> ValueError:
    """The error every event recorder raises for ``exit_us < enter_us``."""

    return ValueError(f"event exits before it enters: {enter_us} > {exit_us}")


#: code -> :class:`MPICall`; a code outside the registry (synthetic
#: streams in tests) materialises as the bare int it was logged as
_CALLS = {int(call): call for call in MPICall}


class EventLog:
    """One rank's timed MPI calls as three flat columns.

    ``calls`` holds the :class:`MPICall` codes (``array('B')``),
    ``enter_us``/``exit_us`` the call brackets (``array('d')``): 17
    bytes per call and no per-call object.  The replay kernels append to
    the three columns directly and every pipeline consumer reads them;
    the sequence protocol (``len``, indexing, slices, iteration) builds
    :class:`MPIEvent` rows on demand.  ``==`` compares columns, and a
    log equals a list of ``MPIEvent`` with the same content.
    """

    __slots__ = ("calls", "enter_us", "exit_us")

    def __init__(self) -> None:
        self.calls = array("B")
        self.enter_us = array("d")
        self.exit_us = array("d")

    @classmethod
    def of(cls, events: EventLog | Iterable[MPIEvent]) -> "EventLog":
        """The log of ``events``; a log is returned as it is."""

        if isinstance(events, EventLog):
            return events
        log = cls()
        for ev in events:
            log.append(ev.call, ev.enter_us, ev.exit_us)
        return log

    def append(self, call: int, enter_us: float, exit_us: float) -> None:
        if exit_us < enter_us:
            raise exits_before_enters(enter_us, exit_us)
        self.calls.append(call)
        self.enter_us.append(enter_us)
        self.exit_us.append(exit_us)

    def rows(self) -> Iterator[tuple[int, float, float]]:
        """``(call code, enter_us, exit_us)`` per call, without events."""

        return zip(self.calls, self.enter_us, self.exit_us)

    def gaps_us(self) -> Iterator[float]:
        """Raw gap before each call but the first: its enter minus the
        previous call's exit (``len - 1`` values, possibly negative)."""

        return map(sub, islice(self.enter_us, 1, None), self.exit_us)

    def __len__(self) -> int:
        return len(self.calls)

    def __getitem__(self, index):
        if isinstance(index, slice):
            log = EventLog()
            log.calls = self.calls[index]
            log.enter_us = self.enter_us[index]
            log.exit_us = self.exit_us[index]
            return log
        code = self.calls[index]
        return MPIEvent(
            _CALLS.get(code, code), self.enter_us[index], self.exit_us[index]
        )

    def __iter__(self) -> Iterator[MPIEvent]:
        calls = _CALLS
        for code, enter, exit_ in self.rows():
            yield MPIEvent(calls.get(code, code), enter, exit_)

    def __eq__(self, other) -> bool:
        if isinstance(other, EventLog):
            return (
                self.calls == other.calls
                and self.enter_us == other.enter_us
                and self.exit_us == other.exit_us
            )
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"EventLog({list(self)!r})"


def idle_gaps(events: EventLog | Sequence[MPIEvent]) -> list[float]:
    """Inter-communication intervals between consecutive timed events.

    Returns ``len(events) - 1`` non-negative gaps; the gap preceding the
    first event (initialisation) is not included, matching how the paper
    measures idle link intervals between MPI calls.
    """

    return [max(0.0, gap) for gap in EventLog.of(events).gaps_us()]
