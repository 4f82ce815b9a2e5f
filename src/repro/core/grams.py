"""Gram formation — Algorithm 1 of the paper.

A *gram* is a maximal group of consecutive MPI calls whose
inter-communication gaps are all below the grouping threshold (GT).
Gaps of at least GT separate grams; those are the candidate idle windows
where lanes can be shut down (GT >= 2*T_react guarantees the window is
worth the toggle cost).

:class:`GramBuilder` performs the grouping online: feed it timed MPI
events one at a time; whenever an event's gap to its predecessor reaches
GT the previous gram *closes* and is returned.  Call :meth:`flush` at the
end of the stream to close the trailing gram.

Example from the paper's Fig. 2 (ALYA): the event stream
``41-41-41 ... 10 ... 10`` (gaps within the Sendrecv triple below GT)
forms grams ``(41,41,41)``, ``(10,)``, ``(10,)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..constants import MIN_GROUPING_THRESHOLD_US
from ..trace.events import MPIEvent

#: A gram's identity is the ordered tuple of MPI call ids it contains.
GramSignature = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Gram:
    """A closed gram with its timing.

    ``first_call_index``/``last_call_index`` are positions in the rank's
    MPI event stream (0-based), used to attach power directives to the
    right call in the managed replay.
    """

    signature: GramSignature
    start_us: float            # enter time of the first call
    end_us: float              # exit time of the last call
    first_call_index: int
    last_call_index: int

    @property
    def n_calls(self) -> int:
        return len(self.signature)

    @property
    def span_us(self) -> float:
        return self.end_us - self.start_us

    def __str__(self) -> str:
        return "-".join(str(c) for c in self.signature)


class GramBuilder:
    """Online implementation of Algorithm 1 (forming the array of grams)."""

    def __init__(self, grouping_threshold_us: float) -> None:
        if grouping_threshold_us < MIN_GROUPING_THRESHOLD_US:
            raise ValueError(
                f"GT must be at least 2*T_react = {MIN_GROUPING_THRESHOLD_US} us, "
                f"got {grouping_threshold_us}"
            )
        self.gt_us = grouping_threshold_us
        self._calls: list[int] = []
        self._start_us = 0.0
        self._end_us = 0.0
        self._first_index = 0
        self._next_index = 0
        self._last_exit_us: float | None = None

    @property
    def open_gram_size(self) -> int:
        return len(self._calls)

    @property
    def open_calls(self) -> tuple[int, ...]:
        """Call ids of the currently open (not yet closed) gram."""

        return tuple(self._calls)

    def feed(self, event: MPIEvent) -> Gram | None:
        """Consume one timed MPI event.

        Returns the gram that this event *closed* (i.e. the gap between
        the previous event's exit and this event's entry reached GT), or
        ``None`` if the event joined the currently-open gram.
        """

        index = self._next_index
        self._next_index += 1
        closed: Gram | None = None

        if self._last_exit_us is not None:
            gap = event.enter_us - self._last_exit_us
            if gap >= self.gt_us:
                closed = self._close(index)
        if not self._calls:
            self._start_us = event.enter_us
            self._first_index = index
        self._calls.append(int(event.call))
        self._end_us = event.exit_us
        self._last_exit_us = event.exit_us
        return closed

    def flush(self) -> Gram | None:
        """Close the trailing gram at end of stream (if any)."""

        if not self._calls:
            return None
        return self._close(self._next_index)

    def _close(self, _next_index: int) -> Gram:
        gram = Gram(
            signature=tuple(self._calls),
            start_us=self._start_us,
            end_us=self._end_us,
            first_call_index=self._first_index,
            last_call_index=self._first_index + len(self._calls) - 1,
        )
        self._calls = []
        return gram


def build_grams(
    events: Sequence[MPIEvent], grouping_threshold_us: float
) -> list[Gram]:
    """Batch helper: the full gram array of one rank's event stream."""

    builder = GramBuilder(grouping_threshold_us)
    grams: list[Gram] = []
    for ev in events:
        closed = builder.feed(ev)
        if closed is not None:
            grams.append(closed)
    tail = builder.flush()
    if tail is not None:
        grams.append(tail)
    return grams


def gram_gaps_us(grams: Sequence[Gram]) -> list[float]:
    """Idle gaps between consecutive grams (the shutdown windows)."""

    return [
        max(0.0, nxt.start_us - cur.end_us)
        for cur, nxt in zip(grams, grams[1:])
    ]
