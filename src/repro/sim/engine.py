"""Discrete-event simulation core.

A minimal, dependency-free DES kernel in the SimPy style: *processes* are
Python generators that ``yield`` requests to the engine — a
:class:`Delay` (or a bare non-negative float, the allocation-free form
the compiled replay programs use), an :class:`At` absolute-time sleep,
a :class:`Signal` / :class:`AllOf` to wait on, or :data:`PARK`.  The
engine owns the clock and an event queue; everything else (MPI
semantics, the network, power) is layered on top in
:mod:`repro.sim.mpi`.

Determinism: events scheduled for the same timestamp are processed in
insertion order (a monotonically increasing sequence number breaks ties),
so repeated runs of the same trace are bit-for-bit identical.  The event
queue is a single binary heap (:mod:`heapq`) ordered on ``(time_us, seq)``.

Hot-path layout: queue entries are plain ``(time_us, seq, fn, arg)``
tuples (ordered on the first two fields; ``seq`` is unique so the
payload is never compared) and the engine schedules bound methods with an
explicit argument instead of allocating a closure per event; an entry
whose ``fn`` is :data:`RESUME` resumes process ``arg`` inline in
:meth:`Engine.run`, with no callback frame.  Processes
waiting on a :class:`Signal` are stored directly in the waiter list, and
:class:`AllOf` barriers register a single :class:`_Barrier` object's
bound method on each pending signal (no per-call lambda closures), so
the resume path allocates nothing beyond the heap tuple itself.  Signals
are pooled: :meth:`Engine.recycle_signal` returns a fired, fully-drained
signal to a free-list that :meth:`Engine.new_signal` reuses, so steady-
state replay allocates no new Signal objects per message.

Parking: a process that knows who will wake it needs no Signal at all.
It leaves its own process handle where its waker will find it (the MPI
layer's posted-receive queue, or a rendezvous send) and yields
:data:`PARK`, which the engine leaves alone: no event, no waiter list.
The waker resumes the handle directly (``Engine._resume(handle, None)``)
or schedules that resume (``_schedule(t, RESUME, handle)``).  A process
reads its handle in its first step from :attr:`Engine.starting`, which
the engine sets just before it runs a spawned process for the first
time.  ``spawn(..., on_exit=hook)`` runs ``hook()`` at the instant the
generator returns, before the next queued event, then drops it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, NoReturn

class SimulationError(RuntimeError):
    """Deadlock or protocol violation detected by the engine."""


def _invoke(action: Callable[[], None]) -> None:
    """Adapter for zero-argument callbacks queued through ``call_at``."""

    action()


@dataclass(frozen=True, slots=True)
class Delay:
    """Yielded by a process to advance its local time."""

    duration_us: float


class At:
    """Yielded by a process to sleep until an *absolute* time.

    The relative :class:`Delay` form resumes at ``now + duration`` — two
    chained delays therefore accumulate as ``(now + d1) + d2``.  ``At``
    lets a process that has already performed that exact arithmetic
    (e.g. a compiled instruction that fuses a coalesced compute burst
    with a PPA overhead charged right after it) reach the identical
    timestamp with a *single* queue event.  Mutable on purpose: hot
    loops keep one instance per frame and rewrite ``t_us`` between
    yields — the engine reads the field synchronously during dispatch,
    so reuse is safe.
    """

    __slots__ = ("t_us",)

    def __init__(self, t_us: float = 0.0) -> None:
        self.t_us = t_us


class Park:
    """Yielded by a process that has left its handle with its waker.

    The engine schedules nothing and registers nothing: whoever holds
    the handle resumes the process.  Stateless, so every process yields
    the one instance :data:`PARK`.
    """

    __slots__ = ()


PARK = Park()


class Signal:
    """A one-shot condition that processes (or callbacks) can wait on.

    ``fire(value)`` wakes every current and future waiter; waiting on an
    already-fired signal resumes immediately.  Used for message arrival,
    rendezvous handshakes, collective phases, etc.
    """

    __slots__ = ("engine", "name", "fired", "value", "_waiters")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self.fired = False
        self.value: Any = None
        self._waiters: list[Callable[[Any], None]] = []

    def fire(self, value: Any = None) -> None:
        if self.fired:
            return
        self.fired = True
        self.value = value
        waiters = self._waiters
        if not waiters:
            return
        self._waiters = []
        # waiters registered before the fire resume *synchronously*, in
        # registration order — the signal's time has come and rescheduling
        # each waiter as its own queue event would double the event count
        # of every message completion.  Recursion is bounded: a resumed
        # process runs only to its next yield, and waiting on an
        # already-fired signal goes through the queue (add_callback /
        # _add_waiter_process below), so same-slice wait loops cannot
        # stack frames.
        engine = self.engine
        resume = engine._resume
        for wake in waiters:
            if wake.__class__ is _Process:
                resume(wake, value)
            else:
                wake(value)

    def fire_at(self, t_us: float, value: Any = None) -> None:
        """Schedule the signal to fire at absolute time ``t_us``."""

        self.engine._schedule(t_us, self.fire, value)

    def add_callback(self, wake: Callable[[Any], None]) -> None:
        """Run ``wake(value)`` when the signal fires (immediately if it
        already has)."""

        if self.fired:
            self.engine._schedule(self.engine.now, wake, self.value)
        else:
            self._waiters.append(wake)

    def _add_waiter_process(self, proc: "_Process") -> None:
        """Resume ``proc`` with the signal's value when it fires."""

        if self.fired:
            self.engine._schedule(self.engine.now, self._wake_process, proc)
        else:
            self._waiters.append(proc)

    def _wake_process(self, proc: "_Process") -> None:
        self.engine._resume(proc, self.value)


class AllOf:
    """Barrier over several signals: resumes once every signal has fired.

    The resumed process receives the list of signal values, ordered as
    passed in.
    """

    __slots__ = ("signals",)

    def __init__(self, signals: Iterable[Signal]) -> None:
        self.signals = list(signals)


#: the ``fn`` of a queue entry ``(time_us, seq, fn, arg)`` that resumes
#: process ``arg`` (:meth:`Engine.run` runs it inline); any other ``fn``
#: is dispatched as ``fn(arg)``
RESUME = None


@dataclass(slots=True)
class _Process:
    name: str
    gen: Generator
    done: bool = False
    result: Any = None
    #: called (once) when the generator returns, then dropped
    on_exit: Callable[[], None] | None = None


class _Barrier:
    """Bookkeeping for one :class:`AllOf` wait (no closure allocations).

    One instance per barrier; every pending signal gets the *same* bound
    ``_signal_fired`` callback, and the values are gathered from the
    signals at resume time (ordered as passed to :class:`AllOf`).
    """

    __slots__ = ("engine", "proc", "signals", "remaining")

    def __init__(
        self,
        engine: "Engine",
        proc: _Process,
        signals: list[Signal],
        remaining: int,
    ) -> None:
        self.engine = engine
        self.proc = proc
        self.signals = signals
        self.remaining = remaining

    def _signal_fired(self, _value: Any) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.engine._resume(self.proc, [s.value for s in self.signals])


class Engine:
    """The event loop."""

    # slots: the scheduling hot paths touch these attributes per event;
    # ``_schedule`` is a slot (not a method) holding the per-instance
    # push closure built by ``_make_schedule``
    __slots__ = (
        "now",
        "_seq",
        "_processes",
        "_active",
        "_signal_pool",
        "_queue",
        "_schedule",
        "blocked_reporter",
        "spawn_count",
        "starting",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq = itertools.count()
        self._processes: list[_Process] = []
        self._active = 0
        self._signal_pool: list[Signal] = []
        #: optional callable returning extra blocked-entity names for
        #: deadlock reports (processless work — e.g. in-flight
        #: nonblocking rendezvous sends — is invisible to the process
        #: table)
        self.blocked_reporter: Callable[[], list[str]] | None = None
        #: lifetime count of spawned processes — the replay layer's
        #: no-helper-spawn invariant is asserted against it
        self.spawn_count = 0
        #: the process whose first step is running (set by ``_start``):
        #: a generator that parks reads its own handle from here before
        #: its first yield
        self.starting: _Process | None = None
        self._queue: list[tuple] = []
        self._schedule = self._make_schedule()

    # -- public API ----------------------------------------------------------

    def spawn(self, gen: Generator, name: str = "proc",
              on_exit: Callable[[], None] | None = None) -> _Process:
        """Register a generator as a simulation process, started at t=now;
        ``on_exit()`` runs once, when the generator returns."""

        self.spawn_count += 1
        proc = _Process(name=name, gen=gen, on_exit=on_exit)
        self._processes.append(proc)
        self._active += 1
        self._schedule(self.now, self._start, proc)
        return proc

    def call_at(self, t_us: float, action: Callable[[], None]) -> None:
        """Run ``action()`` at absolute time ``t_us`` (>= now)."""

        self._schedule(t_us, _invoke, action)

    def _make_schedule(self) -> Callable:
        """Build the heap push as a closure — ``_schedule(t, fn, arg)``.

        The single-argument ``fn(arg)`` form lets hot paths schedule
        bound methods without closure allocations; binding the queue and
        sequence counter as closure cells (instead of attribute loads
        per call) shaves the hottest few loads off every event push.
        """

        queue = self._queue
        seq_next = self._seq.__next__

        def schedule(t_us: float, fn: Callable[[Any], None], arg: Any,
                     _push=heappush) -> None:
            now = self.now
            if t_us < now - 1e-9:
                raise SimulationError(
                    f"cannot schedule in the past: {t_us} < now={now}"
                )
            _push(queue, (t_us if t_us > now else now, seq_next(), fn, arg))

        return schedule

    def run(self, until_us: float | None = None) -> float:
        """Drain the event queue; returns the final simulation time.

        Raises :class:`SimulationError` if processes remain blocked when
        the queue empties (deadlock — e.g. an unmatched receive).
        """

        queue = self._queue
        seq_next = self._seq.__next__
        now = self.now
        limit = float("inf") if until_us is None else until_us
        while queue:
            entry = heappop(queue)
            t_us = entry[0]
            if t_us > limit:
                heappush(queue, entry)
                self.now = until_us
                return until_us
            if t_us > now:
                now = t_us
                self.now = t_us
            elif t_us < now - 1e-9:
                raise SimulationError("time went backwards in event queue")
            fn = entry[2]
            if fn is not None:
                fn(entry[3])
                continue
            # RESUME: _resume(proc, None) inlined, for the hottest event;
            # it pushes the next resume itself, clamped to now as the
            # schedule closure would (a NaN delay lands on now too)
            proc = entry[3]
            if proc.done:
                continue
            try:
                request = proc.gen.send(None)
            except StopIteration as stop:
                self._retire(proc, stop.value)
                continue
            cls = request.__class__
            if cls is float:
                if request < 0:
                    self._reject(proc, request)
                heappush(queue, (now + request if request > 0 else now,
                                 seq_next(), None, proc))
            elif cls is Park:
                pass
            elif cls is At:
                t_next = request.t_us
                if t_next < now - 1e-9:
                    self._reject(proc, request)
                heappush(queue, (t_next if t_next > now else now,
                                 seq_next(), None, proc))
            elif cls is Delay:
                duration = request.duration_us
                if duration < 0:
                    self._reject(proc, request)
                heappush(queue, (now + duration if duration > 0 else now,
                                 seq_next(), None, proc))
            elif cls is Signal:
                request._add_waiter_process(proc)
            elif cls is AllOf:
                self._await_all(proc, request)
            else:
                self._reject(proc, request)
        self._check_deadlock()
        return self.now

    def blocked_names(self) -> list[str]:
        """Names of processes still blocked, plus any processless
        in-flight work registered via ``blocked_reporter`` — the
        blocked-rank report for deadlock and partition errors."""

        blocked = [p.name for p in self._processes if not p.done]
        if self.blocked_reporter is not None:
            blocked.extend(self.blocked_reporter())
        return blocked

    def _check_deadlock(self) -> None:
        if self._active > 0:
            blocked = self.blocked_names()
            raise SimulationError(
                f"deadlock: {self._active} process(es) still blocked: "
                + ", ".join(blocked[:8])
                + ("..." if len(blocked) > 8 else "")
            )

    def new_signal(self, name: str = "") -> Signal:
        pool = self._signal_pool
        if pool:
            sig = pool.pop()
            sig.name = name
            sig.fired = False
            sig.value = None
            return sig
        return Signal(self, name)

    def recycle_signal(self, sig: Signal) -> None:
        """Return a signal to the free-list for :meth:`new_signal` reuse.

        Contract: only recycle a signal that has *fired* and whose every
        waiter has already been resumed — i.e. after the recycling
        process itself was woken by it and no other process or queue
        entry can still reference it.  An unfired or still-watched signal
        is silently kept alive instead (recycling it would corrupt the
        waiter that eventually resumes).
        """

        if not sig.fired or sig._waiters:
            return
        self._signal_pool.append(sig)

    @property
    def unfinished(self) -> int:
        return self._active

    # -- internals -------------------------------------------------------------

    def _start(self, proc: _Process) -> None:
        """A spawned process's first step: publish its handle, run it."""

        self.starting = proc
        self._resume(proc, None)

    def _retire(self, proc: _Process, result: Any) -> None:
        """``proc``'s generator returned: mark it done, run its exit hook."""

        proc.done = True
        proc.result = result
        self._active -= 1
        on_exit = proc.on_exit
        if on_exit is not None:
            proc.on_exit = None
            on_exit()

    def _resume(self, proc: _Process, send_value: Any) -> None:
        if proc.done:
            return
        try:
            request = proc.gen.send(send_value)
        except StopIteration as stop:
            self._retire(proc, stop.value)
            return
        # dispatch on exact type: float is the allocation-free delay the
        # compiled programs yield, Delay the interpreter's boxed form —
        # both schedule the identical resume event
        cls = request.__class__
        if cls is float:
            if request < 0:
                self._reject(proc, request)
            self._schedule(self.now + request, None, proc)
        elif cls is Park:
            pass
        elif cls is Delay:
            duration = request.duration_us
            if duration < 0:
                self._reject(proc, request)
            self._schedule(self.now + duration, None, proc)
        elif cls is At:
            t_us = request.t_us
            if t_us < self.now - 1e-9:
                self._reject(proc, request)
            self._schedule(t_us, None, proc)
        elif cls is Signal:
            request._add_waiter_process(proc)
        elif cls is AllOf:
            self._await_all(proc, request)
        else:
            self._reject(proc, request)

    def _reject(self, proc: _Process, request: Any) -> NoReturn:
        """Raise the error for a request the engine cannot serve."""

        cls = request.__class__
        if cls is float or cls is Delay:
            what = "a negative delay"
        elif cls is At:
            what = f"At({request.t_us}) in the past (now={self.now})"
        else:
            what = (
                f"unsupported request {request!r}; yield Delay, At, "
                "Signal, AllOf or PARK"
            )
        raise SimulationError(f"process {proc.name} yielded {what}")

    def _resume_barrier(self, barrier: _Barrier) -> None:
        self._resume(barrier.proc, [s.value for s in barrier.signals])

    def _await_all(self, proc: _Process, barrier: AllOf) -> None:
        signals = barrier.signals
        pending = [s for s in signals if not s.fired]
        if not pending:
            # empty or fully pre-fired: resume through the queue in
            # insertion order, exactly like a waiter on a fired signal
            self._schedule(
                self.now, self._resume_barrier, _Barrier(self, proc, signals, 0)
            )
            return
        bar = _Barrier(self, proc, signals, len(pending))
        fired = bar._signal_fired
        for sig in pending:
            sig.add_callback(fired)
