"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import (
    PARK,
    AllOf,
    At,
    Delay,
    Engine,
    Signal,
    SimulationError,
)


class TestAt:
    """Absolute-time sleeps (the fused-delay request)."""

    def test_resumes_at_exact_time(self):
        eng = Engine()
        log = []

        def proc():
            yield At(5.0)
            log.append(eng.now)
            yield At(5.0 + 2.5)
            log.append(eng.now)

        eng.spawn(proc())
        assert eng.run() == 7.5
        assert log == [5.0, 7.5]

    def test_equals_chained_delays_bit_for_bit(self):
        # the fused form must land on ((now + d1) + d2), exactly what
        # two chained Delay yields reach
        d1, d2 = 0.1, 0.2
        eng1 = Engine()

        def chained():
            yield Delay(d1)
            yield Delay(d2)

        eng1.spawn(chained())
        t_chained = eng1.run()

        eng2 = Engine()

        def fused():
            yield At((eng2.now + d1) + d2)

        eng2.spawn(fused())
        assert eng2.run() == t_chained

    def test_mutable_instance_reusable(self):
        eng = Engine()
        log = []

        def proc():
            at = At(0.0)
            for t in (1.0, 4.0, 4.5):
                at.t_us = t
                yield at
                log.append(eng.now)

        eng.spawn(proc())
        eng.run()
        assert log == [1.0, 4.0, 4.5]

    def test_at_now_is_a_queue_round_trip(self):
        eng = Engine()
        order = []

        def a():
            yield At(0.0)
            order.append("a")

        def b():
            yield At(0.0)
            order.append("b")

        eng.spawn(a())
        eng.spawn(b())
        eng.run()
        assert order == ["a", "b"]

    def test_past_time_rejected(self):
        eng = Engine()

        def proc():
            yield Delay(10.0)
            yield At(3.0)

        eng.spawn(proc())
        with pytest.raises(SimulationError, match="in the past"):
            eng.run()


class TestDelay:
    def test_single_process_advances_clock(self):
        eng = Engine()
        log = []

        def proc():
            yield Delay(5.0)
            log.append(eng.now)
            yield Delay(2.5)
            log.append(eng.now)

        eng.spawn(proc())
        end = eng.run()
        assert log == [5.0, 7.5]
        assert end == 7.5

    def test_zero_delay_ok(self):
        eng = Engine()

        def proc():
            yield Delay(0.0)

        eng.spawn(proc())
        assert eng.run() == 0.0

    def test_negative_delay_rejected(self):
        eng = Engine()

        def proc():
            yield Delay(-1.0)

        eng.spawn(proc())
        with pytest.raises(SimulationError):
            eng.run()

    def test_interleaving_deterministic(self):
        order = []

        def make(eng, name, delays):
            def proc():
                for d in delays:
                    yield Delay(d)
                    order.append((eng.now, name))
            return proc

        for _ in range(3):
            order.clear()
            eng = Engine()
            eng.spawn(make(eng, "a", [1.0, 1.0])())
            eng.spawn(make(eng, "b", [1.0, 1.0])())
            eng.run()
            # same-time events resume in spawn order
            assert order == [(1.0, "a"), (1.0, "b"), (2.0, "a"), (2.0, "b")]


class TestPark:
    """A process that leaves its handle with its waker and parks."""

    def test_first_step_sees_own_handle(self):
        eng = Engine()
        seen = {}

        def proc(name):
            seen[name] = eng.starting
            yield 1.0

        a = eng.spawn(proc("a"))
        b = eng.spawn(proc("b"))
        eng.run()
        assert seen == {"a": a, "b": b}

    def test_parked_process_resumed_by_its_waker(self):
        eng = Engine()
        handles, log = [], []

        def sleeper():
            handles.append(eng.starting)
            yield PARK
            log.append(("woke", eng.now))

        def waker():
            yield 4.0
            eng._resume_none(handles[0])
            log.append(("waker", eng.now))

        eng.spawn(sleeper())
        eng.spawn(waker())
        assert eng.run() == 4.0
        # the resume runs synchronously, inside the waker's step
        assert log == [("woke", 4.0), ("waker", 4.0)]
        # spawns plus the waker's one delay: parking schedules nothing
        assert next(eng._seq) == 3

    def test_unwoken_park_is_a_deadlock(self):
        eng = Engine()

        def proc():
            yield PARK

        eng.spawn(proc(), name="parked")
        with pytest.raises(SimulationError, match="parked"):
            eng.run()


class TestSignal:
    def test_wait_then_fire(self):
        eng = Engine()
        sig = eng.new_signal("s")
        got = []

        def waiter():
            value = yield sig
            got.append((eng.now, value))

        def firer():
            yield Delay(3.0)
            sig.fire("hello")

        eng.spawn(waiter())
        eng.spawn(firer())
        eng.run()
        assert got == [(3.0, "hello")]

    def test_wait_on_fired_signal_immediate(self):
        eng = Engine()
        sig = eng.new_signal()
        sig.fire(42)

        got = []

        def waiter():
            value = yield sig
            got.append(value)

        eng.spawn(waiter())
        eng.run()
        assert got == [42]

    def test_fire_idempotent(self):
        eng = Engine()
        sig = eng.new_signal()
        sig.fire(1)
        sig.fire(2)
        assert sig.value == 1

    def test_fire_at(self):
        eng = Engine()
        sig = eng.new_signal()
        got = []

        def waiter():
            yield sig
            got.append(eng.now)

        sig.fire_at(7.0)
        eng.spawn(waiter())
        eng.run()
        assert got == [7.0]

    def test_multiple_waiters_all_wake(self):
        eng = Engine()
        sig = eng.new_signal()
        got = []

        def waiter(i):
            yield sig
            got.append(i)

        for i in range(3):
            eng.spawn(waiter(i))

        def firer():
            yield Delay(1.0)
            sig.fire()

        eng.spawn(firer())
        eng.run()
        assert sorted(got) == [0, 1, 2]


class TestAllOf:
    def test_barrier_waits_for_all(self):
        eng = Engine()
        s1, s2 = eng.new_signal(), eng.new_signal()
        got = []

        def waiter():
            values = yield AllOf([s1, s2])
            got.append((eng.now, values))

        def firer():
            yield Delay(1.0)
            s1.fire("a")
            yield Delay(2.0)
            s2.fire("b")

        eng.spawn(waiter())
        eng.spawn(firer())
        eng.run()
        assert got == [(3.0, ["a", "b"])]

    def test_empty_barrier(self):
        eng = Engine()
        done = []

        def waiter():
            yield AllOf([])
            done.append(True)

        eng.spawn(waiter())
        eng.run()
        assert done == [True]

    def test_all_prefired(self):
        eng = Engine()
        s = eng.new_signal()
        s.fire(9)
        got = []

        def waiter():
            values = yield AllOf([s, s])
            got.append(values)

        eng.spawn(waiter())
        eng.run()
        assert got == [[9, 9]]


class TestErrors:
    def test_deadlock_detected(self):
        eng = Engine()
        sig = eng.new_signal("never")

        def stuck():
            yield sig

        eng.spawn(stuck(), name="stuck-proc")
        with pytest.raises(SimulationError, match="deadlock"):
            eng.run()

    def test_bad_yield_rejected(self):
        eng = Engine()

        def bad():
            yield 42

        eng.spawn(bad())
        with pytest.raises(SimulationError, match="unsupported"):
            eng.run()

    def test_schedule_in_past_rejected(self):
        eng = Engine()

        def proc():
            yield Delay(10.0)
            eng.call_at(5.0, lambda: None)

        eng.spawn(proc())
        with pytest.raises(SimulationError, match="past"):
            eng.run()

    def test_run_until(self):
        eng = Engine()

        def proc():
            for _ in range(10):
                yield Delay(1.0)

        eng.spawn(proc())
        assert eng.run(until_us=4.5) == 4.5
        assert eng.unfinished == 1
        assert eng.run() == 10.0
        assert eng.unfinished == 0

    def test_process_result(self):
        eng = Engine()

        def proc():
            yield Delay(1.0)
            return "done"

        p = eng.spawn(proc())
        eng.run()
        assert p.done
        assert p.result == "done"


class TestEngineEdgeCases:
    def test_run_until_early_stop(self):
        eng = Engine()

        def proc():
            for _ in range(10):
                yield Delay(1.0)

        eng.spawn(proc())
        assert eng.run(until_us=4.5) == 4.5
        assert eng.unfinished == 1
        assert eng.run() == 10.0
        assert eng.unfinished == 0

    def test_run_until_exact_event_time_includes_event(self):
        eng = Engine()
        seen = []

        def proc():
            yield Delay(2.0)
            seen.append(eng.now)
            yield Delay(2.0)
            seen.append(eng.now)

        eng.spawn(proc())
        # events exactly at until_us are processed (only later ones wait)
        assert eng.run(until_us=2.0) == 2.0
        assert seen == [2.0]
        eng.run()
        assert seen == [2.0, 4.0]

    def test_spawn_while_paused_preserves_order(self):
        """Events scheduled during an until_us pause run in time order
        when the engine resumes."""

        eng = Engine()
        log = []

        def late():
            yield Delay(100.0)
            log.append(("late", eng.now))

        def early():
            yield Delay(1.0)
            log.append(("early", eng.now))

        eng.spawn(late())
        eng.run(until_us=50.0)
        eng.spawn(early())  # fires at 51.0, far before the pending 100.0
        eng.run()
        assert log == [("early", 51.0), ("late", 100.0)]

    def test_empty_allof_resumes(self):
        eng = Engine()
        got = []

        def proc():
            values = yield AllOf([])
            got.append(values)

        eng.spawn(proc())
        eng.run()
        assert got == [[]]

    def test_negative_delay_rejected(self):
        eng = Engine()

        def proc():
            yield Delay(-0.5)

        eng.spawn(proc())
        with pytest.raises(SimulationError, match="negative delay"):
            eng.run()

    def test_negative_float_delay_rejected(self):
        """The allocation-free bare-float yield validates like Delay."""

        eng = Engine()

        def proc():
            yield -1.0

        eng.spawn(proc())
        with pytest.raises(SimulationError, match="negative delay"):
            eng.run()

    def test_bare_float_yield_is_a_delay(self):
        eng = Engine()
        log = []

        def proc():
            yield 2.5
            log.append(eng.now)
            yield 0.0
            log.append(eng.now)

        eng.spawn(proc())
        assert eng.run() == 2.5
        assert log == [2.5, 2.5]

    def test_schedule_in_past_rejected(self):
        eng = Engine()

        def proc():
            yield Delay(10.0)
            eng.call_at(5.0, lambda: None)

        eng.spawn(proc())
        with pytest.raises(SimulationError, match="past"):
            eng.run()

    def test_deadlock_message_names_blocked_processes(self):
        eng = Engine()
        sig = eng.new_signal("never")

        def stuck():
            yield sig

        eng.spawn(stuck(), name="rank7")
        with pytest.raises(SimulationError, match="deadlock.*rank7"):
            eng.run()

    def test_deadlock_message_truncates_after_eight(self):
        eng = Engine()
        sig = eng.new_signal("never")

        def stuck():
            yield sig

        for i in range(10):
            eng.spawn(stuck(), name=f"p{i}")
        with pytest.raises(SimulationError) as err:
            eng.run()
        message = str(err.value)
        assert "10 process(es)" in message
        assert "p7" in message and "p8" not in message
        assert message.endswith("...")

    def test_far_future_events_served_in_order(self):
        """Sparse timelines stay ordered."""

        eng = Engine()
        log = []

        def sleeper(name, t):
            yield Delay(t)
            log.append((eng.now, name))

        # far apart, scheduled out of order
        eng.spawn(sleeper("c", 1e7))
        eng.spawn(sleeper("a", 5.0))
        eng.spawn(sleeper("b", 1e5))
        eng.run()
        assert log == [(5.0, "a"), (1e5, "b"), (1e7, "c")]


class TestSignalRecycling:
    def test_recycle_unfired_signal_is_refused(self):
        """Recycling an unfired signal must NOT put it in the pool — a
        fresh new_signal() would otherwise alias a signal some process
        still waits on."""

        eng = Engine()
        sig = eng.new_signal("pending")
        eng.recycle_signal(sig)
        assert eng.new_signal("fresh") is not sig

    def test_recycle_signal_with_waiters_is_refused(self):
        eng = Engine()
        sig = eng.new_signal("watched")
        sig.add_callback(lambda v: None)
        # fire() resumes current waiters, but a callback added *after*
        # the fire keeps the signal alive until it drains
        sig.fired = True
        sig._waiters.append(lambda v: None)
        eng.recycle_signal(sig)
        assert eng.new_signal("fresh") is not sig

    def test_recycle_fired_drained_signal_is_reused(self):
        eng = Engine()
        sig = eng.new_signal("done")
        sig.fire(42)
        eng.recycle_signal(sig)
        reused = eng.new_signal("fresh")
        assert reused is sig
        assert reused.fired is False and reused.value is None


class TestBarrierOrdering:
    """Regression tests for the closure-free _await_all (empty and
    pre-fired barriers must resume through the queue in insertion
    order, exactly like waiters on fired signals)."""

    def test_empty_barriers_resume_in_insertion_order(self):
        eng = Engine()
        order = []

        def proc(name):
            yield AllOf([])
            order.append(name)

        for name in ("a", "b", "c"):
            eng.spawn(proc(name))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_prefired_barriers_resume_in_insertion_order(self):
        eng = Engine()
        sig = eng.new_signal()
        sig.fire("v")
        order = []

        def barrier_proc(name):
            values = yield AllOf([sig, sig])
            order.append((name, values))

        def signal_proc(name):
            value = yield sig
            order.append((name, value))

        eng.spawn(barrier_proc("bar1"))
        eng.spawn(signal_proc("sig1"))
        eng.spawn(barrier_proc("bar2"))
        eng.run()
        assert order == [
            ("bar1", ["v", "v"]),
            ("sig1", "v"),
            ("bar2", ["v", "v"]),
        ]

    def test_mixed_fired_and_pending_barrier(self):
        eng = Engine()
        fired = eng.new_signal()
        fired.fire(1)
        pending = eng.new_signal()
        got = []

        def waiter():
            values = yield AllOf([fired, pending, fired])
            got.append((eng.now, values))

        def firer():
            yield Delay(4.0)
            pending.fire(2)

        eng.spawn(waiter())
        eng.spawn(firer())
        eng.run()
        assert got == [(4.0, [1, 2, 1])]

    def test_duplicate_pending_signal_counts_each_wait(self):
        eng = Engine()
        sig = eng.new_signal()
        got = []

        def waiter():
            values = yield AllOf([sig, sig])
            got.append(values)

        def firer():
            yield Delay(1.0)
            sig.fire("x")

        eng.spawn(waiter())
        eng.spawn(firer())
        eng.run()
        assert got == [["x", "x"]]
