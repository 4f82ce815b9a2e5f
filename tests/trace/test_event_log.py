"""The columnar MPI event log: three flat columns per rank.

``EventLog`` replaces the per-call ``MPIEvent`` list the replay used to
build.  It must still behave as that list did for every reader
(length, indexing, slices, iteration, ``==``, pickling), and every
pipeline consumer that now reads its columns must give exactly what the
per-event reading gave.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import (
    RuntimeConfig,
    plan_trace_directives_shared,
    select_gt,
)
from repro.core.fastscan import RankScan
from repro.sim import replay_baseline
from repro.trace.events import EventLog, MPICall, MPIEvent, idle_gaps
from repro.workloads import make_trace
from tests.conftest import alya_like_stream


@pytest.fixture(scope="module")
def baseline():
    return replay_baseline(make_trace("alya", 8, iterations=8, seed=5))


def _events():
    return [
        MPIEvent(MPICall.SENDRECV, 0.0, 3.0),
        MPIEvent(MPICall.SENDRECV, 3.5, 4.0),
        MPIEvent(MPICall.ALLREDUCE, 4.0, 9.25),
        MPIEvent(MPICall.BARRIER, 120.0, 120.0),
    ]


class TestSequenceProtocol:
    def test_round_trip(self):
        events = _events()
        log = EventLog.of(events)
        assert len(log) == 4
        assert list(log) == events
        assert all(type(ev.call) is MPICall for ev in log)

    def test_of_a_log_is_that_log(self):
        log = EventLog.of(_events())
        assert EventLog.of(log) is log

    def test_indexing(self):
        events = _events()
        log = EventLog.of(events)
        assert log[0] == events[0]
        assert log[-1] == events[-1]
        assert log[2].call is MPICall.ALLREDUCE
        with pytest.raises(IndexError):
            log[4]

    def test_slices(self):
        events = _events()
        log = EventLog.of(events)
        assert isinstance(log[1:], EventLog)
        assert log[1:] == events[1:]
        assert log[:-1] == events[:-1]
        assert log[::2] == events[::2]
        assert len(log[4:]) == 0

    def test_equality(self):
        events = _events()
        log = EventLog.of(events)
        assert log == EventLog.of(list(events))
        assert log == events and events == log
        assert log != events[:-1]
        assert log != EventLog.of(events[:-1])
        shifted = events[:-1] + [MPIEvent(MPICall.BARRIER, 120.0, 121.0)]
        assert log != shifted
        assert log != EventLog.of(shifted)
        assert EventLog() == []

    def test_pickle_round_trip(self, baseline):
        for log in baseline.event_logs:
            again = pickle.loads(pickle.dumps(log))
            assert type(again) is EventLog
            assert again == log
            assert again.calls.typecode == "B"
            assert again.enter_us.typecode == again.exit_us.typecode == "d"

    def test_exit_before_enter_rejected_at_append(self):
        log = EventLog()
        log.append(MPICall.SEND, 1.0, 1.0)
        with pytest.raises(ValueError, match="exits before it enters"):
            log.append(MPICall.SEND, 5.0, 4.0)
        assert len(log) == 1  # nothing of the bad call was kept
        with pytest.raises(ValueError, match="exits before it enters"):
            MPIEvent(MPICall.SEND, 5.0, 4.0)

    def test_codes_outside_the_registry_round_trip(self):
        events = [MPIEvent(99, 0.0, 1.0), MPIEvent(MPICall.SEND, 2.0, 3.0)]
        assert list(EventLog.of(events)) == events


class TestConsumersReadTheColumns:
    def test_rank_scan_equals_the_per_event_arrays(self, baseline):
        for log in baseline.event_logs:
            events = list(log)
            scan = RankScan.from_events(log)
            n = len(events)
            calls = np.fromiter((int(e.call) for e in events), np.int64, n)
            enter = np.fromiter((e.enter_us for e in events), np.float64, n)
            exit_ = np.fromiter((e.exit_us for e in events), np.float64, n)
            assert scan.calls.dtype == np.int64
            assert np.array_equal(scan.calls, calls)
            assert np.array_equal(scan.enter_us, enter)
            assert np.array_equal(scan.exit_us, exit_)
            assert np.array_equal(scan.gaps_us, enter[1:] - exit_[:-1])
            assert np.array_equal(
                RankScan.from_events(events).gaps_us, scan.gaps_us
            )

    def test_idle_gaps_equal_the_pairwise_formula(self, baseline):
        for log in baseline.event_logs:
            events = list(log)
            want = [
                max(0.0, nxt.enter_us - prev.exit_us)
                for prev, nxt in zip(events, events[1:])
            ]
            assert idle_gaps(log) == want
            assert idle_gaps(events) == want

    def test_planning_pass_on_a_log_equals_the_event_list(self, baseline):
        logs = baseline.event_logs
        cfg = RuntimeConfig(gt_us=select_gt(logs).gt_us, displacement=0.05)
        on_logs = plan_trace_directives_shared(logs, cfg, workers=1)
        on_lists = plan_trace_directives_shared(
            [list(log) for log in logs], cfg, workers=1
        )
        assert on_logs == on_lists
        for a, b in zip(on_logs.ranks, on_lists.ranks):
            assert a.directives == b.directives
            assert a.candidates == b.candidates
            assert a.stats == b.stats
        assert sum(len(r.candidates) for r in on_logs.ranks) > 0

    def test_paper_stream_plans_on_its_log(self):
        events = alya_like_stream(12)
        cfg = RuntimeConfig(gt_us=20.0, displacement=0.01)
        got = plan_trace_directives_shared([EventLog.of(events)], cfg)
        want = plan_trace_directives_shared([events], cfg)
        assert got == want
        assert got.ranks[0].stats.declarations == 1
