"""Tests for MPI replay semantics (matching, protocols, collectives)."""

import pytest

from repro.constants import EAGER_THRESHOLD_BYTES, MPI_LATENCY_US
from repro.network.fabric import Fabric
from repro.sim import dimemas
from repro.sim.dimemas import ReplayConfig, replay_baseline
from repro.sim.engine import Engine, SimulationError
from repro.sim.mpi import MPIWorld
from repro.trace.events import Collective, Compute, MPICall, PointToPoint
from repro.trace.trace import Trace
from repro.workloads import APPLICATIONS, PROCESS_COUNTS, make_trace
from tests.conftest import ring_trace


def _two_rank_world():
    eng = Engine()
    fab = Fabric.for_ranks(2, random_routing=False)
    world = MPIWorld(eng, fab, 2)
    return eng, world


def _run(trace, **kw):
    return replay_baseline(trace, ReplayConfig(**kw))


class TestPointToPoint:
    def test_eager_send_recv(self):
        t = Trace.empty("t", 2)
        t[0].append(PointToPoint(MPICall.SEND, 1, 1024, tag=7))
        t[1].append(PointToPoint(MPICall.RECV, 0, 1024, tag=7))
        res = _run(t)
        assert res.exec_time_us > MPI_LATENCY_US
        assert len(res.event_logs[0]) == 1
        assert len(res.event_logs[1]) == 1

    def test_recv_blocks_until_send(self):
        t = Trace.empty("t", 2)
        t[0].compute(100.0)
        t[0].append(PointToPoint(MPICall.SEND, 1, 64, tag=1))
        t[1].append(PointToPoint(MPICall.RECV, 0, 64, tag=1))
        res = _run(t)
        recv_ev = res.event_logs[1][0]
        assert recv_ev.enter_us == 0.0
        assert recv_ev.exit_us > 100.0

    def test_unexpected_message_queued(self):
        t = Trace.empty("t", 2)
        t[0].append(PointToPoint(MPICall.SEND, 1, 64, tag=1))
        t[1].compute(500.0)
        t[1].append(PointToPoint(MPICall.RECV, 0, 64, tag=1))
        res = _run(t)
        recv_ev = res.event_logs[1][0]
        # message already arrived: recv completes (nearly) immediately
        assert recv_ev.duration_us < 5.0

    def test_rendezvous_send_waits_for_recv(self):
        big = EAGER_THRESHOLD_BYTES + 1
        t = Trace.empty("t", 2)
        t[0].append(PointToPoint(MPICall.SEND, 1, big, tag=1))
        t[1].compute(1000.0)
        t[1].append(PointToPoint(MPICall.RECV, 0, big, tag=1))
        res = _run(t)
        send_ev = res.event_logs[0][0]
        # the sender cannot finish before the receiver posted at t=1000
        assert send_ev.exit_us > 1000.0

    def test_eager_sender_does_not_wait_for_recv(self):
        small = 512
        t = Trace.empty("t", 2)
        t[0].append(PointToPoint(MPICall.SEND, 1, small, tag=1))
        t[1].compute(1000.0)
        t[1].append(PointToPoint(MPICall.RECV, 0, small, tag=1))
        res = _run(t)
        send_ev = res.event_logs[0][0]
        assert send_ev.exit_us < 100.0

    def test_tag_matching_fifo(self):
        t = Trace.empty("t", 2)
        # two same-tag messages must arrive in order
        t[0].append(PointToPoint(MPICall.SEND, 1, 64, tag=1))
        t[0].append(PointToPoint(MPICall.SEND, 1, 2048, tag=1))
        t[1].append(PointToPoint(MPICall.RECV, 0, 64, tag=1))
        t[1].append(PointToPoint(MPICall.RECV, 0, 2048, tag=1))
        res = _run(t)
        assert len(res.event_logs[1]) == 2

    def test_sendrecv_pair(self):
        t = Trace.empty("t", 2)
        for r in range(2):
            t[r].append(
                PointToPoint(MPICall.SENDRECV, 1 - r, 4096, tag=1,
                             recv_peer=1 - r)
            )
        res = _run(t)
        assert res.exec_time_us > 0
        assert res.messages_sent == 2

    def test_isend_irecv_waitall(self):
        t = Trace.empty("t", 2)
        for r in range(2):
            t[r].append(PointToPoint(MPICall.IRECV, 1 - r, 4096, tag=3))
            t[r].append(PointToPoint(MPICall.ISEND, 1 - r, 4096, tag=3))
            t[r].append(PointToPoint(MPICall.WAITALL, r, 0, 0))
        res = _run(t)
        assert len(res.event_logs[0]) == 3

    def test_unmatched_recv_deadlocks(self):
        t = Trace.empty("t", 2)
        t[0].append(PointToPoint(MPICall.RECV, 1, 64, tag=1))
        with pytest.raises(SimulationError, match="deadlock"):
            _run(t)


class TestDeadlockReports:
    """Zero-spawn helpers must still render readably in deadlock reports.

    Rendezvous sends no longer run as named helper processes; the world
    reports in-flight continuations through the engine's
    ``blocked_reporter`` hook under the same precomputed per-rank
    ``isend<rank>`` names the spawned helpers used to carry.
    """

    @pytest.mark.parametrize("kernel", ["fast", "reference"])
    def test_stuck_rendezvous_isend_named(self, kernel):
        big = EAGER_THRESHOLD_BYTES + 1
        t = Trace.empty("t", 2)
        # rank0's rendezvous isend never gets a matching recv: the RTS
        # is never answered, so the continuation stays in flight
        t[0].append(PointToPoint(MPICall.ISEND, 1, big, tag=9))
        t[0].append(PointToPoint(MPICall.WAITALL, 0, 0, 0))
        with pytest.raises(SimulationError) as err:
            _run(t, kernel=kernel)
        msg = str(err.value)
        assert "rank0" in msg
        assert "isend0 (rendezvous in flight)" in msg

    @pytest.mark.parametrize("kernel", ["fast", "reference"])
    def test_stuck_blocking_rendezvous_send_named(self, kernel):
        big = EAGER_THRESHOLD_BYTES + 1
        t = Trace.empty("t", 2)
        t[0].append(PointToPoint(MPICall.SEND, 1, big, tag=9))
        with pytest.raises(SimulationError) as err:
            _run(t, kernel=kernel)
        # a blocking rendezvous send stalls the rank process itself —
        # no phantom helper entry is reported for it
        msg = str(err.value)
        assert "rank0" in msg
        assert "isend0" not in msg

    def test_multiple_inflight_sends_counted(self):
        big = EAGER_THRESHOLD_BYTES + 1
        t = Trace.empty("t", 2)
        t[0].append(PointToPoint(MPICall.ISEND, 1, big, tag=1))
        t[0].append(PointToPoint(MPICall.ISEND, 1, big, tag=2))
        t[0].append(PointToPoint(MPICall.WAITALL, 0, 0, 0))
        with pytest.raises(SimulationError, match=r"isend0 \(rendezvous in flight x2\)"):
            _run(t)


class TestMatchingMaps:
    """A drained ``(src, tag)`` key leaves both matching maps.

    Collective tags are new per instance, so a map that kept empty
    queues would grow by one dead key per instance and peer for the
    whole replay.  Emptied queues are recycled, so the number the world
    ever allocates is the peak of live keys: it does not grow with the
    iteration count.
    """

    @pytest.fixture
    def replayed(self, monkeypatch):
        """Replays ``app`` at its smallest size; returns its world."""

        worlds = []
        run = dimemas.Composition.run

        def keep_worlds(comp):
            worlds.extend(comp.worlds)
            return run(comp)

        monkeypatch.setattr(dimemas.Composition, "run", keep_worlds)

        def replay(app, iterations, kernel):
            trace = make_trace(app, PROCESS_COUNTS[app][0],
                               iterations=iterations, seed=1234)
            replay_baseline(trace, ReplayConfig(kernel=kernel))
            return worlds[-1]

        return replay

    @pytest.mark.parametrize("kernel", ("fast", "reference"))
    @pytest.mark.parametrize("app", APPLICATIONS)
    def test_maps_empty_after_replay(self, replayed, app, kernel):
        short = replayed(app, 2, kernel)
        longer = replayed(app, 6, kernel)
        for world in (short, longer):
            for ctx in world.ranks:
                assert ctx.posted == {} and ctx.unexpected == {}
        assert short._deques, "no drained key was recycled"
        assert len(longer._deques) == len(short._deques)


class TestCollectives:
    @pytest.mark.parametrize("call", [
        MPICall.BARRIER, MPICall.BCAST, MPICall.REDUCE, MPICall.ALLREDUCE,
        MPICall.ALLGATHER, MPICall.ALLTOALL, MPICall.SCATTER, MPICall.GATHER,
        MPICall.REDUCE_SCATTER, MPICall.SCAN,
    ])
    @pytest.mark.parametrize("nranks", [2, 5, 8])
    def test_collective_completes(self, call, nranks):
        t = Trace.empty("t", nranks)
        for r in range(nranks):
            t[r].append(Collective(call, 256))
        res = _run(t)
        assert all(len(log) == 1 for log in res.event_logs)

    def test_barrier_synchronises(self):
        t = Trace.empty("t", 4)
        delays = [0.0, 100.0, 2000.0, 50.0]
        for r in range(4):
            t[r].compute(delays[r])
            t[r].append(Collective(MPICall.BARRIER, 0))
        res = _run(t)
        exits = [log[0].exit_us for log in res.event_logs]
        # nobody exits the barrier before the slowest rank entered
        assert min(exits) >= 2000.0

    def test_sequential_collectives(self):
        t = Trace.empty("t", 4)
        for r in range(4):
            for _ in range(5):
                t[r].append(Collective(MPICall.ALLREDUCE, 64))
                t[r].compute(10.0)
        res = _run(t)
        assert all(len(log) == 5 for log in res.event_logs)

    def test_larger_payload_takes_longer(self):
        def run_with(size):
            t = Trace.empty("t", 4)
            for r in range(4):
                t[r].append(Collective(MPICall.ALLREDUCE, size))
            return _run(t).exec_time_us

        assert run_with(1 << 20) > run_with(64)


class TestReplayDeterminism:
    def test_identical_runs(self):
        t1 = ring_trace(nranks=6, iterations=4)
        t2 = ring_trace(nranks=6, iterations=4)
        r1 = _run(t1, seed=3)
        r2 = _run(t2, seed=3)
        assert r1.exec_time_us == r2.exec_time_us
        assert r1.messages_sent == r2.messages_sent

    def test_seed_changes_routing(self):
        # different random-routing seeds may change contention timing;
        # execution must stay valid either way
        t = ring_trace(nranks=6, iterations=4)
        r1 = _run(t, seed=1)
        t2 = ring_trace(nranks=6, iterations=4)
        r2 = _run(t2, seed=2)
        assert r1.exec_time_us > 0 and r2.exec_time_us > 0


class TestWorldValidation:
    def test_too_many_ranks_rejected(self):
        eng = Engine()
        fab = Fabric.for_ranks(2)
        with pytest.raises(ValueError):
            MPIWorld(eng, fab, fab.topo.num_hosts + 1)

    def test_bad_cpu_speedup(self):
        eng = Engine()
        fab = Fabric.for_ranks(2)
        with pytest.raises(ValueError):
            MPIWorld(eng, fab, 2, cpu_speedup=0.0)

    def test_cpu_speedup_scales_compute(self):
        t = Trace.empty("t", 2)
        for r in range(2):
            t[r].compute(1000.0)
            t[r].append(Collective(MPICall.BARRIER, 0))
        slow = _run(t)
        fast = _run(t, cpu_speedup=2.0)
        assert fast.exec_time_us < slow.exec_time_us
