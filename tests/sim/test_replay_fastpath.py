"""Fast-vs-reference equivalence of the fabric transfer kernel.

``ReplayConfig(kernel="fast")`` (the default) walks precompiled
flat-hop tables in ``Fabric.transfer``; ``kernel="reference"`` runs the
kept per-message route walk (``Fabric.transfer_reference``) over the
same static routes.  Everything observable — execution times, event
streams, message/byte counters, per-link utilisation and busy logs,
power reports, energy accounts — must be bit-for-bit identical between
the two, in the spirit of the ``fastscan`` fast==slow property suite.

Scope of the oracle: the kernel switch flips only the fabric transfer
implementation.  The other fast-path layers — memoised collective
schedules, signal/envelope pooling, the processless eager isend — are
shared by both kernels; they are guarded instead by the schedule-cache
and tag-rebasing unit tests, the back-to-back==fresh reuse regression
suite, the determinism property tests, and the seed behavioural suite.
"""

import os

import pytest

from repro.core import RuntimeConfig, plan_trace_directives, select_gt
from repro.sim import (
    ReplayConfig,
    fabric_for,
    fabric_usage,
    replay_baseline,
    replay_managed,
)
from repro.sim.collectives import clear_schedule_cache
from repro.trace.events import Collective, MPICall, PointToPoint
from repro.trace.trace import Trace
from repro.workloads import make_trace

ALL_COLLECTIVES = [
    MPICall.BARRIER,
    MPICall.BCAST,
    MPICall.REDUCE,
    MPICall.ALLREDUCE,
    MPICall.ALLGATHER,
    MPICall.ALLTOALL,
    MPICall.SCATTER,
    MPICall.GATHER,
    MPICall.REDUCE_SCATTER,
    MPICall.SCAN,
]


def _collective_trace(nranks: int, calls, *, instances: int = 2,
                      size: int = 2048) -> Trace:
    """Each rank: compute bursts interleaved with collective instances."""

    trace = Trace.empty("coll", nranks)
    for r in range(nranks):
        p = trace[r]
        for i in range(instances):
            p.compute(50.0 * ((r + i) % 3 + 1))
            for call in calls:
                p.append(Collective(call, size))
    return trace


def _replay_both(trace, seed: int = 7):
    """Baseline-replay a trace under both kernels on separate fabrics."""

    out = []
    for kernel in ("fast", "reference"):
        clear_schedule_cache()
        cfg = ReplayConfig(seed=seed, kernel=kernel)
        fabric = fabric_for(trace.nranks, cfg)
        result = replay_baseline(trace, cfg, fabric=fabric)
        out.append((result, fabric))
    return out


def _assert_baseline_identical(fast, reference):
    (r_fast, f_fast), (r_ref, f_ref) = fast, reference
    assert r_fast.exec_time_us == r_ref.exec_time_us
    assert r_fast.messages_sent == r_ref.messages_sent
    assert r_fast.bytes_carried == r_ref.bytes_carried
    assert r_fast.event_logs == r_ref.event_logs
    t_end = r_fast.exec_time_us
    assert fabric_usage(f_fast, t_end) == fabric_usage(f_ref, t_end)
    assert f_fast.host_link_busy_logs() == f_ref.host_link_busy_logs()
    assert f_fast.switch_traffic() == f_ref.switch_traffic()


class TestCollectiveKinds:
    @pytest.mark.parametrize("call", ALL_COLLECTIVES)
    @pytest.mark.parametrize("nranks", [4, 8])
    def test_kind_identical(self, call, nranks):
        trace = _collective_trace(nranks, [call])
        _assert_baseline_identical(*_replay_both(trace))

    def test_all_kinds_at_64_ranks(self):
        # one combined 64-rank trace keeps the suite affordable while
        # exercising every kind at scale (binomial trees 6 deep, 63-round
        # ring/pairwise schedules, non-trivial spine contention)
        trace = _collective_trace(64, ALL_COLLECTIVES, instances=1, size=512)
        _assert_baseline_identical(*_replay_both(trace))


class TestSyntheticWorkloadMatrix:
    @pytest.mark.parametrize("app", ["alya", "gromacs", "nas_mg"])
    @pytest.mark.parametrize("nranks", [8, 16])
    def test_baseline_identical(self, app, nranks):
        trace = make_trace(app, nranks, iterations=4, seed=31)
        _assert_baseline_identical(*_replay_both(trace, seed=31))

    @pytest.mark.parametrize("app", ["alya", "gromacs"])
    def test_managed_identical(self, app):
        nranks = 8
        trace = make_trace(app, nranks, iterations=5, seed=13)
        results = []
        for kernel in ("fast", "reference"):
            clear_schedule_cache()
            cfg = ReplayConfig(seed=13, kernel=kernel)
            fabric = fabric_for(nranks, cfg)
            baseline = replay_baseline(trace, cfg, fabric=fabric)
            gt = select_gt(baseline.event_logs)
            directives, stats = plan_trace_directives(
                baseline.event_logs,
                RuntimeConfig(gt_us=gt.gt_us, displacement=0.05),
            )
            managed = replay_managed(
                trace,
                directives,
                baseline_exec_time_us=baseline.exec_time_us,
                displacement=0.05,
                grouping_thresholds_us=[gt.gt_us] * nranks,
                config=cfg,
                runtime_stats=stats,
                fabric=fabric,
            )
            results.append((baseline, managed))
        (b_fast, m_fast), (b_ref, m_ref) = results
        assert b_fast.exec_time_us == b_ref.exec_time_us
        assert m_fast.exec_time_us == m_ref.exec_time_us
        assert m_fast.event_logs == m_ref.event_logs
        assert m_fast.power == m_ref.power
        assert m_fast.counters == m_ref.counters
        # full power-state timelines, interval by interval
        for acc_fast, acc_ref in zip(m_fast.accounts, m_ref.accounts):
            assert acc_fast.intervals == acc_ref.intervals
            assert acc_fast.energy() == acc_ref.energy()

    def test_mixed_p2p_and_collectives(self):
        nranks = 6
        trace = Trace.empty("mixed", nranks)
        for r in range(nranks):
            p = trace[r]
            for i in range(4):
                p.compute(25.0 * (r % 3 + 1))
                right, left = (r + 1) % nranks, (r - 1) % nranks
                p.append(PointToPoint(MPICall.IRECV, left, 4096, tag=i))
                p.append(PointToPoint(MPICall.ISEND, right, 4096, tag=i))
                p.append(PointToPoint(MPICall.WAITALL, r, 0, 0))
                p.append(PointToPoint(MPICall.SENDRECV, right, 1 << 16,
                                      tag=100 + i, recv_peer=left))
                p.append(Collective(MPICall.ALLREDUCE, 512))
        _assert_baseline_identical(*_replay_both(trace, seed=3))


class TestWorkersEquivalence:
    def test_fast_reference_identical_with_workers(self, monkeypatch):
        """REPRO_WORKERS>1 fans out the planning passes; the replay
        equivalence (and the planned directives) must be unaffected."""

        monkeypatch.setenv("REPRO_WORKERS", "2")
        nranks = 8
        trace = make_trace("alya", nranks, iterations=4, seed=21)
        managed_results = []
        for kernel in ("fast", "reference"):
            cfg = ReplayConfig(seed=21, kernel=kernel)
            fabric = fabric_for(nranks, cfg)
            baseline = replay_baseline(trace, cfg, fabric=fabric)
            gt = select_gt(baseline.event_logs)
            directives, _ = plan_trace_directives(
                baseline.event_logs,
                RuntimeConfig(gt_us=gt.gt_us, displacement=0.05),
            )
            managed_results.append(
                replay_managed(
                    trace,
                    directives,
                    baseline_exec_time_us=baseline.exec_time_us,
                    displacement=0.05,
                    grouping_thresholds_us=[gt.gt_us] * nranks,
                    config=cfg,
                    fabric=fabric,
                )
            )
        m_fast, m_ref = managed_results
        assert os.environ["REPRO_WORKERS"] == "2"
        assert m_fast.exec_time_us == m_ref.exec_time_us
        assert m_fast.event_logs == m_ref.event_logs
        assert m_fast.power == m_ref.power


class TestCompiledProgramGuard:
    def test_mismatched_programs_rejected(self):
        from repro.sim import compile_trace

        progs = compile_trace(make_trace("alya", 8, iterations=3, seed=1))
        other = make_trace("alya", 8, iterations=4, seed=1)
        with pytest.raises(ValueError, match="compiled for"):
            replay_baseline(other, ReplayConfig(seed=1), programs=progs)

    def test_same_shape_different_seed_rejected(self):
        """Two same-named traces of equal length but different seeds must
        not share compiled programs (the meta signature carries the seed)."""

        from repro.sim import compile_trace

        progs = compile_trace(make_trace("alya", 8, iterations=3, seed=1))
        other = make_trace("alya", 8, iterations=3, seed=2)
        assert not progs.matches(other)
        with pytest.raises(ValueError, match="compiled for"):
            replay_baseline(other, ReplayConfig(seed=2), programs=progs)

    def test_matching_programs_accepted_and_shared(self):
        from repro.sim import compile_trace

        trace = make_trace("alya", 8, iterations=3, seed=1)
        progs = compile_trace(trace)
        cfg = ReplayConfig(seed=1)
        a = replay_baseline(trace, cfg, programs=progs)
        b = replay_baseline(trace, cfg, programs=progs)
        assert a.exec_time_us == b.exec_time_us


class TestReplayFromPrograms:
    """The fast kernel replays a ``CompiledTrace`` alone, no ``Trace``."""

    @staticmethod
    def _inputs():
        from repro.sim import compile_trace

        trace = make_trace("alya", 8, iterations=3, seed=1)
        return trace, compile_trace(trace)

    def test_programs_alone_equal_the_trace_replay(self):
        trace, progs = self._inputs()
        cfg = ReplayConfig(seed=1)
        want = replay_baseline(trace, cfg, programs=progs)
        got = replay_baseline(progs, cfg)
        assert (got.trace_name, got.nranks) == (trace.name, trace.nranks)
        assert got.exec_time_us == want.exec_time_us
        assert got.event_logs == want.event_logs

        directives, _ = plan_trace_directives(
            want.event_logs, RuntimeConfig(gt_us=20.0, displacement=0.05)
        )
        kw = dict(
            baseline_exec_time_us=want.exec_time_us, displacement=0.05,
            grouping_thresholds_us=[20.0] * 8, config=cfg,
        )
        m_want = replay_managed(trace, directives, programs=progs, **kw)
        m_got = replay_managed(progs, directives, programs=progs, **kw)
        assert m_got.trace_name == m_want.trace_name
        assert m_got.exec_time_us == m_want.exec_time_us
        assert m_got.event_logs == m_want.event_logs
        assert m_got.power == m_want.power

    def test_reference_kernel_needs_the_trace(self):
        _trace, progs = self._inputs()
        with pytest.raises(ValueError, match="reference kernel"):
            replay_baseline(progs, ReplayConfig(seed=1, kernel="reference"))

    def test_two_different_program_sets_rejected(self):
        from repro.sim import compile_trace

        _trace, progs = self._inputs()
        other = compile_trace(make_trace("alya", 8, iterations=3, seed=1))
        with pytest.raises(ValueError, match="two program sets"):
            replay_baseline(progs, ReplayConfig(seed=1), programs=other)

    def test_woven_programs_rejected_as_source(self):
        _trace, progs = self._inputs()
        woven = progs.with_directives([{}] * progs.nranks)
        with pytest.raises(ValueError, match="directive-specialised"):
            replay_baseline(woven, ReplayConfig(seed=1))
