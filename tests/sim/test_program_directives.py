"""Compiled managed-run directives (the PR 5 fast path).

``compile_trace(directives=...)`` / ``CompiledTrace.with_directives``
resolve each rank's per-call :class:`RankDirective` lookups at compile
time into dedicated opcodes, fusing PPA overheads into adjacent delays
where semantics allow.  These tests pin the weave rules, the driver/
interpreter equivalence on the managed path, the guard rails around
sharing specialised program sets, and the zero-spawn invariant.
"""

import pytest

from repro.constants import EAGER_THRESHOLD_BYTES
from repro.sim import ReplayConfig, compile_trace, replay_baseline, replay_managed
from repro.sim.mpi import RankDirective
from repro.sim.program import (
    OP_COLLECTIVE,
    OP_DELAY,
    OP_DELAY_OVH,
    OP_OVERHEAD,
    OP_OVH_DELAY,
    OP_SENDRECV,
    OP_SHUTDOWN,
)
from repro.trace.events import Collective, MPICall, PointToPoint
from repro.trace.trace import Trace
from repro.workloads import make_trace


def _two_rank_trace() -> Trace:
    """rank0: compute, sendrecv, sendrecv, collective; rank1 mirrors."""

    t = Trace.empty("weave", 2)
    for r in range(2):
        p = t[r]
        p.compute(50.0)
        p.append(PointToPoint(MPICall.SENDRECV, 1 - r, 4096, tag=0,
                              recv_peer=1 - r))
        p.append(PointToPoint(MPICall.SENDRECV, 1 - r, 4096, tag=1,
                              recv_peer=1 - r))
        p.compute(25.0)
        p.append(Collective(MPICall.ALLREDUCE, 512))
    return t


def _directives_for(trace, per_rank):
    return [dict(per_rank) for _ in range(trace.nranks)]


class TestWeaveRules:
    def test_pre_overhead_fuses_into_preceding_delay(self):
        trace = _two_rank_trace()
        progs = compile_trace(trace).with_directives(
            _directives_for(trace, {0: RankDirective(pre_overhead_us=2.0)})
        )
        code = progs.programs[0].code
        # the leading compute burst carries call 0's pre-overhead
        assert code[0][0] == OP_DELAY_OVH
        assert code[0][1] == 50.0
        assert code[0][2] == 2.0
        assert code[1][0] == OP_SENDRECV

    def test_pre_overhead_standalone_between_calls(self):
        trace = _two_rank_trace()
        # call 1 follows call 0 directly (no compute in between)
        progs = compile_trace(trace).with_directives(
            _directives_for(trace, {1: RankDirective(pre_overhead_us=3.0)})
        )
        code = progs.programs[0].code
        assert code[0][0] == OP_DELAY  # untouched
        assert code[1][0] == OP_SENDRECV
        assert code[2] == (OP_OVERHEAD, 3.0)
        assert code[3][0] == OP_SENDRECV

    def test_post_overhead_fuses_into_following_delay(self):
        trace = _two_rank_trace()
        # call 1 is followed by the 25us compute burst
        progs = compile_trace(trace).with_directives(
            _directives_for(trace, {1: RankDirective(post_overhead_us=4.0)})
        )
        code = progs.programs[0].code
        fused = [ins for ins in code if ins[0] == OP_OVH_DELAY]
        assert fused == [(OP_OVH_DELAY, 4.0, 25.0)]

    def test_shutdown_blocks_post_fusion(self):
        trace = _two_rank_trace()
        progs = compile_trace(trace).with_directives(
            _directives_for(
                trace,
                {1: RankDirective(post_overhead_us=4.0,
                                  shutdown_timer_us=500.0)},
            )
        )
        code = progs.programs[0].code
        # the turn-off instruction must execute at the post-overhead's
        # exit time, so the overhead may not fuse forward past it
        assert (OP_OVERHEAD, 4.0) in code
        assert (OP_SHUTDOWN, 500.0, 0.0) in code
        i_ovh = code.index((OP_OVERHEAD, 4.0))
        assert code[i_ovh + 1] == (OP_SHUTDOWN, 500.0, 0.0)
        assert code[i_ovh + 2][0] == OP_DELAY  # burst stays unfused

    def test_shutdown_delay_compiled_in(self):
        trace = _two_rank_trace()
        progs = compile_trace(trace).with_directives(
            _directives_for(
                trace,
                {2: RankDirective(shutdown_timer_us=800.0,
                                  shutdown_delay_us=60.0)},
            )
        )
        assert (OP_SHUTDOWN, 800.0, 60.0) in progs.programs[0].code

    def test_overheads_coerced_to_float(self):
        trace = _two_rank_trace()
        progs = compile_trace(trace).with_directives(
            _directives_for(
                trace,
                # hand-built directives may carry ints
                {1: RankDirective(pre_overhead_us=2,
                                  post_overhead_us=1)},
            )
        )
        code = progs.programs[0].code
        for ins in code:
            if ins[0] == OP_OVERHEAD:
                assert type(ins[1]) is float

    def test_comm_pairs_unchanged_by_weave(self):
        trace = make_trace("alya", 8, iterations=2, seed=7)
        base = compile_trace(trace)
        woven = base.with_directives(
            [{0: RankDirective(pre_overhead_us=1.0,
                               shutdown_timer_us=300.0)}
             for _ in range(8)]
        )
        assert woven.comm_pairs() == base.comm_pairs()

    def test_woven_sets_carry_the_base_pair_set(self):
        trace = make_trace("gromacs", 8, iterations=2, seed=7)
        base = compile_trace(trace)
        directives = [{0: RankDirective(pre_overhead_us=1.0,
                                        shutdown_timer_us=300.0)}
                      for _ in range(8)]
        assert base.comm_pair_set == base.comm_pairs()
        for woven in (base.with_directives(directives),
                      compile_trace(trace, directives)):
            assert woven.comm_pair_set == base.comm_pairs()

    def test_empty_directives_share_code(self):
        trace = _two_rank_trace()
        base = compile_trace(trace)
        woven = base.with_directives([{} for _ in range(2)])
        assert woven.managed
        for b, w in zip(base.programs, woven.programs):
            assert b.code is w.code  # nothing to weave: no copy

    def test_compile_trace_directives_parameter(self):
        trace = _two_rank_trace()
        dirs = _directives_for(trace, {0: RankDirective(pre_overhead_us=2.0)})
        assert (
            compile_trace(trace, dirs).programs[0].code
            == compile_trace(trace).with_directives(dirs).programs[0].code
        )


class TestGuards:
    def test_with_directives_rank_mismatch(self):
        trace = _two_rank_trace()
        with pytest.raises(ValueError, match="need directives for 2 ranks"):
            compile_trace(trace).with_directives([{}])

    def test_with_directives_twice_rejected(self):
        trace = _two_rank_trace()
        woven = compile_trace(trace).with_directives([{}, {}])
        with pytest.raises(ValueError, match="already directive-specialised"):
            woven.with_directives([{}, {}])

    @pytest.mark.parametrize("kernel", ["fast", "reference"])
    def test_replay_baseline_rejects_managed_programs(self, kernel):
        # both kernels reject, so the mistake cannot hide on one of them
        trace = _two_rank_trace()
        woven = compile_trace(trace).with_directives([{}, {}])
        with pytest.raises(ValueError, match="shared base"):
            replay_baseline(trace, ReplayConfig(kernel=kernel),
                            programs=woven)

    def test_run_program_without_on_shutdown_skips_turnoff(self):
        # a managed-compiled program run without a wired power
        # controller skips the turn-off like the interpreter does
        from repro.network.fabric import Fabric
        from repro.sim.engine import Engine
        from repro.sim.mpi import MPIWorld

        trace = _two_rank_trace()
        woven = compile_trace(trace).with_directives(
            _directives_for(trace, {1: RankDirective(shutdown_timer_us=400.0)})
        )
        eng = Engine()
        world = MPIWorld(eng, Fabric.for_ranks(2, random_routing=False), 2)
        for r in range(2):
            eng.spawn(world.run_program(r, woven.programs[r]), name=f"rank{r}")
        assert eng.run() > 0

    def test_event_logs_stay_hashable(self):
        trace = _two_rank_trace()
        res = replay_baseline(trace, ReplayConfig())
        assert len(set(res.event_logs[0])) == len(res.event_logs[0])

    def test_replay_managed_rejects_prewoven_programs(self):
        trace = _two_rank_trace()
        woven = compile_trace(trace).with_directives([{}, {}])
        with pytest.raises(ValueError, match="shared base"):
            replay_managed(
                trace,
                [{}, {}],
                baseline_exec_time_us=1.0,
                displacement=0.05,
                grouping_thresholds_us=[100.0, 100.0],
                programs=woven,
            )


def _managed_outcome(trace, directives, kernel):
    cfg = ReplayConfig(seed=3, kernel=kernel)
    baseline = replay_baseline(trace, cfg)
    managed = replay_managed(
        trace,
        directives,
        baseline_exec_time_us=baseline.exec_time_us,
        displacement=0.05,
        grouping_thresholds_us=[200.0] * trace.nranks,
        config=cfg,
    )
    return baseline, managed


class TestCompiledDirectiveEquivalence:
    """The compiled managed path against the dict-probing oracle."""

    @pytest.mark.parametrize("directive", [
        RankDirective(pre_overhead_us=1.5),
        RankDirective(post_overhead_us=0.5),
        RankDirective(pre_overhead_us=1.5, post_overhead_us=0.5),
        RankDirective(pre_overhead_us=1.0, post_overhead_us=0.25,
                      shutdown_timer_us=400.0),
        RankDirective(shutdown_timer_us=600.0, shutdown_delay_us=50.0),
    ])
    def test_fast_equals_reference(self, directive):
        trace = _two_rank_trace()
        directives = [{0: directive, 2: directive} for _ in range(2)]
        b_ref, m_ref = _managed_outcome(trace, directives, "reference")
        b_fast, m_fast = _managed_outcome(trace, directives, "fast")
        assert b_fast.exec_time_us == b_ref.exec_time_us
        assert m_fast.exec_time_us == m_ref.exec_time_us
        assert m_fast.event_logs == m_ref.event_logs
        assert m_fast.power == m_ref.power
        assert m_fast.counters == m_ref.counters

    def test_rendezvous_trace_equivalence(self):
        big = EAGER_THRESHOLD_BYTES + 1
        trace = Trace.empty("rdv", 2)
        for r in range(2):
            p = trace[r]
            p.compute(10.0 * (r + 1))
            p.append(PointToPoint(MPICall.IRECV, 1 - r, big, tag=0))
            p.append(PointToPoint(MPICall.ISEND, 1 - r, big, tag=0))
            p.append(PointToPoint(MPICall.WAITALL, r, 0, 0))
        directives = [
            {1: RankDirective(pre_overhead_us=0.5),
             3: RankDirective(post_overhead_us=0.25,
                              shutdown_timer_us=300.0)}
            for _ in range(2)
        ]
        b_ref, m_ref = _managed_outcome(trace, directives, "reference")
        b_fast, m_fast = _managed_outcome(trace, directives, "fast")
        assert m_fast.event_logs == m_ref.event_logs
        assert m_fast.exec_time_us == m_ref.exec_time_us


class TestZeroSpawnInvariant:
    """No helper processes anywhere in the replay layer."""

    @pytest.mark.parametrize("kernel", ["fast", "reference"])
    def test_baseline_spawn_free(self, kernel):
        trace = make_trace("alya", 8, iterations=3, seed=11)
        res = replay_baseline(trace, ReplayConfig(seed=11, kernel=kernel))
        assert res.helper_spawns == 0

    @pytest.mark.parametrize("kernel", ["fast", "reference"])
    @pytest.mark.parametrize("threshold", [0, EAGER_THRESHOLD_BYTES])
    def test_managed_spawn_free(self, kernel, threshold):
        trace = make_trace("gromacs", 8, iterations=3, seed=13)
        cfg = ReplayConfig(seed=13, kernel=kernel,
                           eager_threshold_bytes=threshold)
        baseline = replay_baseline(trace, cfg)
        managed = replay_managed(
            trace,
            [{0: RankDirective(pre_overhead_us=1.0,
                               shutdown_timer_us=400.0)}
             for _ in range(8)],
            baseline_exec_time_us=baseline.exec_time_us,
            displacement=0.05,
            grouping_thresholds_us=[300.0] * 8,
            config=cfg,
        )
        assert baseline.helper_spawns == 0
        assert managed.helper_spawns == 0

    def test_nonblocking_rendezvous_spawn_free(self):
        big = EAGER_THRESHOLD_BYTES + 1
        trace = Trace.empty("rdv", 2)
        for r in range(2):
            p = trace[r]
            p.append(PointToPoint(MPICall.IRECV, 1 - r, big, tag=0))
            p.append(PointToPoint(MPICall.ISEND, 1 - r, big, tag=0))
            p.append(PointToPoint(MPICall.WAITALL, r, 0, 0))
        for kernel in ("fast", "reference"):
            res = replay_baseline(trace, ReplayConfig(kernel=kernel))
            assert res.helper_spawns == 0
