"""Integration tests for the managed replay (power mechanism end to end)."""

import pytest

from repro.core import RuntimeConfig, plan_trace_directives, select_gt
from repro.power.states import WRPSParams
from repro.sim import ReplayConfig, replay_baseline, replay_managed
from repro.sim.mpi import RankDirective
from repro.workloads import WorkloadSpec
from repro.workloads.synthetic import ring_sweep


@pytest.fixture(scope="module")
def pipeline():
    trace = ring_sweep(WorkloadSpec(nranks=6, iterations=25, seed=2))
    baseline = replay_baseline(trace)
    gt = select_gt(baseline.event_logs)
    cfg = RuntimeConfig(gt_us=gt.gt_us, displacement=0.05)
    directives, stats = plan_trace_directives(baseline.event_logs, cfg)
    managed = replay_managed(
        trace, directives,
        baseline_exec_time_us=baseline.exec_time_us,
        displacement=0.05,
        grouping_thresholds_us=[gt.gt_us] * 6,
        runtime_stats=stats,
    )
    return trace, baseline, gt, managed


class TestManagedOutcome:
    def test_savings_positive_and_bounded(self, pipeline):
        _, _, _, managed = pipeline
        assert 0.0 < managed.power_savings_pct < 57.0

    def test_slowdown_small(self, pipeline):
        _, _, _, managed = pipeline
        assert -0.5 < managed.exec_time_increase_pct < 5.0

    def test_shutdowns_executed(self, pipeline):
        _, _, _, managed = pipeline
        assert managed.total_shutdowns > 0

    def test_accounts_cover_wall_time(self, pipeline):
        _, _, _, managed = pipeline
        for acc in managed.accounts:
            assert acc.total_us == pytest.approx(managed.exec_time_us)

    def test_event_counts_match_baseline(self, pipeline):
        _, baseline, _, managed = pipeline
        for b, m in zip(baseline.event_logs, managed.event_logs):
            assert len(b) == len(m)

    def test_managed_time_not_faster_than_baseline(self, pipeline):
        _, baseline, _, managed = pipeline
        # overheads are injected; the managed run can never be faster
        assert managed.exec_time_us >= baseline.exec_time_us


class TestValidation:
    def test_directive_count_mismatch(self, pipeline):
        trace, baseline, gt, _ = pipeline
        with pytest.raises(ValueError):
            replay_managed(
                trace, [{}],
                baseline_exec_time_us=baseline.exec_time_us,
                displacement=0.05,
                grouping_thresholds_us=[gt.gt_us],
            )

    def test_empty_directives_equal_baseline_timing(self):
        trace = ring_sweep(WorkloadSpec(nranks=4, iterations=5, seed=3))
        baseline = replay_baseline(trace)
        managed = replay_managed(
            trace, [{} for _ in range(4)],
            baseline_exec_time_us=baseline.exec_time_us,
            displacement=0.05,
            grouping_thresholds_us=[20.0] * 4,
        )
        assert managed.exec_time_us == pytest.approx(baseline.exec_time_us)
        assert managed.power_savings_pct == pytest.approx(0.0)


class TestDisplacementOrdering:
    def test_smaller_displacement_saves_more(self):
        trace = ring_sweep(WorkloadSpec(nranks=6, iterations=25, seed=4))
        baseline = replay_baseline(trace)
        gt = select_gt(baseline.event_logs)
        savings = {}
        for disp in (0.01, 0.10, 0.30):
            cfg = RuntimeConfig(gt_us=gt.gt_us, displacement=disp)
            directives, stats = plan_trace_directives(baseline.event_logs, cfg)
            m = replay_managed(
                trace, directives,
                baseline_exec_time_us=baseline.exec_time_us,
                displacement=disp,
                grouping_thresholds_us=[gt.gt_us] * 6,
            )
            savings[disp] = m.power_savings_pct
        assert savings[0.01] > savings[0.10] > savings[0.30]


class TestMispredictionPenalty:
    def test_early_arrival_pays_reactivation(self):
        """A deliberately oversized timer forces an emergency wake-up."""

        trace = ring_sweep(WorkloadSpec(nranks=4, iterations=6, seed=5,
                                        jitter_sigma=0.0))
        baseline = replay_baseline(trace)
        nevents = len(baseline.event_logs[0])
        # attach a huge-timer shutdown to every rank's first call
        directives = [
            {0: RankDirective(shutdown_timer_us=10_000_000.0)}
            for _ in range(4)
        ]
        managed = replay_managed(
            trace, directives,
            baseline_exec_time_us=baseline.exec_time_us,
            displacement=0.0,
            grouping_thresholds_us=[20.0] * 4,
        )
        assert managed.total_mispredictions > 0
        assert managed.total_penalty_us > 0
        assert managed.exec_time_us > baseline.exec_time_us


class TestDeepSleepParams:
    def test_longer_react_larger_penalty_risk(self):
        trace = ring_sweep(WorkloadSpec(nranks=4, iterations=20, seed=6))
        baseline = replay_baseline(trace)
        gt = select_gt(baseline.event_logs)

        def run(params):
            cfg = RuntimeConfig(gt_us=max(gt.gt_us,
                                          2 * params.t_react_us + 1),
                                displacement=0.05, wrps=params)
            directives, _ = plan_trace_directives(baseline.event_logs, cfg)
            return replay_managed(
                trace, directives,
                baseline_exec_time_us=baseline.exec_time_us,
                displacement=0.05,
                grouping_thresholds_us=[cfg.gt_us] * 4,
                wrps=params,
            )

        paper = run(WRPSParams.paper())
        # a (milder) deep-sleep variant: reactivation 10x longer
        deep = run(WRPSParams(t_react_us=100.0, t_deact_us=100.0,
                              low_power_fraction=0.2))
        # deeper sleep saves more per LOW microsecond but finds fewer
        # exploitable windows; both must stay within physical bounds
        assert 0.0 <= deep.power_savings_pct <= 80.0
        assert deep.total_shutdowns <= paper.total_shutdowns
