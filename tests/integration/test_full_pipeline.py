"""Cross-module integration properties of the full pipeline.

These run the complete methodology (generate -> baseline -> GT -> PPA ->
managed replay) on small instances of every application and assert the
physical and paper-shape invariants that must hold regardless of
calibration details.
"""

import pytest

from repro.core import RuntimeConfig, plan_trace_directives, select_gt
from repro.sim import replay_baseline, replay_managed
from repro.workloads import APPLICATIONS, PROCESS_COUNTS, make_trace

ITER = 15


def pipeline(app, nranks, displacement=0.01, scaling="strong", seed=1234):
    trace = make_trace(app, nranks, iterations=ITER, seed=seed,
                       scaling=scaling)
    baseline = replay_baseline(trace)
    gt = select_gt(baseline.event_logs)
    cfg = RuntimeConfig(gt_us=gt.gt_us, displacement=displacement)
    directives, stats = plan_trace_directives(baseline.event_logs, cfg)
    managed = replay_managed(
        trace, directives,
        baseline_exec_time_us=baseline.exec_time_us,
        displacement=displacement,
        grouping_thresholds_us=[gt.gt_us] * nranks,
        runtime_stats=stats,
    )
    return baseline, gt, managed


@pytest.mark.parametrize("app", APPLICATIONS)
class TestPerAppInvariants:
    def test_physical_bounds(self, app):
        n = PROCESS_COUNTS[app][0]
        baseline, gt, managed = pipeline(app, n)
        # savings can never exceed the LOW-mode ceiling
        assert 0.0 <= managed.power_savings_pct < 57.0
        # the managed run includes overheads: never faster than baseline
        assert managed.exec_time_us >= baseline.exec_time_us
        # slowdown stays in the paper's low-percent regime
        assert managed.exec_time_increase_pct < 5.0

    def test_energy_consistency(self, app):
        """Reported savings must equal the accounts' energy integrals."""

        n = PROCESS_COUNTS[app][0]
        _, _, managed = pipeline(app, n)
        per_link = [
            100.0 * (1.0 - energy / total)
            for total, energy, _ in (
                acc.integrate() for acc in managed.accounts
            )
        ]
        mean = sum(per_link) / len(per_link)
        assert managed.power_savings_pct == pytest.approx(mean, rel=1e-9)

    def test_shutdowns_match_low_transitions(self, app):
        n = PROCESS_COUNTS[app][0]
        _, _, managed = pipeline(app, n)
        total_transitions = sum(
            acc.transitions_to_low for acc in managed.accounts
        )
        assert total_transitions == managed.total_shutdowns

    def test_event_streams_preserved(self, app):
        """The mechanism must not change *what* communicates, only when."""

        n = PROCESS_COUNTS[app][0]
        baseline, _, managed = pipeline(app, n)
        for b_log, m_log in zip(baseline.event_logs, managed.event_logs):
            assert [e.call for e in b_log] == [e.call for e in m_log]


class TestCrossAppShape:
    def test_bt_saves_most_alya_least(self):
        savings = {}
        for app in ("nas_bt", "alya", "gromacs"):
            n = PROCESS_COUNTS[app][0]
            savings[app] = pipeline(app, n)[2].power_savings_pct
        assert savings["nas_bt"] > savings["gromacs"] > savings["alya"]

    def test_strong_scaling_decreases_savings(self):
        small = pipeline("nas_bt", 9)[2].power_savings_pct
        large = pipeline("nas_bt", 36)[2].power_savings_pct
        assert large < small

    def test_weak_scaling_beats_strong_at_scale(self):
        strong = pipeline("nas_bt", 36, scaling="strong")[2]
        weak = pipeline("nas_bt", 36, scaling="weak")[2]
        assert weak.power_savings_pct > strong.power_savings_pct

    def test_seed_robustness(self):
        """Different seeds shift numbers but not the qualitative outcome."""

        a = pipeline("alya", 8, seed=1)[2].power_savings_pct
        b = pipeline("alya", 8, seed=99)[2].power_savings_pct
        assert a > 5.0 and b > 5.0
        assert abs(a - b) < 10.0
