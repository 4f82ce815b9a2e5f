"""Property tests for the shared (displacement-independent) planning
pass: rebinding a displacement must be bit-for-bit equal to a dedicated
per-displacement runtime pass, all the way through the managed replay."""

from __future__ import annotations

import dataclasses

import pytest

from repro.constants import DISPLACEMENT_FACTORS
from repro.core import (
    PMPIRuntime,
    RuntimeConfig,
    plan_trace_directives,
    plan_trace_directives_shared,
)
from repro.experiments.common import clear_cache, run_cell
from repro.power.states import WRPSParams
from repro.sim import ReplayConfig, replay_baseline, replay_managed
from repro.sim.mpi import RankDirective
from tests.conftest import alya_like_stream, ring_trace
from tests.core.test_fastscan import random_stream

DISPLACEMENTS = (0.10, 0.05, 0.01, 0.0)


def _logs():
    return [
        alya_like_stream(10),
        alya_like_stream(16),
        random_stream(21),
        random_stream(22),
    ]


class TestRebindEquivalence:
    @pytest.mark.parametrize("charge", [True, False])
    def test_directives_and_stats_match_slow_path(self, charge):
        logs = _logs()
        plan = plan_trace_directives_shared(
            logs, RuntimeConfig(gt_us=20.0, charge_overheads=charge)
        )
        for disp in DISPLACEMENTS:
            cfg = RuntimeConfig(
                gt_us=20.0, displacement=disp, charge_overheads=charge
            )
            slow_directives, slow_stats = plan_trace_directives(logs, cfg)
            fast_directives, fast_stats = plan.rebind_displacement(disp)
            assert fast_directives == slow_directives
            assert fast_stats == slow_stats

    def test_rebind_rejects_invalid_displacement(self):
        plan = plan_trace_directives_shared(
            [alya_like_stream(4)], RuntimeConfig(gt_us=20.0)
        )
        for bad in (-0.1, 1.0, 2.0):
            with pytest.raises(ValueError):
                plan.rebind_displacement(bad)

    def test_workers_produce_identical_plan(self, monkeypatch):
        logs = _logs()
        cfg = RuntimeConfig(gt_us=20.0)
        baseline = plan_trace_directives_shared(logs, cfg)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        parallel = plan_trace_directives_shared(logs, cfg)
        for disp in DISPLACEMENTS:
            assert parallel.rebind_displacement(
                disp
            ) == baseline.rebind_displacement(disp)

    def test_plan_trace_directives_workers_identical(self):
        logs = _logs()
        cfg = RuntimeConfig(gt_us=20.0, displacement=0.05)
        assert plan_trace_directives(
            logs, cfg, workers=2
        ) == plan_trace_directives(logs, cfg)


class TestCopyOnWriteRebind:
    @staticmethod
    def _plan():
        return plan_trace_directives_shared(_logs(), RuntimeConfig(gt_us=20.0))

    def test_later_rebind_equals_a_fresh_plans_rebind(self):
        plan = self._plan()
        for first, second in ((0.10, 0.01), (0.0, 0.05), (0.05, 0.05)):
            plan.rebind_displacement(first)
            assert plan.rebind_displacement(
                second
            ) == self._plan().rebind_displacement(second)

    def test_only_timed_entries_are_fresh(self):
        plan = self._plan()
        directives, _ = plan.rebind_displacement(0.05)
        shared = fresh = 0
        for rank_plan, rank_dirs in zip(plan.ranks, directives):
            assert rank_dirs is not rank_plan.directives
            for index, d in rank_dirs.items():
                if d.shutdown_timer_us is None:
                    assert d is rank_plan.directives[index]
                    shared += 1
                else:
                    assert d is not rank_plan.directives.get(index)
                    fresh += 1
        assert shared and fresh
        # the plan itself never gains a timer
        assert all(
            d.shutdown_timer_us is None
            for rank_plan in plan.ranks
            for d in rank_plan.directives.values()
        )

    def test_a_rebind_result_cannot_change_the_plan(self):
        plan = self._plan()
        want = self._plan().rebind_displacement(0.05)
        directives, _ = plan.rebind_displacement(0.05)
        rank0 = list(directives[0].values())
        untimed = next(d for d in rank0 if d.shutdown_timer_us is None)
        timed = next(d for d in rank0 if d.shutdown_timer_us is not None)
        for d in (untimed, timed):
            with pytest.raises(dataclasses.FrozenInstanceError):
                d.shutdown_timer_us = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                d.pre_overhead_us += 1.0
        # the per-rank maps are the caller's own
        directives[0].clear()
        directives[1][0] = RankDirective(shutdown_timer_us=1.0)
        assert plan.rebind_displacement(0.05) == want


class TestManagedReplayEquivalence:
    def test_rebound_plan_reproduces_managed_results(self):
        trace = ring_trace(nranks=4, iterations=10)
        baseline = replay_baseline(trace, ReplayConfig(seed=3))
        gt_us = 20.0
        params = WRPSParams.paper()
        plan = plan_trace_directives_shared(
            baseline.event_logs, RuntimeConfig(gt_us=gt_us, wrps=params)
        )
        for disp in (0.10, 0.01):
            cfg = RuntimeConfig(gt_us=gt_us, displacement=disp, wrps=params)
            slow_dirs, slow_stats = plan_trace_directives(
                baseline.event_logs, cfg
            )
            fast_dirs, fast_stats = plan.rebind_displacement(disp)

            def replay(directives, stats):
                return replay_managed(
                    trace,
                    directives,
                    baseline_exec_time_us=baseline.exec_time_us,
                    displacement=disp,
                    grouping_thresholds_us=[gt_us] * trace.nranks,
                    config=ReplayConfig(seed=3),
                    wrps=params,
                    runtime_stats=stats,
                )

            slow = replay(slow_dirs, slow_stats)
            fast = replay(fast_dirs, fast_stats)
            assert fast.exec_time_us == slow.exec_time_us
            assert fast.power_savings_pct == slow.power_savings_pct
            assert fast.exec_time_increase_pct == slow.exec_time_increase_pct
            assert fast.total_shutdowns == slow.total_shutdowns
            assert fast.total_mispredictions == slow.total_mispredictions
            assert fast.counters == slow.counters
            assert fast.runtime_stats == slow.runtime_stats


class TestSinglePlanningPass:
    def test_run_cell_plans_once_for_all_displacements(self, monkeypatch):
        clear_cache()
        nranks = 4
        passes = []
        original = PMPIRuntime.process_stream

        def counting_process_stream(self, events):
            passes.append(1)
            return original(self, events)

        monkeypatch.setattr(
            PMPIRuntime, "process_stream", counting_process_stream
        )
        cell = run_cell(
            "alya",
            nranks,
            displacements=DISPLACEMENT_FACTORS,
            iterations=6,
            seed=77,
            use_cache=False,
        )
        assert len(cell.managed) == len(DISPLACEMENT_FACTORS)
        # exactly one software-side pass per rank, shared by all three
        # displacement factors (the GT sweep runs on fastscan, not here)
        assert len(passes) == nranks
        for disp in DISPLACEMENT_FACTORS:
            stats = cell.managed[disp].runtime_stats
            assert all(s.planning_passes == 1 for s in stats)

    def test_wrps_variants_do_not_share_cached_plans(self):
        """Cells are keyed on the full WRPSParams: a t_deact change must
        not rebind a stale plan filtered with the old deactivation cost."""

        clear_cache()
        quick = WRPSParams(t_deact_us=10.0)
        # deactivation longer than any plausible timer: every shutdown
        # gets filtered, unlike with the quick WRPS
        slow_deact = WRPSParams(t_deact_us=1e6)
        cell_a = run_cell(
            "alya", 4, displacements=(0.01,), iterations=6, seed=79,
            wrps=slow_deact,
        )
        cell_b = run_cell(
            "alya", 4, displacements=(0.01,), iterations=6, seed=79,
            wrps=quick,
        )
        assert cell_a is not cell_b
        # the huge t_deact filters out (alya-like ~500us idle) timers
        # that the quick WRPS keeps
        a = sum(s.shutdowns_planned for s in cell_a.runtime_stats)
        b = sum(s.shutdowns_planned for s in cell_b.runtime_stats)
        assert a < b

    def test_cell_exposes_sweep_and_plan(self):
        clear_cache()
        cell = run_cell(
            "alya", 4, displacements=(0.01,), iterations=6, seed=78,
            use_cache=False,
        )
        assert cell.gt_sweep, "GT selection must store the full sweep"
        assert cell.plan is not None
        assert any(p.gt_us == cell.gt_us for p in cell.gt_sweep)
