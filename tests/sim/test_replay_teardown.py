"""A finished replay leaves no cyclic garbage.

The engine, its pooled signals and schedule closure, the worlds' pooled
rendezvous continuations and the power controllers reference one
another while a replay runs.  The composition's teardown breaks those
cycles once the engine drains, so refcounting frees a replay the moment
its caller drops it — the results keep only what they hold (event logs,
accounts).  Measured with the cycle collector disabled across the
replay: ``gc.collect()`` right after it must find nothing.
"""

import gc

import pytest

from repro.cluster import (
    ClusterJob,
    Job,
    replay_cluster_baseline,
    replay_cluster_managed,
)
from repro.core import RuntimeConfig, plan_trace_directives, select_gt
from repro.sim import ReplayConfig, fabric_for, replay_baseline, replay_managed
from repro.sim.program import compile_trace
from repro.workloads import make_trace

APP, NRANKS, SEED, DISP = "alya", 16, 1234, 0.05
FULL_POLICY = "policy:hca=gate,trunk=width:levels=3,switch=gate"


def cyclic_garbage(replay):
    """Objects the cycle collector finds right after ``replay()``."""

    gc.collect()
    gc.disable()
    try:
        result = replay()
        found = gc.collect()
    finally:
        gc.enable()
    assert result is not None
    return found


@pytest.fixture(scope="module")
def planned():
    trace = make_trace(APP, NRANKS, iterations=4, seed=SEED)
    cfg = ReplayConfig(seed=SEED)
    baseline = replay_baseline(trace, cfg)
    gt = select_gt(baseline.event_logs)
    directives, _stats = plan_trace_directives(
        baseline.event_logs, RuntimeConfig(gt_us=gt.gt_us, displacement=DISP)
    )
    return trace, baseline, gt.gt_us, directives


@pytest.mark.parametrize("kernel", ("fast", "reference"))
class TestSingleJob:
    def test_baseline(self, planned, kernel):
        trace = planned[0]
        cfg = ReplayConfig(seed=SEED, kernel=kernel)
        fabric = fabric_for(NRANKS, cfg)
        assert cyclic_garbage(
            lambda: replay_baseline(trace, cfg, fabric=fabric)
        ) == 0

    @pytest.mark.parametrize("policy", ("policy:hca=gate", FULL_POLICY))
    def test_managed(self, planned, kernel, policy):
        trace, baseline, gt_us, directives = planned
        cfg = ReplayConfig(seed=SEED, kernel=kernel, policy=policy)
        fabric = fabric_for(NRANKS, cfg)
        assert cyclic_garbage(lambda: replay_managed(
            trace,
            directives,
            baseline_exec_time_us=baseline.exec_time_us,
            displacement=DISP,
            grouping_thresholds_us=[gt_us] * NRANKS,
            config=cfg,
            fabric=fabric,
        )) == 0


@pytest.mark.parametrize("policy", ("policy:hca=gate", FULL_POLICY))
def test_two_job_cluster(planned, policy):
    """Two jobs on room for one: the second takes over the first's hosts
    (an HCA episode handoff) before the run ends."""

    trace, _baseline, gt_us, directives = planned
    programs = compile_trace(trace)
    cfg = ReplayConfig(seed=SEED, policy=policy)

    def jobs(managed):
        return [
            ClusterJob(
                job=Job(index=i, app=APP, nranks=NRANKS, arrival_us=t),
                trace=programs,
                programs=(
                    programs.with_directives(directives) if managed
                    else programs
                ),
                directives=directives if managed else None,
                grouping_thresholds_us=[gt_us] * NRANKS,
            )
            for i, t in enumerate((0.0, 1000.0))
        ]

    fabric = fabric_for(NRANKS, cfg)
    assert cyclic_garbage(lambda: replay_cluster_baseline(
        jobs(False), cfg, num_hosts=NRANKS, fabric=fabric,
    )) == 0
    assert cyclic_garbage(lambda: replay_cluster_managed(
        jobs(True), cfg, num_hosts=NRANKS, fabric=fabric,
    )) == 0
