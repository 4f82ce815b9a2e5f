"""Differential matrix under fault injection.

Faults are applied lazily at the simulation clock by the fabric's
faulted transfer kernels — the compiled one (routes cached per fault
epoch) on the fast kernel, the live per-message walk on the reference
kernel.  Both must observe the *same* fault timeline and produce
bit-for-bit identical results: execution times, event logs, counters,
busy logs, and the fault summaries themselves.  Partitions must also be
deterministic: when no surviving route exists, every kernel raises :class:`FabricPartitioned` at the same
simulated instant with the same blocked-rank report, within bounded
simulated time (no wall-clock hang).
"""

import pytest

from repro.core import RuntimeConfig, plan_trace_directives, select_gt
from repro.sim import (
    FabricPartitioned,
    ReplayConfig,
    fabric_for,
    fabric_usage,
    replay_baseline,
    replay_managed,
)
from repro.sim.collectives import clear_schedule_cache
from repro.workloads import make_trace

pytestmark = pytest.mark.differential

#: the oracle first; every other kernel is compared against it
KERNELS = ("reference", "fast")

#: a rich degraded-fabric scenario whose horizon fits the short test
#: replays (the default 20ms horizon would outlive them untouched)
FAULTS = (
    "faults:seed=7,link_fail=0.2,flap=0.25,degrade=0.25,"
    "wake_timeout=0.3,horizon_us=2000"
)
#: every link (HCAs included) fails inside the first 50us: guaranteed
#: partition, used to pin partition determinism across combos
PARTITION_FAULTS = "faults:seed=5,link_fail=1.0,hca=1,horizon_us=50"

#: the fitted paper fat tree plus one instance per other family
TOPOLOGIES = (
    "fitted",
    "torus:k=3,n=2",
    "dragonfly:a=2,p=2,h=1",
    "fattree2:leaf=4,ratio=2",
)


def _faulted_baseline(trace, cfg):
    clear_schedule_cache()
    fabric = fabric_for(trace.nranks, cfg)
    result = replay_baseline(trace, cfg, fabric=fabric)
    return {
        "exec_time_us": result.exec_time_us,
        "event_logs": result.event_logs,
        "messages_sent": result.messages_sent,
        "bytes_carried": result.bytes_carried,
        "usage": fabric_usage(fabric, result.exec_time_us),
        "busy_logs": fabric.host_link_busy_logs(),
        "switch_traffic": fabric.switch_traffic(),
        "faults": result.faults,
    }


def _faulted_managed(trace, cfg, displacement=0.05):
    clear_schedule_cache()
    baseline = replay_baseline(trace, ReplayConfig(
        seed=cfg.seed, kernel=cfg.kernel, topology=cfg.topology,
    ))
    gt = select_gt(baseline.event_logs)
    directives, stats = plan_trace_directives(
        baseline.event_logs,
        RuntimeConfig(gt_us=gt.gt_us, displacement=displacement),
    )
    managed = replay_managed(
        trace,
        directives,
        baseline_exec_time_us=baseline.exec_time_us,
        displacement=displacement,
        grouping_thresholds_us=[gt.gt_us] * trace.nranks,
        config=cfg,
        runtime_stats=stats,
    )
    return {
        "exec_time_us": managed.exec_time_us,
        "event_logs": managed.event_logs,
        "power": managed.power,
        "counters": managed.counters,
        "intervals": [acc.intervals for acc in managed.accounts],
        "faults": managed.faults,
    }


def _assert_equal(got: dict, want: dict, combo) -> None:
    for key in want:
        assert got[key] == want[key], (combo, key)


class TestFaultedBaselineMatrix:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_every_combo_sees_the_same_faults(self, topology):
        trace = make_trace("alya", 8, iterations=3, seed=11)
        want = None
        for kernel in KERNELS:
            cfg = ReplayConfig(
                seed=11, kernel=kernel,
                topology=topology, faults=FAULTS,
            )
            got = _faulted_baseline(trace, cfg)
            if want is None:
                want = got
                # guard against a vacuous matrix: the spec must fire
                assert got["faults"] is not None
                assert got["faults"].events_applied > 0
            else:
                _assert_equal(got, want, (topology, kernel))

    def test_faults_actually_change_the_replay(self):
        trace = make_trace("alya", 8, iterations=3, seed=11)
        clean = _faulted_baseline(trace, ReplayConfig(seed=11))
        faulted = _faulted_baseline(
            trace, ReplayConfig(seed=11, faults=FAULTS)
        )
        assert faulted["exec_time_us"] != clean["exec_time_us"]
        assert clean["faults"] is None


class TestFaultedManagedMatrix:
    @pytest.mark.parametrize("topology", ("fitted", "torus:k=3,n=2"))
    def test_managed_pipeline_combo_invariant(self, topology):
        trace = make_trace("gromacs", 8, iterations=4, seed=23)
        want = None
        for kernel in KERNELS:
            cfg = ReplayConfig(
                seed=23, kernel=kernel,
                topology=topology, faults=FAULTS,
            )
            got = _faulted_managed(trace, cfg)
            if want is None:
                want = got
            else:
                _assert_equal(got, want, (topology, kernel))
        # wake-timeout spikes hit the managed (LOW) links and are
        # accounted in the managed summary, identically on every combo
        assert want["faults"].wake_timeouts > 0
        assert want["faults"].wake_timeout_extra_us > 0.0


class TestPartitionDeterminism:
    def test_partition_is_identical_on_every_combo(self):
        trace = make_trace("alya", 8, iterations=3, seed=11)
        want = None
        for kernel in KERNELS:
            cfg = ReplayConfig(
                seed=11, kernel=kernel,
                faults=PARTITION_FAULTS,
            )
            clear_schedule_cache()
            with pytest.raises(FabricPartitioned) as excinfo:
                replay_baseline(trace, cfg)
            exc = excinfo.value
            got = (exc.src_host, exc.dst_host, exc.t_us, exc.blocked,
                   len(exc.timeline))
            if want is None:
                want = got
            else:
                assert got == want, kernel
        # the report is structured and readable: names the pair, the
        # instant, and the ranks that were blocked when the fabric died
        assert want[3], "blocked-rank report must not be empty"
        text = str(exc)
        assert "no surviving route" in text
        assert "blocked ranks:" in text

    def test_partition_under_worker_fanout(self):
        """A partition raised inside a pool worker must cross the
        process boundary intact and surface in the parent — with the
        blocked-rank report — instead of hanging the grid."""

        from repro.experiments.common import clear_cache, run_cells

        specs = [
            dict(app="alya", nranks=8, iterations=3, seed=s,
                 faults=PARTITION_FAULTS, use_cache=False)
            for s in (11, 13)
        ]
        clear_cache()
        try:
            with pytest.raises(FabricPartitioned) as excinfo:
                run_cells(specs, workers=2)
        finally:
            clear_cache()
        assert excinfo.value.blocked  # report survived pickling
        assert "blocked ranks:" in str(excinfo.value)
