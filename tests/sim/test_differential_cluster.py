"""Differential matrix for the multi-job cluster layer.

The cluster scheduler composes jobs onto one fabric through the same
transfer kernels the single-job replays use, so every kernel must
produce a bit-for-bit identical
cluster timeline — makespan, per-job spans and windows, placements,
power reports, event streams, per-link account intervals, fabric-level
link energy, tenant rollups, and the folded fault summary — on every
topology family, on a faulted fabric, and when the sweep fans the cells
out across worker processes (``REPRO_WORKERS > 1``).
"""

import pytest

from repro.experiments.cluster_sweep import run_cluster_cell, run_cluster_sweep
from repro.experiments.common import clear_cache
from repro.sim.collectives import clear_schedule_cache

pytestmark = pytest.mark.differential

#: the oracle first; every other kernel is compared against it
KERNELS = ("reference", "fast")

#: two tenants, two shapes, overlapping by arrival: contention + an
#: episode handoff on every topology family below
STREAM = "list:jobs=alya@4|gromacs@4@1500@t1|alya@4@3000@t1"
SEED, ITERS, DISP = 29, 3, 0.5

#: the fitted paper fat tree plus a fixed torus and a dragonfly
TOPOLOGIES = (
    "fitted",
    "torus:k=4,n=2",
    "dragonfly:a=2,p=2,h=1",
)

#: degraded-fabric scenario scaled to the short replays (same shape as
#: the single-job differential fault tier)
FAULTS = (
    "faults:seed=7,link_fail=0.2,flap=0.25,degrade=0.25,"
    "wake_timeout=0.3,horizon_us=2000"
)


def _cluster_snapshot(kernel, topology, faults="none"):
    """Every comparable field of one cluster cell, caches cleared."""

    clear_schedule_cache()
    clear_cache()
    cell = run_cluster_cell(
        STREAM, placement="spread", displacement=DISP, iterations=ITERS,
        seed=SEED, topology=topology, kernel=kernel, faults=faults,
    )
    managed = cell.managed
    return {
        "num_hosts": cell.num_hosts,
        "baseline_makespan": cell.baseline.exec_time_us,
        "baseline_event_logs": [j.event_logs for j in cell.baseline.jobs],
        "makespan": managed.exec_time_us,
        "job_spans": [m.exec_time_us for m in managed.jobs],
        "job_windows": [
            (m.cluster.start_us, m.cluster.finish_us) for m in managed.jobs
        ],
        "job_hosts": [m.cluster.hosts for m in managed.jobs],
        "job_power": [m.power for m in managed.jobs],
        "job_counters": [m.counters for m in managed.jobs],
        "job_event_logs": [m.event_logs for m in managed.jobs],
        "job_intervals": [
            [acc.intervals for acc in m.accounts] for m in managed.jobs
        ],
        "fabric_energy": managed.fabric_link_energy_us,
        "tenants": managed.tenants,
        "faults": managed.faults,
    }


def _assert_equal(got: dict, want: dict, combo) -> None:
    for key in want:
        assert got[key] == want[key], (combo, key)


class TestClusterMatrix:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_every_combo_same_cluster_timeline(self, topology):
        want = None
        for kernel in KERNELS:
            got = _cluster_snapshot(kernel, topology)
            if want is None:
                want = got
                # guard against a vacuous matrix: jobs must overlap
                windows = got["job_windows"]
                assert any(
                    a[0] < b[1] and b[0] < a[1]
                    for i, a in enumerate(windows)
                    for b in windows[i + 1:]
                )
            else:
                _assert_equal(got, want, (topology, kernel))


class TestFaultedClusterMatrix:
    def test_every_combo_same_faulted_timeline(self):
        want = None
        for kernel in KERNELS:
            got = _cluster_snapshot(kernel, "fitted", faults=FAULTS)
            if want is None:
                want = got
                # the fault schedule must actually fire on the cluster
                assert got["faults"] is not None
                assert got["faults"].events_applied > 0
            else:
                _assert_equal(got, want, ("fitted", kernel))

    def test_faults_actually_change_the_cluster(self):
        clean = _cluster_snapshot("reference", "fitted")
        faulted = _cluster_snapshot("reference", "fitted", faults=FAULTS)
        assert faulted["makespan"] != clean["makespan"]
        assert clean["faults"] is None


class TestWorkerFanout:
    def test_sweep_under_repro_workers_matches_serial(self, monkeypatch):
        """The grid fanned out by ``REPRO_WORKERS=2`` worker processes
        (with per-cell fast==reference verification inside each worker)
        is bit-for-bit the serial grid."""

        kwargs = dict(
            placements=("spread",), topologies=("fitted",),
            iterations=ITERS, displacement=DISP, seed=SEED, verify=True,
        )
        clear_cache()
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        serial = run_cluster_sweep([STREAM], workers=1, **kwargs)

        clear_cache()
        monkeypatch.setenv("REPRO_WORKERS", "2")
        fanned = run_cluster_sweep([STREAM], **kwargs)
        assert fanned == serial
        assert all(r.status == "ok" for r in fanned)
