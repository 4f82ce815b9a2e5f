"""The cluster sweep driver: rows, verification, parallel == serial.

The single-job control stream pins the sweep to the isolated pipeline
(a one-job cluster must reproduce ``run_cell``'s numbers exactly), the
two-job streams exercise contention and queueing, and the parallel
tests pin the grid fan-out bit-for-bit to the serial run.
"""

import pytest

from repro.concurrency import unique_by
from repro.experiments.cluster_sweep import (
    ClusterSweepRow,
    format_cluster_sweep,
    resolve_cluster_hosts,
    run_cluster_cell,
    run_cluster_sweep,
)
from repro.cluster import parse_jobs
from repro.experiments.common import run_cell
from repro.specs import SpecError

pytestmark = pytest.mark.cluster

ITERS = 6
DISP = 0.5
STREAM = "static:n=2,gap_us=1000,ranks=4,apps=alya"


class TestUniqueBy:
    def test_dedupes_preserving_order(self):
        unique, index_of = unique_by(
            ["a8", "b4", "a8", "a8", "c2"], key=lambda s: s
        )
        assert unique == ["a8", "b4", "c2"]
        assert index_of == [0, 1, 0, 0, 2]
        assert [unique[i] for i in index_of] == ["a8", "b4", "a8", "a8", "c2"]

    def test_empty(self):
        assert unique_by([], key=lambda s: s) == ([], [])


class TestResolveClusterHosts:
    def test_fitted_grows_to_whole_stream(self):
        jobs = parse_jobs("static:n=3,ranks=8")
        assert resolve_cluster_hosts("fitted", jobs) >= 24

    def test_fixed_family_caps_at_natural_size(self):
        jobs = parse_jobs("static:n=3,ranks=8")  # wants 24
        assert resolve_cluster_hosts("torus:k=4,n=2", jobs) == 16

    def test_family_too_small_for_one_job_fails(self):
        jobs = parse_jobs("static:n=1,ranks=32")
        with pytest.raises(ValueError):
            resolve_cluster_hosts("torus:k=4,n=2", jobs)


class TestSingleJobControl:
    def test_one_job_cluster_reproduces_isolated_numbers(self):
        disp = DISP
        cell = run_cell("alya", 8, displacements=(disp,), iterations=ITERS,
                        seed=1234)
        cc = run_cluster_cell(
            "static:n=1,ranks=8", placement="packed", num_hosts=8,
            displacement=disp, iterations=ITERS, seed=1234,
        )
        iso = cell.managed[disp]
        assert cc.baseline.exec_time_us == cell.baseline.exec_time_us
        mr = cc.managed.jobs[0]
        assert mr.exec_time_us == iso.exec_time_us
        assert mr.power == iso.power
        assert mr.cluster.slowdown_vs_isolated_pct == 0.0


class TestSweep:
    def test_rows_topology_major_and_verified(self):
        rows = run_cluster_sweep(
            [STREAM], placements=("packed", "spread"),
            topologies=("fitted",), iterations=ITERS, displacement=DISP,
            verify=True,
        )
        assert len(rows) == 2
        assert [r.placement for r in rows] == ["packed", "spread"]
        assert all(r.status == "ok" for r in rows)
        assert all(r.njobs == 2 for r in rows)
        assert all(r.mean_savings_pct > 0 for r in rows)
        assert all(
            r.energy_mismatch_us <= 1e-9 * max(1.0, r.makespan_us)
            for r in rows
        )

    def test_parallel_equals_serial(self):
        kwargs = dict(
            placements=("packed",), topologies=("fitted", "torus:n=2"),
            iterations=ITERS, displacement=DISP,
        )
        serial = run_cluster_sweep([STREAM], workers=1, **kwargs)
        parallel = run_cluster_sweep([STREAM], workers=2, **kwargs)
        assert serial == parallel  # frozen dataclass rows: bit-for-bit

    def test_checkpoint_resume(self, tmp_path):
        journal = str(tmp_path / "cluster.journal")
        kwargs = dict(
            placements=("packed",), topologies=("fitted",),
            iterations=ITERS, displacement=DISP, checkpoint=journal,
        )
        first = run_cluster_sweep([STREAM], **kwargs)
        resumed = run_cluster_sweep([STREAM], **kwargs)  # all from journal
        assert first == resumed

    def test_bad_specs_fail_before_any_cell(self):
        with pytest.raises(Exception):
            run_cluster_sweep(["surge:n=2"], iterations=ITERS)
        with pytest.raises(ValueError, match="placement"):
            run_cluster_sweep([STREAM], placements=("bogus",),
                              iterations=ITERS)
        with pytest.raises(SpecError, match="4-rank job"):
            run_cluster_sweep(["static:n=1,ranks=2", STREAM], num_hosts=3,
                              iterations=ITERS)

    def test_formatter_groups_rows(self):
        row = ClusterSweepRow(
            topology="fitted", jobs_spec=STREAM, placement="packed",
            status="ok", njobs=2, num_hosts=8, makespan_us=1000.0,
            mean_savings_pct=3.0, mean_slowdown_pct=0.5,
            mean_queue_wait_us=0.0, energy_mismatch_us=0.0,
            wake_timeouts=0,
        )
        other = ClusterSweepRow(
            topology="torus:n=2", jobs_spec=STREAM, placement="spread",
            status="partitioned", njobs=2, num_hosts=8, makespan_us=0.0,
            mean_savings_pct=0.0, mean_slowdown_pct=0.0,
            mean_queue_wait_us=0.0, energy_mismatch_us=0.0,
            wake_timeouts=0, detail="partitioned at t=5",
        )
        text = format_cluster_sweep([row, other])
        assert "# fitted" in text and "# torus:n=2" in text
        assert "packed" in text and "spread" in text
        assert "-> partitioned at t=5" in text
        assert len(row.cells()) == 13
