"""The sweep's fault axis: control rows, verify gate, partition rows.

The central contracts: the ``"none"`` fault rows reproduce the clean
pipeline numbers *exactly* (fault machinery fully out of the replay path
when disarmed), the verify gate pins fast == reference under faults, and
a genuinely partitioned cell becomes a readable ``partitioned`` row
instead of killing the grid.
"""

import pytest

from repro.experiments.common import clear_cache, run_cell
from repro.experiments.sweep import SweepRow, format_sweep, run_sweep
from repro.network.faults import NO_FAULTS, FaultSpecError

FAULTS = (
    "faults:seed=7,link_fail=0.15,flap=0.2,degrade=0.2,wake_timeout=0.25,"
    "horizon_us=4000"
)
PARTITION_FAULTS = "faults:seed=5,link_fail=1.0,hca=1,horizon_us=50"


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def _sweep(**kwargs):
    defaults = dict(
        apps=("alya",), nranks_list=(8,), topologies=("fitted",),
        iterations=3, verify=False,
    )
    defaults.update(kwargs)
    return run_sweep(**defaults)


class TestControlRows:
    def test_faults_off_reproduces_clean_numbers_exactly(self):
        rows = _sweep(fault_specs=(NO_FAULTS,))
        (row,) = rows
        assert row.status == "ok"
        assert row.faults == NO_FAULTS
        assert (row.events_applied, row.reroutes, row.inflight_retries,
                row.wake_timeouts) == (0, 0, 0, 0)

        clear_cache()
        cell = run_cell(
            app="alya", nranks=8, displacements=(0.05,), iterations=3,
            seed=1234, topology="fitted",
        )
        managed = cell.managed[0.05]
        assert row.gt_us == cell.gt_us
        assert row.savings_pct == managed.power_savings_pct
        assert row.slowdown_pct == managed.exec_time_increase_pct
        assert cell.baseline.faults is None

    def test_faulted_rows_differ_from_control(self):
        rows = _sweep(fault_specs=(NO_FAULTS, FAULTS))
        clean, faulted = rows
        assert faulted.status == "ok"
        assert faulted.events_applied > 0
        # the degraded fabric changes the replay, not just the counters
        assert (faulted.gt_us, faulted.savings_pct, faulted.slowdown_pct) != (
            clean.gt_us, clean.savings_pct, clean.slowdown_pct
        )


class TestVerifyGate:
    @pytest.mark.parametrize("topology", ("fitted", "torus:k=3,n=2"))
    def test_verified_faulted_cell_passes(self, topology):
        rows = _sweep(topologies=(topology,), fault_specs=(FAULTS,),
                      verify=True)
        (row,) = rows
        assert row.status == "ok"
        assert row.events_applied > 0

    def test_verified_partition_passes(self):
        (row,) = _sweep(fault_specs=(PARTITION_FAULTS,), verify=True)
        assert row.status == "partitioned"


class TestPartitionRows:
    def test_partitioned_cell_becomes_a_row_not_a_crash(self):
        rows = _sweep(fault_specs=(NO_FAULTS, PARTITION_FAULTS))
        clean, cut = rows
        assert clean.status == "ok"
        assert cut.status == "partitioned"
        assert cut.events_applied > 0  # the applied fault timeline
        assert "no surviving route" in cut.detail
        assert "blocked ranks:" in cut.detail
        assert (cut.savings_pct, cut.slowdown_pct) == (0.0, 0.0)

    def test_partitioned_row_under_workers(self):
        rows = _sweep(
            apps=("alya", "gromacs"), fault_specs=(PARTITION_FAULTS,),
            workers=2,
        )
        assert [r.status for r in rows] == ["partitioned"] * 2
        assert all("no surviving route" in r.detail for r in rows)


class TestSweepPlumbing:
    def test_bad_spec_fails_fast(self):
        with pytest.raises(FaultSpecError, match="link_fail"):
            _sweep(fault_specs=("faults:link_fial=1.0",))

    def test_checkpoint_resumes(self, tmp_path):
        journal = str(tmp_path / "sweep.journal")
        first = _sweep(fault_specs=(NO_FAULTS, FAULTS), checkpoint=journal)
        clear_cache()
        again = _sweep(fault_specs=(NO_FAULTS, FAULTS), checkpoint=journal)
        assert again == first  # frozen dataclass rows, served verbatim

    def test_format_groups_and_reports_partitions(self):
        cell = dict(policy="policy:hca=gate", topology="fitted",
                    family="fitted", app="alya", nranks=8, hosts=8,
                    switches=6, links=16)
        rows = [
            SweepRow(
                **cell, faults=NO_FAULTS, status="ok", gt_us=375.0,
                savings_pct=4.5, slowdown_pct=0.01,
            ),
            SweepRow(
                **cell, faults=PARTITION_FAULTS, status="partitioned",
                events_applied=12,
                detail="fabric partitioned at t=53.0us: ...",
            ),
        ]
        text = format_sweep(rows)
        assert f"# fitted  [{NO_FAULTS}]" in text
        assert f"# fitted  [{PARTITION_FAULTS}]" in text
        assert "partitioned" in text
        assert "-> fabric partitioned at t=53.0us" in text
