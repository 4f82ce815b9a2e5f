"""The sweep's topology axis (a clean sweep: faults ``none``):
determinism across runs and workers, family coverage, the switch
rollup and the verify gate; plus the tables' run_cells fan-out
(parallel == serial rows)."""

import pytest

from repro.experiments import (
    clear_cache,
    run_table1,
    run_table3,
    run_table4,
)
from repro.experiments.sweep import format_sweep, run_sweep
from repro.network.topologies import build_topology

ITER = 3
SWEEP_KWARGS = dict(
    apps=("alya",),
    nranks_list=(8,),
    topologies=("fitted", "torus:k=3,n=2", "fattree2:leaf=4,ratio=2"),
    displacement=0.05,
    iterations=ITER,
    seed=91,
)


class TestTopoSweep:
    def test_deterministic_across_runs_and_workers(self):
        clear_cache()
        first = run_sweep(**SWEEP_KWARGS)
        clear_cache()
        again = run_sweep(**SWEEP_KWARGS)
        clear_cache()
        parallel = run_sweep(**SWEEP_KWARGS, workers=2)
        assert first == again == parallel

    def test_rows_cover_every_family_and_app(self):
        clear_cache()
        rows = run_sweep(**SWEEP_KWARGS)
        assert [(r.topology, r.app) for r in rows] == [
            (t, "alya") for t in SWEEP_KWARGS["topologies"]
        ]
        families = {r.family for r in rows}
        assert families == {"fitted", "torus", "fattree2"}
        for row in rows:
            assert row.hosts >= row.nranks
            assert row.links > 0

    def test_verify_mode_passes(self):
        clear_cache()
        rows = run_sweep(**SWEEP_KWARGS, verify=True)
        assert len(rows) == 3

    def test_format(self):
        clear_cache()
        text = format_sweep(run_sweep(**SWEEP_KWARGS))
        assert "torus:k=3,n=2" in text
        assert "savings%" in text

    def test_switch_rollup_covers_whole_fabric(self):
        """Every fabric switch appears in the rollup — host-free spines
        contribute zero savings at full radix, keeping the switch%
        column comparable across families."""

        from repro.experiments import run_cell

        clear_cache()
        cell = run_cell("alya", 8, displacements=(0.05,), iterations=ITER,
                        seed=91, topology="fattree2:leaf=4,ratio=2")
        rollup = cell.managed[0.05].switch_savings
        topo = build_topology("fattree2:leaf=4,ratio=2", 8)
        assert len(rollup) == len(topo.switches)
        spines = [r for r in rollup if r.managed_links == 0]
        assert spines  # the tapered tree has host-free spine switches
        assert all(r.switch_savings_pct == 0.0 for r in spines)
        assert all(r.radix > 0 for r in rollup)


class TestTablesParallelEqualsSerial:
    """run_table1/3/4 ride the run_cells fan-out: --workers must not
    change a single row."""

    def test_table1(self):
        kwargs = dict(apps=["alya"], iterations=ITER)
        clear_cache()
        serial = run_table1(**kwargs, workers=1)
        clear_cache()
        parallel = run_table1(**kwargs, workers=2)
        assert parallel == serial
        assert len(serial) == 5  # one row per paper size

    def test_table3(self):
        kwargs = dict(apps=["alya"], iterations=ITER)
        clear_cache()
        serial = run_table3(**kwargs, workers=1)
        clear_cache()
        parallel = run_table3(**kwargs, workers=2)
        assert parallel == serial

    def test_table4(self):
        kwargs = dict(apps=["alya", "gromacs"], nranks=8, iterations=ITER)
        clear_cache()
        serial = run_table4(**kwargs, workers=1)
        clear_cache()
        parallel = run_table4(**kwargs, workers=2)
        assert parallel == serial
        assert [r.app for r in serial] == ["alya", "gromacs"]
