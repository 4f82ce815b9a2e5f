"""A checkpoint journal is keyed on the whole item, not on its label.

The error-message label of a sweep job leaves out the trace length, the
seed and the displacement (the cluster sweep's also the fault spec and
the host count), so a journal keyed on it served a rerun with changed
inputs the old rows.  These pin that a rerun whose item differs in any
input recomputes and equals a fresh run, and that an unchanged rerun is
still served without calling the worker.
"""

import pytest

from repro.concurrency import ResultJournal
from repro.experiments import cluster_sweep, sweep
from repro.experiments.cluster_sweep import run_cluster_sweep
from repro.experiments.common import clear_cache, run_cells
from repro.experiments.sweep import run_sweep

SWEEP = dict(nranks_list=(8,), topologies=("fitted",))
STREAM = "static:n=2,gap_us=1000,ranks=4,apps=alya"
CLUSTER = dict(placements=("packed",), topologies=("fitted",),
               iterations=6, displacement=0.5)
FAULTS = "faults:seed=7,degrade=0.3,wake_timeout=0.2"


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def _fresh(run, *args, **kwargs):
    clear_cache()
    return run(*args, **kwargs)


def _no_rerun(**spec):
    raise AssertionError(f"cell recomputed: {spec}")


def _never_called_worker(spec):  # pragma: no cover - must not run
    raise AssertionError("worker ran for a journalled cell")


class TestSweepRerun:
    def test_changed_iterations_recompute(self, tmp_path):
        journal = str(tmp_path / "sweep.journal")
        short = run_sweep(["alya"], iterations=2, checkpoint=journal, **SWEEP)
        rerun = run_sweep(["alya"], iterations=6, checkpoint=journal, **SWEEP)
        fresh = _fresh(run_sweep, ["alya"], iterations=6, **SWEEP)
        assert rerun == fresh
        assert rerun != short  # the two trace lengths give different rows

    def test_changed_seed_recomputes(self, tmp_path):
        journal = str(tmp_path / "sweep.journal")
        first = run_sweep(["alya"], iterations=6, seed=1234,
                          checkpoint=journal, **SWEEP)
        rerun = run_sweep(["alya"], iterations=6, seed=77,
                          checkpoint=journal, **SWEEP)
        fresh = _fresh(run_sweep, ["alya"], iterations=6, seed=77, **SWEEP)
        assert rerun == fresh
        assert rerun != first

    def test_changed_trace_length_env_recomputes(self, tmp_path, monkeypatch):
        journal = str(tmp_path / "sweep.journal")
        monkeypatch.setenv("REPRO_ITERATIONS", "2")
        short = run_sweep(["alya"], checkpoint=journal, **SWEEP)
        monkeypatch.setenv("REPRO_ITERATIONS", "6")
        rerun = run_sweep(["alya"], checkpoint=journal, **SWEEP)
        assert rerun == _fresh(run_sweep, ["alya"], **SWEEP)
        assert rerun != short

    def test_unchanged_rerun_calls_no_worker(self, tmp_path, monkeypatch):
        journal = str(tmp_path / "sweep.journal")
        first = run_sweep(["alya"], iterations=6, checkpoint=journal, **SWEEP)
        clear_cache()
        monkeypatch.setattr(sweep, "run_cell", _no_rerun)
        assert run_sweep(
            ["alya"], iterations=6, checkpoint=journal, **SWEEP
        ) == first


@pytest.mark.cluster
class TestClusterSweepRerun:
    def test_changed_faults_recompute(self, tmp_path):
        journal = str(tmp_path / "cluster.journal")
        clean = run_cluster_sweep([STREAM], checkpoint=journal, **CLUSTER)
        rerun = run_cluster_sweep([STREAM], faults=FAULTS,
                                  checkpoint=journal, **CLUSTER)
        fresh = _fresh(run_cluster_sweep, [STREAM], faults=FAULTS, **CLUSTER)
        assert rerun == fresh
        assert rerun != clean

    def test_unchanged_rerun_calls_no_worker(self, tmp_path, monkeypatch):
        journal = str(tmp_path / "cluster.journal")
        first = run_cluster_sweep([STREAM], faults=FAULTS,
                                  checkpoint=journal, **CLUSTER)
        clear_cache()
        monkeypatch.setattr(cluster_sweep, "sweep_cell", _no_rerun)
        assert run_cluster_sweep([STREAM], faults=FAULTS,
                                 checkpoint=journal, **CLUSTER) == first


class TestRunCellsRerun:
    SPEC = dict(app="alya", nranks=8, iterations=2, seed=52)

    def test_changed_displacements_recompute(self, tmp_path):
        journal = str(tmp_path / "cells.journal")
        run_cells([dict(self.SPEC, displacements=(0.05,))],
                  checkpoint=journal)
        clear_cache()
        (cell,) = run_cells([dict(self.SPEC, displacements=(0.01,))],
                            checkpoint=journal)
        assert sorted(cell.managed) == [0.01]
        assert len(ResultJournal(journal).load()) == 2

    def test_changed_trace_length_env_recomputes(self, tmp_path, monkeypatch):
        journal = str(tmp_path / "cells.journal")
        spec = dict(app="alya", nranks=8, seed=52, displacements=(0.05,))
        monkeypatch.setenv("REPRO_ITERATIONS", "2")
        (short,) = run_cells([spec], checkpoint=journal)
        clear_cache()
        monkeypatch.setenv("REPRO_ITERATIONS", "3")
        (cell,) = run_cells([spec], checkpoint=journal)
        assert (short.iterations, cell.iterations) == (2, 3)

    def test_unchanged_rerun_calls_no_worker(self, tmp_path):
        journal = str(tmp_path / "cells.journal")
        (first,) = run_cells([dict(self.SPEC)], checkpoint=journal)
        clear_cache()
        (again,) = run_cells([dict(self.SPEC)], checkpoint=journal,
                             _worker=_never_called_worker)
        assert again.baseline.exec_time_us == first.baseline.exec_time_us
        assert again.programs is None  # journalled cells travel without it
