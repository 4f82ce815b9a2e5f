"""Parallel cell replay: REPRO_WORKERS fan-out of independent cells.

``run_cells`` sends uncached (app, nranks) cells to worker processes and
merges the results deterministically; a parallel figure grid must be
bit-for-bit identical to the serial one, and a worker failure must
propagate as an exception instead of hanging or silently dropping the
cell.
"""

import pytest

from repro.experiments import clear_cache, run_cell, run_cells, run_figure
from repro.experiments.common import _CACHE, cell_key

ITER = 3


def _figure_fingerprint(result):
    return [
        (app, s.sizes, s.savings_pct, s.slowdown_pct)
        for app, s in sorted(result.series.items())
    ]


def _cell_fingerprint(cell):
    return (
        cell.app,
        cell.nranks,
        cell.baseline.exec_time_us,
        cell.baseline.event_logs,
        cell.gt.gt_us,
        cell.gt.hit_rate_pct,
        sorted(
            (d, m.exec_time_us, m.power.mean_savings_pct)
            for d, m in cell.managed.items()
        ),
    )


class TestRunCellsParallel:
    def test_parallel_equals_serial(self, monkeypatch):
        specs = [
            dict(app="alya", nranks=8, displacements=(0.05,),
                 iterations=ITER, seed=77),
            dict(app="gromacs", nranks=8, displacements=(0.05,),
                 iterations=ITER, seed=77),
        ]
        clear_cache()
        serial = [_cell_fingerprint(c) for c in run_cells(specs, workers=1)]
        clear_cache()
        parallel = [
            _cell_fingerprint(c) for c in run_cells(specs, workers=2)
        ]
        assert parallel == serial

    def test_parallel_results_merge_into_cache(self):
        spec = dict(app="alya", nranks=8, displacements=(0.05,),
                    iterations=ITER, seed=78)
        clear_cache()
        (cell,) = run_cells([spec], workers=2)
        assert cell_key(spec) in _CACHE
        # a follow-up run_cell with another displacement reuses the
        # worker-computed baseline and rebuilds fabric/programs on demand
        again = run_cell(app="alya", nranks=8, displacements=(0.01,),
                         iterations=ITER, seed=78)
        assert again.baseline is cell.baseline
        assert 0.05 in again.managed and 0.01 in again.managed

    def test_cached_cells_are_served_locally(self):
        spec = dict(app="alya", nranks=8, displacements=(0.05,),
                    iterations=ITER, seed=79)
        clear_cache()
        first = run_cell(**spec)
        (second,) = run_cells([spec], workers=2)
        assert second is first  # cache hit, no worker round-trip

    def test_worker_error_propagates(self):
        clear_cache()
        specs = [
            dict(app="alya", nranks=8, displacements=(0.05,),
                 iterations=ITER, seed=80),
            dict(app="no-such-app", nranks=8, displacements=(0.05,),
                 iterations=ITER, seed=80),
        ]
        with pytest.raises(Exception, match="no-such-app"):
            run_cells(specs, workers=2)


class TestFigureGridParallel:
    def test_figure_parallel_equals_serial(self, monkeypatch):
        kwargs = dict(apps=["alya", "gromacs"], iterations=ITER,
                      sizes_limit=1, seed=81)
        clear_cache()
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        serial = _figure_fingerprint(run_figure(9, **kwargs))
        clear_cache()
        monkeypatch.setenv("REPRO_WORKERS", "2")
        parallel = _figure_fingerprint(run_figure(9, **kwargs))
        assert parallel == serial
