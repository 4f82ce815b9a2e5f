"""A warm what-if is one managed replay, bit-for-bit a cold run.

A new displacement on a memoised cell must cost one rebind, one weave
and one managed replay: on the fast kernel no warm path regenerates the
trace (``run_cell``, ``run_cluster_cell`` on a warm isolated memo,
``WarmPipeline.query``); the reference kernel, which interprets
records, builds its trace once per cold cell and keeps it on the cell.
All three run the one cell pipeline of :mod:`repro.experiments.common`.
And the warm answer must equal a fresh run (after ``clear_cache()``,
which empties the cell memo and the fabric pool) at the same
displacement bit for bit.
"""

from __future__ import annotations

import pytest

from repro.experiments import common
from repro.experiments.cluster_sweep import run_cluster_cell
from repro.experiments.common import clear_cache, run_cell
from repro.service import caches
from repro.service.caches import WarmPipeline

ITER = 3
SPEC = dict(app="alya", nranks=8, iterations=ITER, seed=91)
STREAM = "static:n=2,gap_us=1000,ranks=4|8,apps=alya|gromacs"


@pytest.fixture(autouse=True)
def _serial_and_clean(monkeypatch):
    # the displacement fan-out regenerates traces in its worker processes
    monkeypatch.setenv("REPRO_WORKERS", "1")
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def trace_calls(monkeypatch):
    """Every ``make_trace`` call the pipelines make, as (app, nranks).

    ``run_cell``, ``run_cluster_cell`` and ``WarmPipeline`` all run the
    one cell pipeline in :mod:`repro.experiments.common`, so patching
    its ``make_trace`` sees every call.
    """

    calls: list[tuple] = []
    real = common.make_trace

    def counting(app, nranks, *args, **kwargs):
        calls.append((app, nranks))
        return real(app, nranks, *args, **kwargs)

    monkeypatch.setattr(common, "make_trace", counting)
    return calls


def _fresh(**spec):
    """The cell run cold on a fresh fabric."""

    clear_cache()
    return run_cell(**spec)


def _managed_signature(managed) -> tuple:
    """Everything a warm what-if must reproduce exactly."""

    return (
        managed.exec_time_us,
        managed.power_savings_pct,
        managed.power,
        managed.counters,
        managed.accounts,
        [
            (len(log), log[0].enter_us, log[-1].exit_us) if log else None
            for log in managed.event_logs
        ],
        managed.runtime_stats,
        managed.helper_spawns,
    )


class TestRunCellWarmWhatIf:
    def test_fast_kernel_regenerates_no_trace(self, trace_calls):
        run_cell(**SPEC, displacements=(0.05,))
        assert trace_calls == [("alya", 8)]  # the cold cell
        trace_calls.clear()
        cell = run_cell(**SPEC, displacements=(0.07, 0.12))
        assert trace_calls == []
        assert {0.05, 0.07, 0.12} <= set(cell.managed)

    def test_reference_kernel_still_builds_its_trace(self, trace_calls):
        fast = run_cell(**SPEC, displacements=(0.05, 0.07))
        cold = run_cell(**SPEC, displacements=(0.05,), kernel="reference")
        assert trace_calls == [("alya", 8)] * 2
        assert cold.trace is not None and fast.trace is None
        trace_calls.clear()
        ref = run_cell(**SPEC, displacements=(0.07,), kernel="reference")
        assert trace_calls == []  # the cell's own trace replays
        assert _managed_signature(ref.managed[0.07]) == _managed_signature(
            fast.managed[0.07]
        )

    @pytest.mark.parametrize("disp", [0.0, 0.03, 0.07, 0.2])
    def test_warm_whatif_equals_cold_run(self, disp):
        # warm: the cell already holds the paper's three displacements
        # (plan and programs built, the pooled fabric reused since)
        warm = run_cell(**SPEC)
        warm = run_cell(**SPEC, displacements=(disp,))
        cold = _fresh(**SPEC, displacements=(disp,))
        assert cold is not warm
        assert warm.baseline.exec_time_us == cold.baseline.exec_time_us
        assert _managed_signature(warm.managed[disp]) == _managed_signature(
            cold.managed[disp]
        )

    def test_a_cell_back_from_a_worker_rebuilds_its_artefacts(
        self, trace_calls
    ):
        cell = run_cell(**SPEC, displacements=(0.05,))
        cell.programs = None  # as run_cells workers strip it
        trace_calls.clear()
        again = run_cell(**SPEC, displacements=(0.07,))
        assert trace_calls == [("alya", 8)]
        assert again.programs is not None
        cold = _fresh(**SPEC, displacements=(0.07,))
        assert _managed_signature(again.managed[0.07]) == _managed_signature(
            cold.managed[0.07]
        )


def _cluster_signature(cell) -> tuple:
    managed = cell.managed
    return (
        cell.baseline.exec_time_us,
        [span.event_logs for span in cell.baseline.jobs],
        managed.exec_time_us,
        managed.fabric_link_energy_us,
        [_managed_signature(m) for m in managed.jobs],
        [m.trace_name for m in managed.jobs],
        managed.tenants,
    )


class TestClusterWarmWhatIf:
    KW = dict(iterations=ITER, seed=91, displacement=0.05)

    def test_warm_isolated_memo_regenerates_no_trace(self, trace_calls):
        first = run_cluster_cell(STREAM, **self.KW)
        assert sorted(trace_calls) == [("alya", 4), ("gromacs", 8)]
        trace_calls.clear()
        again = run_cluster_cell(STREAM, placement="spread", **self.KW)
        again = run_cluster_cell(STREAM, **self.KW)
        assert trace_calls == []
        assert _cluster_signature(again) == _cluster_signature(first)
        assert [m.trace_name for m in first.managed.jobs] == [
            "alya", "gromacs"
        ]

    def test_reference_kernel_still_builds_its_traces(self, trace_calls):
        fast = run_cluster_cell(STREAM, **self.KW)
        trace_calls.clear()
        ref = run_cluster_cell(STREAM, kernel="reference", **self.KW)
        # the reference cells are cold (kernel is part of the memo key);
        # each job's interpreter replays the trace its cell keeps
        assert sorted(trace_calls) == [("alya", 4), ("gromacs", 8)]
        assert _cluster_signature(ref) == _cluster_signature(fast)


def _cached_cell(pipeline, spec):
    return pipeline.cells.get(caches.cell_key(caches.normalize_spec(spec)))


class TestWarmPipelineWhatIf:
    BASE = dict(SPEC, displacement=0.5)

    def test_fast_kernel_keeps_and_regenerates_no_trace(self, trace_calls):
        pipeline = WarmPipeline()
        pipeline.query(self.BASE)
        assert trace_calls == [("alya", 8)]
        trace_calls.clear()
        payload, ran = pipeline.query(dict(self.BASE, displacement=0.25))
        assert ran == ["managed_replay"]
        assert trace_calls == []
        assert _cached_cell(pipeline, self.BASE).trace is None
        cold = _fresh(**SPEC, displacements=(0.25,))
        assert payload["exec_time_us"] == cold.managed[0.25].exec_time_us
        assert payload == caches.cell_payload(
            caches.normalize_spec(dict(self.BASE, displacement=0.25)),
            cold.gt, cold.baseline, cold.managed[0.25],
        )

    def test_reference_kernel_keeps_its_trace(self, trace_calls):
        pipeline = WarmPipeline()
        spec = dict(self.BASE, kernel="reference")
        pipeline.query(spec)
        assert trace_calls == [("alya", 8)]
        assert _cached_cell(pipeline, spec).trace is not None
        trace_calls.clear()
        payload, ran = pipeline.query(dict(spec, displacement=0.25))
        assert ran == ["managed_replay"]
        assert trace_calls == []  # the cell's own trace replays
        fast, _ = WarmPipeline().query(dict(self.BASE, displacement=0.25))
        assert payload["exec_time_us"] == fast["exec_time_us"]
        assert payload["power_savings_pct"] == fast["power_savings_pct"]


class TestOnePipeline:
    """``run_cell`` and the service's ``WarmPipeline`` run one staged
    pipeline: the same stage functions, looked up in
    :mod:`repro.experiments.common`."""

    def test_cold_run_cell_and_cold_query_share_the_stage_code(
        self, monkeypatch
    ):
        calls: list[int] = []
        real = common.select_gt_detailed

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(common, "select_gt_detailed", counting)
        run_cell(**SPEC, displacements=(0.05,))
        assert len(calls) == 1
        WarmPipeline().query(dict(SPEC, displacement=0.05))
        assert len(calls) == 2

    def test_cached_cells_hold_no_managed_results(self, monkeypatch):
        def no_run_cell(*args, **kwargs):
            raise AssertionError("WarmPipeline must not call run_cell")

        monkeypatch.setattr(common, "run_cell", no_run_cell)
        pipeline = WarmPipeline()
        for disp in (0.5, 0.25, 0.1, 0.25, 0.5):
            pipeline.query(dict(SPEC, displacement=disp))
        cell = _cached_cell(pipeline, dict(SPEC, displacement=0.5))
        assert cell.managed == {}
        assert cell.plan is not None
        assert len(pipeline.results) == 3
        assert common._CACHE == {}
