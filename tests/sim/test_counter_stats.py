"""Per-replay counter hygiene: reported detail must be per-run, not
process-cumulative.

Module-level counters (the collective schedule-cache hit/miss stats)
keep counting across every replay a process runs — a worker process
serving several cells accumulates all of them.  Anything that *reports*
such a counter must therefore report a delta over the run, never the
raw process total.  Per-instance counters (``RouteTable.pairs_compiled``,
``Fabric.messages_sent``) are audited here too:
they reset with their owning object, so a fresh fabric per run is
per-run by construction (a cell's fabric is the pool's, which
``clear_cache`` empties).
"""

from repro.constants import DISPLACEMENT_FACTORS
from repro.experiments import common
from repro.experiments.common import (
    build_cell,
    cell_key,
    clear_cache,
    replay_displacements,
)
from repro.sim import ReplayConfig, fabric_for, replay_baseline
from repro.sim.collectives import clear_schedule_cache, schedule_cache_stats
from repro.workloads import make_trace


def _replay_once(seed=3):
    trace = make_trace("alya", 8, iterations=3, seed=seed)
    cfg = ReplayConfig(seed=seed)
    fabric = fabric_for(8, cfg)
    replay_baseline(trace, cfg, fabric=fabric)
    return fabric


class TestScheduleCacheStats:
    def test_counters_are_process_cumulative(self):
        clear_schedule_cache()
        _replay_once()
        first = schedule_cache_stats()
        _replay_once()
        second = schedule_cache_stats()
        # the raw counters accumulate across replays — this is the
        # leakage the delta API exists to mask
        assert second["hits"] > first["hits"]

    def test_since_returns_per_run_delta(self):
        clear_schedule_cache()
        _replay_once()
        before = schedule_cache_stats()
        _replay_once()
        delta = schedule_cache_stats(since=before)
        # the second run's collectives hit the warm cache: all hits, no
        # misses, and exactly as many lookups as one run performs
        assert delta["misses"] == 0
        assert delta["hits"] == before["hits"] + before["misses"]

    def test_route_counters_reset_with_their_fabric(self):
        fabric_a = _replay_once()
        fabric_b = _replay_once()
        assert fabric_a.routes.pairs_compiled == fabric_b.routes.pairs_compiled
        assert fabric_b.routes.pairs_compiled > 0


def _cell_detail(key):
    """One cell through the pipeline: its per-run counters."""

    before = schedule_cache_stats()
    cell = build_cell(key)
    managed = replay_displacements(cell, key, DISPLACEMENT_FACTORS)
    pool_key = (key.nranks,) + key.replay_config().build_signature
    fabric = common._FABRICS[pool_key]
    return {
        "route_pairs_compiled": fabric.routes.pairs_compiled,
        "compiled_instructions": cell.programs.total_instructions,
        "helper_spawns": cell.baseline.helper_spawns + sum(
            m.helper_spawns for m in managed.values()
        ),
        "schedule_cache": schedule_cache_stats(since=before),
        "exec_time_us": {d: m.exec_time_us for d, m in managed.items()},
    }


class TestBenchDetailPerRun:
    def test_replay_detail_identical_across_back_to_back_runs(self):
        """A worker process running a cell after other cells (or twice)
        must report identical per-run replay detail."""

        key = cell_key(dict(app="alya", nranks=4, iterations=2))
        details = []
        for seed in (17, 23):
            # a cold schedule cache for the cell's shapes and an empty
            # fabric pool, then dirty the process counters as a
            # cell-worker's history would (alya@8 shares no schedule
            # shape with alya@4)
            clear_cache()
            _replay_once(seed=seed)
            assert schedule_cache_stats()["hits"] > 0
            details.append(_cell_detail(key))

        first, second = details
        assert first == second
        assert first["schedule_cache"]["misses"] > 0
        assert first["helper_spawns"] == 0
        assert first["route_pairs_compiled"] > 0
