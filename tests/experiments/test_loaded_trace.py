"""A loaded trace is a cell source of the one pipeline.

``build_cell(trace_cell_key(trace), trace=trace)`` replaces trace
generation by a trace read from a ``.dim`` file; everything after it
(programs, fabric, baseline, GT, planning, managed replays) is the
pipeline every generated cell runs.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import (
    STAGES,
    build_cell,
    cell_key,
    replay_displacements,
    run_cell,
    trace_cell_key,
)
from repro.trace.io import dumps_trace, loads_trace
from repro.workloads import make_trace

SPEC = dict(app="gromacs", nranks=8, iterations=3, seed=41)
DISPLACEMENTS = (0.01, 0.1)


def _loaded_trace():
    """The spec's trace, round-tripped through the ``.dim`` text."""

    return loads_trace(dumps_trace(make_trace(
        SPEC["app"], SPEC["nranks"], iterations=SPEC["iterations"],
        seed=SPEC["seed"],
    )))


def _fingerprint(managed):
    return {
        disp: (
            m.exec_time_us,
            m.event_logs,
            m.power,
            m.counters,
            [acc.intervals for acc in m.accounts],
            m.helper_spawns,
        )
        for disp, m in managed.items()
    }


def _loaded_cell(kernel="fast"):
    trace = _loaded_trace()
    key = trace_cell_key(trace, seed=SPEC["seed"], kernel=kernel)
    stages = []
    return key, build_cell(key, stages.append, trace=trace), stages


class TestKey:
    def test_names_the_trace_by_its_content(self):
        key = trace_cell_key(_loaded_trace())
        assert key.app.startswith("trace:")
        assert key == trace_cell_key(_loaded_trace())
        other = make_trace("gromacs", 8, iterations=4, seed=41)
        assert trace_cell_key(other) != key
        assert key != cell_key(dict(SPEC))
        assert (key.nranks, key.iterations) == (8, 0)

    def test_no_trace_generation_stage(self):
        _, cell, stages = _loaded_cell()
        assert stages == list(STAGES[1:5])
        assert cell.trace is not None  # it cannot be regenerated


@pytest.mark.parametrize("kernel", ["fast", "reference"])
def test_loaded_cell_equals_generated_cell(kernel):
    key, cell, _ = _loaded_cell(kernel)
    managed = replay_displacements(cell, key, DISPLACEMENTS)
    generated = run_cell(**SPEC, kernel=kernel, displacements=DISPLACEMENTS,
                         use_cache=False)
    assert cell.baseline.exec_time_us == generated.baseline.exec_time_us
    assert cell.baseline.event_logs == generated.baseline.event_logs
    assert cell.planned_gt_us == generated.planned_gt_us
    assert _fingerprint(managed) == _fingerprint(generated.managed)


@pytest.mark.parametrize("kernel", ["fast", "reference"])
def test_worker_fan_out_equals_serial(kernel, monkeypatch):
    """The fan-out hands the kept trace to its workers: a worker cannot
    regenerate a ``trace:`` key, so a result at all shows it did."""

    key, cell, _ = _loaded_cell(kernel)
    serial = replay_displacements(cell, key, DISPLACEMENTS)
    monkeypatch.setenv("REPRO_WORKERS", "2")
    key, cell, _ = _loaded_cell(kernel)
    fanned = replay_displacements(cell, key, DISPLACEMENTS)
    assert _fingerprint(fanned) == _fingerprint(serial)
