"""The cell pipeline builds no ``MPIEvent``.

Both replay kernels append each MPI call's code and bracket straight
into the rank's :class:`~repro.trace.events.EventLog` columns, and GT
selection, the planning pass, the managed replays and the service
payload read those columns.  An ``MPIEvent`` is built only when a log
is indexed or iterated, which no stage of the pipeline does.
"""

from __future__ import annotations

import pytest

from repro.constants import DISPLACEMENT_FACTORS
from repro.experiments.common import clear_cache, run_cell
from repro.service.caches import cell_payload, normalize_spec
from repro.sim import replay_baseline
from repro.trace.events import MPIEvent
from repro.workloads import make_trace

SPEC = dict(app="alya", nranks=8, iterations=6, seed=17)


@pytest.fixture(autouse=True)
def _serial_and_clean(monkeypatch):
    # a worker process would build its events out of the spy's sight
    monkeypatch.setenv("REPRO_WORKERS", "1")
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def constructions(monkeypatch):
    made = [0]
    init = MPIEvent.__init__

    def counting(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(MPIEvent, "__init__", counting)
    return made


@pytest.mark.parametrize(
    "policy", ["policy:hca=gate", "policy:hca=gate,trunk=gate,switch=gate"]
)
def test_a_cold_cell_and_its_payloads_build_no_event(constructions, policy):
    cell = run_cell(
        **SPEC, displacements=DISPLACEMENT_FACTORS, policy=policy
    )
    payloads = [
        cell_payload(
            normalize_spec(dict(SPEC, displacement=d, policy=policy)),
            cell.gt, cell.baseline, cell.managed[d],
        )
        for d in DISPLACEMENT_FACTORS
    ]
    assert constructions[0] == 0
    # the pipeline did run: calls were logged and replayed
    assert sum(len(log) for log in cell.baseline.event_logs) > 0
    assert all(p["total_shutdowns"] > 0 for p in payloads)
    # the spy itself sees an on-demand materialisation
    cell.baseline.event_logs[0][0]
    assert constructions[0] == 1


def test_a_baseline_log_holds_17_bytes_per_call():
    baseline = replay_baseline(make_trace("alya", 16, iterations=6, seed=3))
    for log in baseline.event_logs:
        columns = (log.calls, log.enter_us, log.exit_us)
        assert all(len(col) == len(log) > 0 for col in columns)
        assert sum(col.itemsize * len(col) for col in columns) <= 17 * len(log)
