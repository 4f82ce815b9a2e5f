"""``hca=gate`` as a one-rung ``LeveledLink``: the legs not yet pinned.

``LeveledLink`` with a single rung reduces to ``ManagedLink``'s
protocol, so the default policy's controller could be that one rung.
Before ``ManagedLink`` can go, the two must agree where the healthy
single-job replays do not reach: under wake timeouts on a faulted
fabric, and on the cluster path, where a later job takes over a host
and its HCA episode is handed on.  Each leg replays one cell twice, once
as shipped and once with ``ManagedLink.create`` (as the replay
composition calls it) building a one-rung ``LeveledLink`` instead, and
requires the same results bit for bit.

The legs compare account intervals by their effective draw;
``test_raw_intervals_equal`` compares them as recorded.  The account
records a rung at the nominal LOW draw as ``None``, as ``ManagedLink``
does, so the raw intervals are equal too.
"""

import pytest

from repro.experiments.cluster_sweep import run_cluster_cell
from repro.experiments.common import clear_cache, run_cell
from repro.power.policies import ClassPolicy, LeveledLink
from repro.sim import dimemas
from repro.sim.collectives import clear_schedule_cache

pytestmark = pytest.mark.differential

SEED, ITERS = 29, 6
DISPLACEMENTS = (0.01, 0.1)
#: wake timeouts on a fabric that also fails, flaps and degrades links
FAULTS = (
    "faults:seed=7,link_fail=0.2,flap=0.25,degrade=0.25,"
    "wake_timeout=0.5,horizon_us=2000"
)
#: two tenants; on 8 hosts the last job reuses an earlier job's hosts
STREAM = "list:jobs=alya@4|gromacs@4@1500@t1|alya@4@3000@t1"
CLUSTER_HOSTS = 8


def _one_rung_gate(monkeypatch) -> list:
    """Make the composition's ``gate`` controllers one-rung
    ``LeveledLink``s; returns the list of those built."""

    built = []

    def create(cls, link, params=None, **kwargs):
        ctrl = LeveledLink.create(link, ClassPolicy("gate"), params, **kwargs)
        built.append(ctrl)
        return ctrl

    monkeypatch.setattr(dimemas.ManagedLink, "create", classmethod(create))
    return built


def _drawn(acc) -> list:
    """An account's intervals with each one's effective power draw."""

    power_of = acc.params.power_of
    return [
        (i.start_us, i.end_us, i.mode,
         power_of(i.mode) if i.power is None else i.power)
        for i in acc.intervals
    ]


def _managed(m) -> dict:
    return {
        "exec_time_us": m.exec_time_us,
        "power_savings_pct": m.power_savings_pct,
        "counters": m.counters,
        "intervals": [_drawn(acc) for acc in m.accounts],
        "faults": m.faults,
    }


def _faulted_cell(kernel) -> dict:
    clear_schedule_cache()
    clear_cache()
    cell = run_cell(
        "alya", 8, displacements=DISPLACEMENTS, iterations=ITERS,
        seed=SEED, kernel=kernel, faults=FAULTS, use_cache=False,
    )
    return {d: _managed(cell.managed[d]) for d in DISPLACEMENTS}


def _cluster_cell(kernel) -> dict:
    clear_schedule_cache()
    clear_cache()
    cell = run_cluster_cell(
        STREAM, placement="spread", num_hosts=CLUSTER_HOSTS,
        displacement=DISPLACEMENTS[0], iterations=ITERS, seed=SEED,
        kernel=kernel,
    )
    return {
        "makespan": cell.managed.exec_time_us,
        "hosts": [m.cluster.hosts for m in cell.managed.jobs],
        "jobs": [_managed(m) for m in cell.managed.jobs],
    }


@pytest.mark.parametrize("kernel", ("fast", "reference"))
def test_faulted_fabric_with_wake_timeouts(kernel, monkeypatch):
    want = _faulted_cell(kernel)
    built = _one_rung_gate(monkeypatch)
    got = _faulted_cell(kernel)
    assert built and all(len(c.levels) == 1 for c in built)
    for d in DISPLACEMENTS:
        for key in want[d]:
            assert got[d][key] == want[d][key], (d, key)
    # guard against a vacuous leg: links gate and wakes time out
    assert any(
        c.shutdowns for d in DISPLACEMENTS for c in want[d]["counters"]
    )
    assert any(want[d]["faults"].wake_timeouts for d in DISPLACEMENTS)


@pytest.mark.parametrize("kernel", ("fast", "reference"))
def test_cluster_stream_with_host_handoff(kernel, monkeypatch):
    want = _cluster_cell(kernel)
    built = _one_rung_gate(monkeypatch)
    got = _cluster_cell(kernel)
    assert built
    assert got["makespan"] == want["makespan"]
    assert got["hosts"] == want["hosts"]
    for i, job in enumerate(want["jobs"]):
        for key in job:
            assert got["jobs"][i][key] == job[key], (i, key)
    # guard against a vacuous leg: HCAs gate, and a later job takes
    # over a host an earlier one released
    assert any(c.shutdowns for j in want["jobs"] for c in j["counters"])
    hosts = want["hosts"]
    assert any(
        set(a) & set(b) for i, a in enumerate(hosts) for b in hosts[i + 1:]
    )


def test_raw_intervals_equal(monkeypatch):
    clear_schedule_cache()
    clear_cache()
    want = run_cell("alya", 8, displacements=(0.1,), iterations=ITERS,
                    seed=SEED, use_cache=False).managed[0.1]
    _one_rung_gate(monkeypatch)
    clear_schedule_cache()
    clear_cache()
    got = run_cell("alya", 8, displacements=(0.1,), iterations=ITERS,
                   seed=SEED, use_cache=False).managed[0.1]
    assert any(c.shutdowns for c in want.counters)
    assert [acc.intervals for acc in got.accounts] == [
        acc.intervals for acc in want.accounts
    ]
