"""One cell body for every sweep: what ``sweep_cell`` buys.

Policy and fault axes combine in one verified grid, a clean topology
grid resumes from its checkpoint journal like a faulted one, and a
single diverging observable fails the verify gate of either sweep with
one error that names the cell.
"""

import itertools

import pytest

from repro.cli import main
from repro.experiments import cluster_sweep, sweep
from repro.experiments.common import clear_cache
from repro.experiments.sweep import SWEEP_COLUMNS, run_sweep
from repro.network.faults import NO_FAULTS

FAULTS = "faults:seed=7,degrade=0.3,wake_timeout=0.2"
POLICY = "policy:hca=gate,trunk=width:levels=3,switch=gate"
GRID = dict(apps=("alya",), nranks_list=(8,), iterations=6, seed=91)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def _diverging(observables):
    """``observables`` plus a probe that differs on every call, so the
    second (reference-kernel) run of a cell never matches the first."""

    calls = itertools.count()

    def probe(spec, cell):
        return dict(observables(spec, cell), probe=next(calls))

    return probe


class TestPolicyTimesFaults:
    def test_verified_grid(self):
        rows = run_sweep(
            **GRID, topologies=("torus:k=3,n=2",),
            fault_specs=(NO_FAULTS, FAULTS),
            policies=("policy:hca=gate", POLICY), verify=True,
        )
        assert [(r.faults, r.policy) for r in rows] == [
            (NO_FAULTS, "policy:hca=gate"), (NO_FAULTS, POLICY),
            (FAULTS, "policy:hca=gate"), (FAULTS, POLICY),
        ]
        assert all(r.status == "ok" and r.savings_pct > 0 for r in rows)
        clean_gate, clean_managed, faulted_gate, faulted_managed = rows
        # trunks and switches are managed only under the second policy
        assert clean_gate.trunk_savings_pct == 0.0
        assert clean_managed.trunk_savings_pct > 0.0
        assert faulted_managed.trunk_savings_pct > 0.0
        # the fault schedule acts under both policies
        assert faulted_gate.events_applied > 0
        assert faulted_managed.events_applied > 0
        assert faulted_gate.wake_timeouts > 0
        assert faulted_managed.wake_timeouts > 0
        assert clean_managed.events_applied == 0


class TestCleanGridCheckpoint:
    def test_resumes_from_journal(self, tmp_path, monkeypatch):
        journal = str(tmp_path / "clean.journal")
        kwargs = dict(GRID, topologies=("fitted", "torus:k=3,n=2"),
                      checkpoint=journal)
        first = run_sweep(**kwargs)
        assert [r.faults for r in first] == [NO_FAULTS, NO_FAULTS]
        clear_cache()

        def no_rerun(**spec):
            raise AssertionError(f"cell recomputed: {spec}")

        monkeypatch.setattr(sweep, "run_cell", no_rerun)
        assert run_sweep(**kwargs) == first


class TestDivergingObservable:
    def test_single_job_cell_names_the_cell(self, monkeypatch):
        monkeypatch.setattr(
            sweep, "single_job_observables",
            _diverging(sweep.single_job_observables),
        )
        with pytest.raises(AssertionError) as excinfo:
            run_sweep(**GRID, topologies=("fitted",), verify=True)
        message = str(excinfo.value)
        assert "alya@8 fitted none policy:hca=gate" in message
        assert message.endswith(": probe diverged")

    def test_cluster_cell_names_the_cell(self, monkeypatch):
        monkeypatch.setattr(
            cluster_sweep, "cluster_observables",
            _diverging(cluster_sweep.cluster_observables),
        )
        stream = "static:n=2,gap_us=1000,ranks=4,apps=alya"
        with pytest.raises(AssertionError) as excinfo:
            cluster_sweep.run_cluster_sweep(
                [stream], placements=("packed",), topologies=("fitted",),
                iterations=GRID["iterations"], verify=True,
            )
        message = str(excinfo.value)
        assert f"{stream} packed fitted" in message
        assert message.endswith(": probe diverged")


def test_cli_csv_names_every_row_field(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    assert main(["sweep", "--apps", "alya", "--nranks", "8",
                 "--iterations", "3", "--topologies", "fitted",
                 "--csv", str(path)]) == 0
    header, row = path.read_text().splitlines()
    assert header.split(",") == list(SWEEP_COLUMNS)
    assert row.startswith("policy:hca=gate,fitted,fitted,none,alya,8,ok,")
    assert "# fitted  [none]" in capsys.readouterr().out
