"""The energy rollup: one integration per closed account, equal numbers.

:mod:`repro.power.rollup` derives every energy number of a replay from
the ``integral`` triple :meth:`LinkEnergyAccount.close` keeps.  Two
checks over real replays:

* a spy on the account's timeline walks (``integrate`` and ``energy``)
  counts exactly one ``integrate`` per closed account, and no
  ``energy`` walk, on a default-gate replay, a trunk+switch replay and
  a cluster cell with an HCA episode handoff;
* test-local copies of the rollup code the module replaced (one
  function per former owner, each over ``integrate()``/``energy()``)
  rerun on the same closed accounts and must give ``==`` (not approx)
  reports, class rows, switch rows and cluster energy sums.
"""

from collections import Counter

import pytest

from repro.experiments.cluster_sweep import run_cluster_cell
from repro.experiments.common import clear_cache, run_cell
from repro.power import rollup
from repro.power.model import LinkEnergyAccount
from repro.power.policies import LINK_CLASSES
from repro.power.rollup import ClassSavings, PowerReport, SwitchSavings
from repro.power.switchpower import SwitchPowerModel

ITERS, DISP = 4, 0.01
TRUNK_SWITCH = ("fattree2:leaf=8,ratio=4",
                "policy:hca=gate,trunk=gate,switch=gate")
FAULTS = (
    "faults:seed=7,link_fail=0.15,flap=0.2,degrade=0.2,"
    "wake_timeout=0.25,horizon_us=4000"
)
#: three jobs of 8 ranks on 16 hosts: the third takes over the first
#: job's hosts, so an HCA episode is handed off mid-run
STREAM = "poisson:n=3,mean_gap_us=2000,seed=7,apps=alya,ranks=8"
CLUSTER_HOSTS, CLUSTER_TOPOLOGY = 16, "torus:n=2"


def _single(app="gromacs", nranks=16, **kw):
    clear_cache()
    cell = run_cell(app, nranks, iterations=ITERS, displacements=(DISP,),
                    use_cache=False, **kw)
    return cell.managed[DISP]


def _cluster():
    clear_cache()
    cell = run_cluster_cell(
        STREAM, num_hosts=CLUSTER_HOSTS, topology=CLUSTER_TOPOLOGY,
        iterations=ITERS,
    )
    first, _, last = (set(m.cluster.hosts) for m in cell.managed.jobs)
    assert first & last, "the stream must hand an HCA episode off"
    return cell.managed


# -- one integration per closed account ---------------------------------------


@pytest.fixture
def walks(monkeypatch):
    """Per closed account: how often each timeline walk ran on it."""

    closed: dict[int, LinkEnergyAccount] = {}
    counts: Counter = Counter()
    close = LinkEnergyAccount.close

    def spy_close(self, t_end_us):
        closed[id(self)] = self
        close(self, t_end_us)

    monkeypatch.setattr(LinkEnergyAccount, "close", spy_close)
    for name in ("integrate", "energy"):
        walk = getattr(LinkEnergyAccount, name)

        def spy(self, _walk=walk, _name=name):
            counts[_name, id(self)] += 1
            return _walk(self)

        monkeypatch.setattr(LinkEnergyAccount, name, spy)

    def per_account():
        return [
            (counts["integrate", key], counts["energy", key])
            for key in closed
        ]

    return per_account


@pytest.mark.parametrize("run", [
    pytest.param(lambda: _single(), id="gate-fitted"),
    pytest.param(
        lambda: _single("alya", 8, topology=TRUNK_SWITCH[0],
                        policy=TRUNK_SWITCH[1]),
        id="trunk-switch",
    ),
    pytest.param(_cluster, id="cluster-handoff"),
])
def test_each_closed_account_integrates_once(walks, run):
    run()
    per_account = walks()
    assert per_account
    assert set(per_account) == {(1, 0)}


# -- the numbers equal the former rollups' --------------------------------------


def _former_aggregate(accounts, wall_time_us):
    """``power.model.aggregate`` as it was."""

    if not accounts:
        # ``managed_result``'s second path for an unmanaged hca class
        return PowerReport(0.0, (), 0.0, 0, wall_time_us)
    savings, low_res, transitions = [], [], 0
    for acc in accounts:
        acc.close(wall_time_us)
        total, energy, low = acc.integrate()
        if total > 0:
            savings.append(100.0 * (1.0 - energy / total))
            low_res.append(100.0 * (low / total))
        else:
            savings.append(0.0)
            low_res.append(0.0)
        transitions += acc.transitions_to_low
    return PowerReport(
        mean_savings_pct=sum(savings) / len(savings),
        per_link_savings_pct=tuple(savings),
        mean_low_residency_pct=sum(low_res) / len(low_res),
        total_transitions_to_low=transitions,
        wall_time_us=wall_time_us,
    )


def _former_class_rows(spec, class_accounts):
    """``power.policies.class_savings_rows`` as it was."""

    rows = []
    for name in LINK_CLASSES:
        accounts = class_accounts.get(name)
        if not accounts:
            continue
        total = energy = low = 0.0
        for acc in accounts:
            t, e, l = acc.integrate()
            total += t
            energy += e
            low += l
        rows.append(ClassSavings(
            link_class=name,
            policy=spec.for_class(name).describe(),
            members=len(accounts),
            savings_pct=100.0 * (1.0 - energy / total) if total > 0 else 0.0,
            low_residency_pct=100.0 * low / total if total > 0 else 0.0,
            energy_us=energy,
            total_us=total,
        ))
    return tuple(rows)


def _former_savings_fraction(acc):
    total, energy, _ = acc.integrate()
    if total <= 0:
        return 0.0
    return 1.0 - energy / total


def _former_switch_rollup(fabric, accounts, link_savings_pct, hosts,
                          switch_accounts):
    """``power.switchpower.fabric_switch_rollup`` as it was."""

    m = SwitchPowerModel()
    per_switch = {node: [] for node in fabric.switches}
    for rank, _account in enumerate(accounts):
        link = fabric.host_link(hosts[rank])
        node = next(e for e in link.endpoints if not e.is_host)
        per_switch[node].append(link_savings_pct[rank])
    rows = []
    for node in sorted(per_switch):
        savings = per_switch[node]
        radix = fabric.switches[node].radix
        sacc = switch_accounts.get(node) if switch_accounts else None
        if sacc is not None:
            diluted = sum(savings) / radix if savings else 0.0
            switch_pct = (
                diluted * m.link_share
                + 100.0 * _former_savings_fraction(sacc) * m.other_share
            )
        else:
            switch_pct = (
                m.switch_savings_pct(sum(savings) / radix) if savings else 0.0
            )
        rows.append(SwitchSavings(
            switch=str(node),
            radix=radix,
            managed_links=len(savings),
            link_savings_pct=sum(savings) / len(savings) if savings else 0.0,
            switch_savings_pct=switch_pct,
        ))
    return tuple(rows)


def _fabric_accounts(domain):
    return {
        "trunk": [tl.account for tl in domain.trunk_links],
        "switch": [gs.account for gs in domain.gated_switches],
    }


@pytest.fixture
def domains(monkeypatch):
    """Every power domain the rollup reads, with each world's hosts."""

    seen = []
    world_power = rollup.world_power

    def spy(domain, hosts, accounts, wall_time_us, **kw):
        seen.append((domain, list(hosts), wall_time_us))
        return world_power(domain, hosts, accounts, wall_time_us, **kw)

    monkeypatch.setattr(rollup, "world_power", spy)
    return seen


def _former_world(mr, domain, hosts, wall_time_us, whole_domain):
    report = _former_aggregate(mr.accounts, wall_time_us)
    rows = _former_class_rows(domain.spec, {"hca": mr.accounts})
    if whole_domain:
        rows += _former_class_rows(domain.spec, _fabric_accounts(domain))
    switches = _former_switch_rollup(
        domain.fabric, mr.accounts, report.per_link_savings_pct, hosts,
        {gs.node: gs.account for gs in domain.gated_switches} or None,
    )
    return report, rows, switches


@pytest.mark.parametrize("kw", [
    pytest.param({}, id="gate"),
    pytest.param({"policy": "policy:hca=width"}, id="width"),
    pytest.param({"policy": "policy:hca=scale"}, id="scale"),
    pytest.param({"policy": "none"}, id="unmanaged"),
    pytest.param(
        {"app": "alya", "nranks": 8, "topology": TRUNK_SWITCH[0],
         "policy": TRUNK_SWITCH[1]},
        id="trunk-switch",
    ),
    pytest.param({"app": "alya", "nranks": 8, "faults": FAULTS},
                 id="faulted"),
])
def test_single_job_equals_former_rollups(domains, kw):
    mr = _single(**kw)
    domain, hosts, wall = domains[-1]
    assert wall == mr.exec_time_us
    report, rows, switches = _former_world(mr, domain, hosts, wall, True)
    assert mr.power == report
    assert mr.class_savings == rows
    assert mr.switch_savings == switches


def test_cluster_equals_former_sums(domains):
    managed = _cluster()
    # the stream's own worlds come last, after the isolated job cells
    worlds = domains[-len(managed.jobs):]
    domain = worlds[0][0]
    for mr, (dom, hosts, wall) in zip(managed.jobs, worlds):
        assert dom is domain and wall == managed.exec_time_us
        report, rows, switches = _former_world(mr, dom, hosts, wall, False)
        assert mr.power == report
        assert mr.class_savings == rows
        assert mr.switch_savings == switches
        assert mr.cluster.link_energy_us == sum(
            a.energy() for a in mr.accounts
        )
    assert managed.fabric_link_energy_us == sum(
        ml.account.energy() for ml in domain.episodes
    )
    assert managed.class_savings == _former_class_rows(
        domain.spec, _fabric_accounts(domain)
    )
