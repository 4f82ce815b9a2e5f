"""The run's power outcome, rolled up from closed link accounts.

Every number a managed replay reports about energy comes from here, and
only from the ``(total_us, energy_us, low_us)`` triple each closed
:class:`~repro.power.model.LinkEnergyAccount` keeps
(:attr:`~repro.power.model.LinkEnergyAccount.integral`), so each account
is integrated exactly once per replay:

* :class:`PowerReport` — the paper's per-run number, the mean over HCA
  links of ``power savings [%] = (1 - E_managed / E_always_on) * 100``
  (E_always_on is nominal power times the link's timeline span);
* :class:`ClassSavings` — one row per managed link class, energies
  summed account by account;
* :class:`SwitchSavings` — the Section VI whole-switch view per switch,
  with the 64 % link share of :class:`~repro.power.switchpower.
  SwitchPowerModel`;
* the HCA link energy a cluster job is attributed and the fabric total
  it is checked against (:func:`energy_us`).

The entry points read a power domain
(:class:`repro.sim.dimemas.PowerDomain`) through its ``spec``,
``fabric``, ``trunk_links``, ``gated_switches`` and ``episodes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import LinkEnergyAccount
from .policies import LINK_CLASSES, PolicySpec
from .switchpower import SwitchPowerModel

_SWITCH = SwitchPowerModel()


@dataclass(frozen=True, slots=True)
class PowerReport:
    """Aggregated power outcome of one simulated run."""

    mean_savings_pct: float
    per_link_savings_pct: tuple[float, ...]
    mean_low_residency_pct: float
    total_transitions_to_low: int
    wall_time_us: float


@dataclass(frozen=True, slots=True)
class ClassSavings:
    """Energy outcome of one managed link class over a replay."""

    link_class: str
    policy: str
    members: int
    savings_pct: float
    low_residency_pct: float
    #: integral of normalised power over all members' timelines (us)
    energy_us: float
    #: sum of all members' timeline spans (us) — the always-on energy
    total_us: float


@dataclass(frozen=True, slots=True)
class SwitchSavings:
    """Whole-switch savings of one switch, radix-aware.

    ``link_savings_pct`` is the mean over the switch's *managed* ports
    only; ``switch_savings_pct`` dilutes it over the full radix (the
    unmanaged ports — trunk cables and unmanaged hosts — stay at full
    power) before applying the link share of switch power, which is
    what makes rollups comparable between a 36-port fat-tree leaf and a
    p+a-1+h-port dragonfly router.
    """

    switch: str
    radix: int
    managed_links: int
    link_savings_pct: float
    switch_savings_pct: float


# -- one account -------------------------------------------------------------


def link_savings_pct(account: LinkEnergyAccount) -> float:
    """``100 * (1 - E / E_always_on)`` over one closed account."""

    total, energy, _ = account.integral
    return 100.0 * (1.0 - energy / total) if total > 0 else 0.0


def link_low_residency_pct(account: LinkEnergyAccount) -> float:
    """Share of one closed account's span spent in LOW, in percent."""

    total, _, low = account.integral
    return 100.0 * (low / total) if total > 0 else 0.0


def energy_us(accounts: Iterable[LinkEnergyAccount]) -> float:
    """Summed energy of closed accounts (us at nominal power)."""

    return sum(acc.integral[1] for acc in accounts)


# -- a replay ----------------------------------------------------------------


def world_power(
    domain,
    hosts: Sequence[int],
    accounts: Sequence[LinkEnergyAccount],
    wall_time_us: float,
    *,
    whole_domain: bool = False,
) -> tuple[PowerReport, tuple[ClassSavings, ...], tuple[SwitchSavings, ...]]:
    """One world's report, class rows and per-switch rows.

    ``accounts[i]`` is the closed HCA account of fabric host
    ``hosts[i]``.  ``whole_domain`` appends the trunk/switch class rows
    (a one-world replay reports the whole domain; a cluster reports
    them once, in :func:`fabric_power`).
    """

    report = power_report(accounts, wall_time_us)
    classes = {"hca": accounts}
    if whole_domain:
        classes.update(_fabric_classes(domain))
    return (
        report,
        class_rows(domain.spec, classes),
        switch_rows(
            domain.fabric, hosts, report.per_link_savings_pct,
            {gs.node: gs.account for gs in domain.gated_switches},
        ),
    )


def fabric_power(domain) -> tuple[float, tuple[ClassSavings, ...]]:
    """The domain's fabric-level outcome: the HCA energy integrated
    over every episode it opened, and the trunk/switch class rows."""

    return (
        energy_us(ml.account for ml in domain.episodes),
        class_rows(domain.spec, _fabric_classes(domain)),
    )


def fleet_savings_pct(rows: Sequence[SwitchSavings]) -> float:
    """Radix-weighted fleet mean over per-switch rows.

    Weighting by radix makes big switches count proportionally to the
    power they draw, so mixed-radix fabrics aggregate correctly.
    """

    total_ports = sum(r.radix for r in rows)
    if total_ports == 0:
        return 0.0
    return sum(r.switch_savings_pct * r.radix for r in rows) / total_ports


# -- the rows ----------------------------------------------------------------


def _fabric_classes(domain) -> dict[str, list[LinkEnergyAccount]]:
    return {
        "trunk": [tl.account for tl in domain.trunk_links],
        "switch": [gs.account for gs in domain.gated_switches],
    }


def power_report(
    accounts: Sequence[LinkEnergyAccount], wall_time_us: float
) -> PowerReport:
    """The paper's per-process average over HCA links.  No accounts (the
    hca class unmanaged) gives the vacuous all-zero report."""

    savings = [link_savings_pct(acc) for acc in accounts]
    low_res = [link_low_residency_pct(acc) for acc in accounts]
    n = len(savings) or 1
    return PowerReport(
        mean_savings_pct=sum(savings) / n,
        per_link_savings_pct=tuple(savings),
        mean_low_residency_pct=sum(low_res) / n,
        total_transitions_to_low=sum(
            acc.transitions_to_low for acc in accounts
        ),
        wall_time_us=wall_time_us,
    )


def class_rows(
    spec: PolicySpec,
    class_accounts: "dict[str, list[LinkEnergyAccount]]",
) -> tuple[ClassSavings, ...]:
    """One row per class with accounts, in canonical class order.

    Energies sum account by account, so the rows' ``energy_us`` totals
    reproduce the fabric-level link energy exactly (the cluster tier's
    energy-sum check relies on this).
    """

    rows = []
    for name in LINK_CLASSES:
        accounts = class_accounts.get(name)
        if not accounts:
            continue
        total = 0.0
        energy = 0.0
        low = 0.0
        for acc in accounts:
            t, e, l = acc.integral
            total += t
            energy += e
            low += l
        rows.append(
            ClassSavings(
                link_class=name,
                policy=spec.for_class(name).describe(),
                members=len(accounts),
                savings_pct=(
                    100.0 * (1.0 - energy / total) if total > 0 else 0.0
                ),
                low_residency_pct=100.0 * low / total if total > 0 else 0.0,
                energy_us=energy,
                total_us=total,
            )
        )
    return tuple(rows)


def switch_rows(
    fabric,
    hosts: Sequence[int],
    link_pct: Sequence[float],
    switch_accounts: dict,
) -> tuple[SwitchSavings, ...]:
    """Per-switch savings over the HCA links' savings ``link_pct``.

    ``link_pct[i]`` is attributed to the switch fabric host ``hosts[i]``
    hangs off.  Every fabric switch gets a row — a switch carrying no
    managed link (a fat tree's spines, a dragonfly's host-free routers)
    contributes zero savings at its full radix, so the fleet rollup
    stays comparable across families.  A switch with an account in
    ``switch_accounts`` (``policy:...,switch=gate``) composes the
    diluted link savings with the savings of its non-link share, which
    its own timeline integrates to — exact for any descent ladder.
    """

    m = _SWITCH
    per_switch: dict = {node: [] for node in fabric.switches}
    for host, pct in zip(hosts, link_pct):
        link = fabric.host_link(host)
        switch_node = next(e for e in link.endpoints if not e.is_host)
        per_switch[switch_node].append(pct)
    rows = []
    for node in sorted(per_switch):
        savings = per_switch[node]
        radix = fabric.switches[node].radix
        sacc = switch_accounts.get(node)
        if sacc is not None:
            diluted = sum(savings) / radix if savings else 0.0
            switch_pct = (
                diluted * m.link_share
                + link_savings_pct(sacc) * m.other_share
            )
        else:
            switch_pct = (
                m.switch_savings_pct(sum(savings) / radix)
                if savings else 0.0
            )
        rows.append(
            SwitchSavings(
                switch=str(node),
                radix=radix,
                managed_links=len(savings),
                link_savings_pct=(
                    sum(savings) / len(savings) if savings else 0.0
                ),
                switch_savings_pct=switch_pct,
            )
        )
    return tuple(rows)
