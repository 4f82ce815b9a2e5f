"""Switch-level power aggregation and the Section VI deep-sleep extension.

The paper's headline numbers follow the *link power* convention (LOW mode
at 43 % of nominal link power).  This module adds two refinements used by
the ablation benches:

1. **Whole-switch scaling** — the IBM 8-port 12X datum says links account
   for 64 % of switch power; the rest (input buffers, crossbar, control)
   stays on in the paper's main scheme.  :class:`SwitchPowerModel`
   converts per-link savings to whole-switch savings.
2. **Deep sleep** (Section VI future work) — powering down buffers and
   crossbar too, with reactivation up to a millisecond.  The ablation
   bench reruns the pipeline with :meth:`WRPSParams.deep_sleep`-style
   parameters to show how the predictor amortises long wake-ups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..constants import LINK_SHARE_OF_SWITCH_POWER
from .model import LinkEnergyAccount


@dataclass(frozen=True, slots=True)
class SwitchPowerModel:
    """Static power breakdown of one IB switch."""

    link_share: float = LINK_SHARE_OF_SWITCH_POWER

    def __post_init__(self) -> None:
        if not 0.0 < self.link_share <= 1.0:
            raise ValueError("link_share must be in (0, 1]")

    @property
    def other_share(self) -> float:
        return 1.0 - self.link_share

    def switch_savings_pct(self, link_savings_pct: float) -> float:
        """Whole-switch savings when only links are managed."""

        if link_savings_pct < 0:
            raise ValueError("negative savings")
        return link_savings_pct * self.link_share

    def switch_savings_with_deep_sleep_pct(
        self,
        link_savings_pct: float,
        other_low_residency_pct: float,
        other_sleep_power_fraction: float = 0.1,
    ) -> float:
        """Whole-switch savings if buffers/crossbar also sleep.

        ``other_low_residency_pct`` is the share of time the non-link
        components spend asleep; when asleep they draw
        ``other_sleep_power_fraction`` of their nominal power.
        """

        if not 0.0 <= other_low_residency_pct <= 100.0:
            raise ValueError("residency must be a percentage")
        other_sav = (other_low_residency_pct / 100.0) * (
            1.0 - other_sleep_power_fraction
        )
        return (
            link_savings_pct * self.link_share
            + 100.0 * other_sav * self.other_share
        )


def fleet_switch_savings_pct(
    accounts: Sequence[LinkEnergyAccount],
    model: SwitchPowerModel | None = None,
) -> float:
    """Average whole-switch savings over a set of closed link accounts."""

    if not accounts:
        raise ValueError("no accounts")
    m = model or SwitchPowerModel()
    link_sav = [100.0 * a.savings_fraction() for a in accounts]
    return m.switch_savings_pct(sum(link_sav) / len(link_sav))


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


def fabric_switch_rollup(
    fabric,
    accounts: Sequence[LinkEnergyAccount],
    model: SwitchPowerModel | None = None,
    link_savings_pct: Sequence[float] | None = None,
    hosts: Sequence[int] | None = None,
    switch_accounts: "dict | None" = None,
) -> tuple[SwitchSavings, ...]:
    """Per-switch savings rollup over a replay's managed HCA accounts.

    ``accounts[rank]`` must be rank ``rank``'s HCA-link energy account
    (the :class:`~repro.sim.results.ManagedResult` convention).  Each
    account is attributed to the switch its host link lands on; every
    fabric switch gets a row — a switch carrying no managed link (a fat
    tree's spines, a dragonfly's host-free routers) contributes zero
    savings at its full radix, so the fleet rollup stays comparable
    *across* families instead of silently dropping the all-on part of
    one family's fabric.  Heterogeneous radixes are exactly why the
    dilution is per switch.

    ``hosts`` overrides the single-job ``accounts[rank] -> host rank``
    identity: cluster jobs occupy an arbitrary placement-chosen host
    set, so ``hosts[i]`` names the fabric host whose HCA link
    ``accounts[i]`` belongs to.

    ``switch_accounts`` maps switch node -> the (closed) energy account
    of that switch's *non-link* component, produced when the policy
    registry gates whole switches (``policy:...,switch=gate``).  A
    gated switch's row composes the diluted link savings with the
    other-share savings its own timeline integrates to — the per-class
    generalisation of :meth:`SwitchPowerModel.
    switch_savings_with_deep_sleep_pct`, exact for any descent ladder.
    """

    if hosts is not None and len(hosts) != len(accounts):
        raise ValueError(
            f"hosts maps {len(hosts)} accounts, got {len(accounts)}"
        )
    m = model or SwitchPowerModel()
    per_switch: dict = {node: [] for node in fabric.switches}
    for rank, account in enumerate(accounts):
        link = fabric.host_link(hosts[rank] if hosts is not None else rank)
        switch_node = next(e for e in link.endpoints if not e.is_host)
        per_switch[switch_node].append(
            # reuse the integrals a caller (replay_managed's aggregate)
            # already computed instead of re-walking every timeline
            link_savings_pct[rank]
            if link_savings_pct is not None
            else 100.0 * account.savings_fraction()
        )
    rows = []
    for node in sorted(per_switch):
        savings = per_switch[node]
        radix = fabric.switches[node].radix
        sacc = switch_accounts.get(node) if switch_accounts else None
        if sacc is not None:
            diluted = sum(savings) / radix if savings else 0.0
            switch_pct = (
                diluted * m.link_share
                + 100.0 * sacc.savings_fraction() * m.other_share
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


def rollup_fleet_savings_pct(rows: Sequence[SwitchSavings]) -> float:
    """Radix-weighted fleet mean over a :func:`fabric_switch_rollup`.

    Weighting by radix makes big switches count proportionally to the
    power they draw, so mixed-radix fabrics aggregate correctly.
    """

    total_ports = sum(r.radix for r in rows)
    if total_ports == 0:
        return 0.0
    return sum(r.switch_savings_pct * r.radix for r in rows) / total_ports
