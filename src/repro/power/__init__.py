"""Power substrate: WRPS parameters, energy accounting, policy registry.

Implements the hardware side of the paper's mechanism: the Mellanox-style
Width Reduction Power Saving (43 % of nominal in 1X mode), the per-link
hardware reactivation timer (Fig. 5), energy integration over power-state
timelines, and switch-level aggregation for the Section VI extension —
generalised by :mod:`repro.power.policies` into a registry of policy
families (``gate``/``width``/``scale``) applicable per link class
(``hca``/``trunk``/``switch``) via ``policy:...`` spec strings.
"""

from .controller import ManagedLink, PowerEventCounters
from .model import (
    LinkEnergyAccount,
    PowerReport,
    StateInterval,
    aggregate,
)
from .policies import (
    DEFAULT_POLICY,
    NO_POLICY,
    POLICIES,
    ClassPolicy,
    ClassSavings,
    GatedSwitch,
    IdleGatedLink,
    LeveledLink,
    PolicySpec,
    PolicySpecError,
    PowerLevel,
    PowerPolicy,
    class_savings_rows,
    parse_policy,
    policy_help,
)
from .states import WRPSParams
from .switchpower import SwitchPowerModel, fleet_switch_savings_pct

__all__ = [
    "ManagedLink",
    "PowerEventCounters",
    "LinkEnergyAccount",
    "PowerReport",
    "StateInterval",
    "aggregate",
    "WRPSParams",
    "SwitchPowerModel",
    "fleet_switch_savings_pct",
    "DEFAULT_POLICY",
    "NO_POLICY",
    "POLICIES",
    "ClassPolicy",
    "ClassSavings",
    "GatedSwitch",
    "IdleGatedLink",
    "LeveledLink",
    "PolicySpec",
    "PolicySpecError",
    "PowerLevel",
    "PowerPolicy",
    "class_savings_rows",
    "parse_policy",
    "policy_help",
]
