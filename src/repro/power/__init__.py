"""Power substrate: WRPS parameters, energy accounting, policy registry.

Implements the hardware side of the paper's mechanism: the Mellanox-style
Width Reduction Power Saving (43 % of nominal in 1X mode), the per-link
hardware reactivation timer (Fig. 5) and energy accounting over
power-state timelines, generalised by :mod:`repro.power.policies` into a
registry of policy families (``gate``/``width``/``scale``) applicable
per link class (``hca``/``trunk``/``switch``) via ``policy:...`` spec
strings.  :mod:`repro.power.rollup` turns a replay's closed accounts
into every savings number it reports — the per-run mean over HCA links,
the per-class rows and the Section VI per-switch view with the link
share of :class:`SwitchPowerModel`.
"""

from .controller import ManagedLink, PowerEventCounters
from .model import LinkEnergyAccount, StateInterval
from .policies import (
    DEFAULT_POLICY,
    NO_POLICY,
    POLICIES,
    ClassPolicy,
    GatedSwitch,
    IdleGatedLink,
    LeveledLink,
    PolicySpec,
    PolicySpecError,
    PowerLevel,
    PowerPolicy,
    parse_policy,
    policy_help,
)
from .rollup import ClassSavings, PowerReport, SwitchSavings
from .states import WRPSParams
from .switchpower import SwitchPowerModel

__all__ = [
    "ManagedLink",
    "PowerEventCounters",
    "LinkEnergyAccount",
    "PowerReport",
    "StateInterval",
    "WRPSParams",
    "SwitchPowerModel",
    "DEFAULT_POLICY",
    "NO_POLICY",
    "POLICIES",
    "ClassPolicy",
    "ClassSavings",
    "SwitchSavings",
    "GatedSwitch",
    "IdleGatedLink",
    "LeveledLink",
    "PolicySpec",
    "PolicySpecError",
    "PowerLevel",
    "PowerPolicy",
    "parse_policy",
    "policy_help",
]
