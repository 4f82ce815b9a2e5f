"""The static power breakdown of one switch (Section VI).

The paper's headline numbers follow the *link power* convention (LOW mode
at 43 % of nominal link power).  The IBM 8-port 12X datum says links
account for 64 % of switch power; the rest (input buffers, crossbar,
control) stays on in the paper's main scheme.  :class:`SwitchPowerModel`
holds that split; :mod:`repro.power.rollup` applies it per switch, and
composes a gated switch's non-link share (``policy:...,switch=gate``,
the Section VI deep-sleep extension) from its own energy account.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import LINK_SHARE_OF_SWITCH_POWER


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
