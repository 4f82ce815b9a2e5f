"""Network-level probes (the Venus role's reporting side).

The detailed network behaviour itself lives in :mod:`repro.network`; this
module extracts per-link traffic and utilisation from a fabric after a
replay (the differential tiers compare kernels with these rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from ..network.fabric import Fabric
from ..network.links import Link


@dataclass(frozen=True, slots=True)
class LinkUsage:
    """Per-link traffic summary after a replay."""

    name: str
    is_host_link: bool
    bytes_forward: int
    bytes_backward: int
    busy_us: float
    utilization: float

    @property
    def bytes_total(self) -> int:
        return self.bytes_forward + self.bytes_backward


def link_usage(link: Link, t_end_us: float) -> LinkUsage:
    # allocation-free sums over the raw busy arrays (interval widths are
    # coalescing-invariant)
    busy = link.forward.busy_us() + link.backward.busy_us()
    return LinkUsage(
        name=f"{link.a}-{link.b}",
        is_host_link=link.is_host_link,
        bytes_forward=link.forward.bytes_carried,
        bytes_backward=link.backward.bytes_carried,
        busy_us=busy,
        utilization=min(1.0, busy / (2.0 * t_end_us)) if t_end_us > 0 else 0.0,
    )


def fabric_usage(fabric: Fabric, t_end_us: float) -> list[LinkUsage]:
    """Usage rows for every link, host links first, busiest first."""

    rows = [link_usage(l, t_end_us) for l in fabric.all_links()]
    rows.sort(key=lambda u: (not u.is_host_link, -u.bytes_total))
    return rows
