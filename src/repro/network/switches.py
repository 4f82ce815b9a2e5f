"""Switch model: port bookkeeping and hop latency.

The Venus-level network detail this reproduction needs is per-link
serialisation plus a fixed per-hop switch traversal latency (Table II's
end-to-end MPI latency dominates).  The switch object therefore carries:

* the set of attached links (ports), to aggregate per-switch power;
* the cut-through hop latency;
* counters used by the experiments (messages forwarded, bytes switched).

Input-buffer/crossbar power for the Section VI deep-sleep extension is
gated by :class:`repro.power.policies.GatedSwitch` and rolled up per
switch, with :class:`repro.power.switchpower.SwitchPowerModel`'s link
share, by :mod:`repro.power.rollup`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..constants import SWITCH_HOP_LATENCY_US

if TYPE_CHECKING:  # pragma: no cover
    from .links import Link
    from .topology import NodeId


@dataclass(slots=True)
class Switch:
    """One IB switch in the fabric."""

    node: "NodeId"
    hop_latency_us: float = SWITCH_HOP_LATENCY_US
    ports: list["Link"] = field(default_factory=list)
    messages_forwarded: int = 0
    bytes_switched: int = 0

    def attach(self, link: "Link") -> None:
        if self.node not in link.endpoints:
            raise ValueError(
                f"link {link.a}-{link.b} does not terminate at switch {self.node}"
            )
        self.ports.append(link)

    @property
    def radix(self) -> int:
        return len(self.ports)

    def record_forward(self, size_bytes: int) -> None:
        self.messages_forwarded += 1
        self.bytes_switched += size_bytes

    @property
    def is_edge(self) -> bool:
        """Whether any attached port is a host (HCA) link — edge
        switches are excluded from interior fault targeting."""

        return any(l.is_host_link for l in self.ports)

    def host_ports(self) -> list["Link"]:
        return [l for l in self.ports if l.is_host_link]

    def trunk_ports(self) -> list["Link"]:
        return [l for l in self.ports if not l.is_host_link]

    def reset(self) -> None:
        self.messages_forwarded = 0
        self.bytes_switched = 0
