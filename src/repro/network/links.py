"""Link and lane model: 4X InfiniBand links with WRPS width reduction.

A physical IB 4X link bundles four lanes.  Mellanox's Width Reduction
Power Saving (WRPS) can shut down three of the four lanes, leaving a 1X
link that preserves connectivity at a quarter of the bandwidth and 43 %
of the power (paper Section II-A).

Each :class:`Link` is full duplex: two :class:`DirectedChannel` objects
carry traffic independently (IB lanes are unidirectional pairs), but the
**power state is per link** — WRPS reduces the width of the whole port.

The busy timeline of each directed channel is recorded so that idle
intervals (Table I) and contention can be derived after a simulation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..constants import (
    LINK_BANDWIDTH_BYTES_PER_US,
    T_REACT_US,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .topology import NodeId


class LinkPowerMode(enum.Enum):
    """Operating mode of a 4X link under WRPS management."""

    FULL = "full"            # all 4 lanes active
    LOW = "low"              # 1 lane active (WRPS)
    TRANSITION = "transition"  # lanes powering up/down


@dataclass(slots=True)
class DirectedChannel:
    """One direction of a link: serialisation point with a busy log.

    Busy intervals are recorded as two flat float arrays (starts, ends)
    appended to on the replay hot path; the tuple-of-pairs view with
    adjacent intervals coalesced — what the idle/utilisation analyses
    consume — is aggregated lazily by :attr:`busy_log`.  Reservations are
    FIFO, so the raw start array is already nondecreasing and deferred
    coalescing produces exactly the log the eager per-append merge used
    to build.
    """

    name: str
    bandwidth_bytes_per_us: float = LINK_BANDWIDTH_BYTES_PER_US
    next_free_us: float = 0.0
    bytes_carried: int = 0
    #: raw (uncoalesced) busy interval bounds, appended per reservation
    busy_starts: list[float] = field(default_factory=list)
    busy_ends: list[float] = field(default_factory=list)

    def serialization_time(self, size_bytes: int) -> float:
        return size_bytes / self.bandwidth_bytes_per_us

    def reserve(self, earliest_us: float, size_bytes: int) -> tuple[float, float]:
        """Claim the channel for one transfer.

        Returns ``(start, end)``: the transfer begins at
        ``max(earliest, next_free)`` and occupies the wire for the
        serialisation time of ``size_bytes``.
        """

        start = max(earliest_us, self.next_free_us)
        end = start + size_bytes / self.bandwidth_bytes_per_us
        self.next_free_us = end
        self.bytes_carried += size_bytes
        self.busy_starts.append(start)
        self.busy_ends.append(end)
        return start, end

    @property
    def busy_log(self) -> list[tuple[float, float]]:
        """Busy intervals with back-to-back reservations coalesced."""

        log: list[tuple[float, float]] = []
        last_start = last_end = None
        for start, end in zip(self.busy_starts, self.busy_ends):
            if last_end is not None and abs(last_end - start) < 1e-12:
                last_end = end
                log[-1] = (last_start, end)
            else:
                last_start, last_end = start, end
                log.append((start, end))
        return log

    def busy_us(self) -> float:
        """Total busy time (coalescing-invariant sum of interval widths)."""

        return sum(e - s for s, e in zip(self.busy_starts, self.busy_ends))

    def utilization(self, t_end_us: float) -> float:
        if t_end_us <= 0:
            return 0.0
        return min(1.0, self.busy_us() / t_end_us)

    def reset(self) -> None:
        self.next_free_us = 0.0
        self.busy_starts.clear()
        self.busy_ends.clear()
        self.bytes_carried = 0


@dataclass(slots=True)
class Link:
    """A full-duplex 4X IB cable between two topology vertices.

    The two directed channels are named after their head vertex.  Power
    management state lives here; the actual FULL/LOW residency timeline is
    maintained by :class:`repro.power.model.LinkEnergyAccount` so that the
    fabric stays power-model-agnostic.
    """

    a: "NodeId"
    b: "NodeId"
    t_react_us: float = T_REACT_US
    mode: LinkPowerMode = LinkPowerMode.FULL
    reactivation_done_us: float = 0.0
    #: the installed fault plan's sorted down times of this link (None:
    #: none), set by ``Fabric.install_faults``, cleared by :meth:`reset`
    downs: "tuple[float, ...] | None" = None
    forward: DirectedChannel = field(init=False)   # a -> b
    backward: DirectedChannel = field(init=False)  # b -> a

    def __post_init__(self) -> None:
        self.forward = DirectedChannel(f"{self.a}->{self.b}")
        self.backward = DirectedChannel(f"{self.b}->{self.a}")

    @property
    def endpoints(self) -> tuple["NodeId", "NodeId"]:
        return (self.a, self.b)

    def channel(self, tail: "NodeId") -> DirectedChannel:
        """The directed channel whose transmitter sits at ``tail``."""

        if tail == self.a:
            return self.forward
        if tail == self.b:
            return self.backward
        raise KeyError(f"{tail} is not an endpoint of link {self.a}-{self.b}")

    @property
    def is_host_link(self) -> bool:
        return self.a.is_host or self.b.is_host

    @property
    def host_index(self) -> int | None:
        """The host attached to this link, if it is an HCA link."""

        if self.a.is_host:
            return self.a.index
        if self.b.is_host:
            return self.b.index
        return None

    @property
    def link_class(self) -> str:
        """Power-policy class of this link: ``hca`` or ``trunk``.

        Host-adapter links are runtime-visible (the PMPI layer predicts
        their idleness); switch-to-switch trunks are not, so the policy
        registry manages the two classes differently.
        """

        return "hca" if self.is_host_link else "trunk"

    # -- power-mode bookkeeping used by the power controller ---------------

    def ready_time(self, now_us: float) -> float:
        """Earliest time the link is at full width, starting from ``now``.

        In FULL mode that is ``now``.  In LOW mode a reactivation must run
        (``now + t_react``); in TRANSITION the previously scheduled
        reactivation completes at ``reactivation_done_us``.
        """

        if self.mode is LinkPowerMode.FULL:
            return now_us
        if self.mode is LinkPowerMode.TRANSITION:
            return max(now_us, self.reactivation_done_us)
        return now_us + self.t_react_us

    def reset(self) -> None:
        """Return the link to its just-constructed state.

        Restores ``t_react_us`` too: a managed replay retunes it per
        :class:`~repro.power.states.WRPSParams`, and a reused fabric must
        not leak one run's reactivation latency (or down times) into the
        next.
        """

        self.mode = LinkPowerMode.FULL
        self.reactivation_done_us = 0.0
        self.t_react_us = T_REACT_US
        self.downs = None
        self.forward.reset()
        self.backward.reset()
