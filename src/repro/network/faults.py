"""Deterministic fault injection: degraded fabrics under the power mechanism.

The paper evaluates WRPS link power-gating on a healthy fabric; this
module adds the failure modes production fabrics actually have — dead
cables, failed switches, flapping links, degraded (renegotiated-width)
links, and power-gated links that miss their ``t_react`` wake deadline —
as a *deterministic, seeded* experiment axis.

A fault scenario is written as a spec string::

    faults:seed=7,link_fail=0.1,switch_fail=0.02,flap=0.1,wake_timeout=0.2

:func:`parse_faults` turns it into a :class:`FaultSpec`;
:func:`compile_fault_plan` expands the spec against a concrete fabric
into a :class:`FaultPlan` — a time-sorted schedule of
:class:`FaultEvent` (link down/up, switch down, bandwidth degradation)
plus the wake-timeout model for managed (LOW) links.

## Determinism contract

``(seed, topology, fault spec)`` -> identical fault timeline, always.
Every per-element draw comes from its own
``np.random.default_rng((seed, domain, element ordinal))`` stream —
never from a shared sequential generator — so the events scheduled for
one link are a pure function of the spec and that link's position in the
(sorted, topology-determined) element order: independent of replay
history, process or kernel.

## How fault timing reaches both kernels identically

The ISSUE asks that "both kernels see identical fault timing".  Rather
than scheduling engine callbacks (which would land off-trace events in
the DES queue and inflate ``Engine.run``'s returned exec time with
activity the trace never performed), the fabric applies the plan
*lazily, clock-driven*: every transfer first applies all events with
``t_us <= now`` (:meth:`FaultState.apply_until`).  The two replay
kernels are pinned bit-for-bit — they issue the same transfers at the
same simulated times in the same order — so the fault state observed by
any transfer is identical on both kernels by construction, which is the
same guarantee an engine-scheduled application would give, without
perturbing the exec-time semantics.  The granularity is one transfer
call: an event timestamped between two transfers takes effect at the
second one on every kernel alike.

In-flight interaction: a transfer whose reservation window on some hop
contains that link's scheduled down-time is cut at the down instant
(partial busy interval, the link's queue drains no further) and retried
after ``retry_delay_us`` on a surviving route; a switch failing mid-hop
does not cut reservations (only future routing avoids it).  Pairs whose
static route crosses a failed element re-resolve over the surviving
minimal candidate paths (:func:`repro.network.routing.failover_route`)
and pay ``reroute_penalty_us`` once per migration; a pair with no
surviving candidate path raises :class:`FabricPartitioned` with the
fault timeline and (filled in by the replay driver) the blocked-rank
report, instead of deadlocking.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .topology import NodeId

#: spec string meaning "no fault injection" (the default everywhere)
NO_FAULTS = "none"

_SEED_MASK = 0xFFFFFFFFFFFFFFFF
#: rng domain tags — one namespace per draw family so streams never collide
_DOMAIN_LINK = 1
_DOMAIN_SWITCH = 2
_DOMAIN_WAKE = 3

#: event kinds
LINK_DOWN = "link_down"
LINK_UP = "link_up"
SWITCH_DOWN = "switch_down"
DEGRADE = "degrade"
RESTORE = "restore"


class FaultSpecError(ValueError):
    """A malformed ``faults:...`` spec string or parameter."""


class FabricPartitioned(RuntimeError):
    """No surviving route between two hosts under the active faults.

    Carries the pair, the simulated time of the doomed transfer, the
    fault timeline applied so far, and (attached by the replay driver
    via :meth:`with_blocked`) the engine's blocked-rank report — the
    structured alternative to an opaque simulated deadlock.
    """

    def __init__(
        self,
        src_host: int,
        dst_host: int,
        t_us: float,
        timeline: tuple = (),
        blocked: tuple = (),
    ) -> None:
        self.src_host = src_host
        self.dst_host = dst_host
        self.t_us = t_us
        self.timeline = tuple(timeline)
        self.blocked = tuple(blocked)
        super().__init__()

    def with_blocked(self, names) -> "FabricPartitioned":
        """Attach the blocked-rank report (replay drivers call this)."""

        self.blocked = tuple(names)
        return self

    @property
    def key(self) -> tuple:
        """``(src_host, dst_host, t_us)`` — what two replays must agree
        on for their partitions to count as the same one."""

        return (self.src_host, self.dst_host, self.t_us)

    def __str__(self) -> str:
        recent = ", ".join(e.describe() for e in self.timeline[-6:])
        msg = (
            f"fabric partitioned at t={self.t_us:.1f}us: no surviving "
            f"route from host {self.src_host} to host {self.dst_host}"
        )
        if recent:
            msg += f"; faults applied: [{recent}]"
        if self.blocked:
            shown = ", ".join(self.blocked[:8])
            more = "..." if len(self.blocked) > 8 else ""
            msg += f"; blocked ranks: {shown}{more}"
        return msg

    def __reduce__(self):
        # cross the process-pool boundary intact (run_cells workers)
        return (
            FabricPartitioned,
            (self.src_host, self.dst_host, self.t_us, self.timeline,
             self.blocked),
        )


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """Parsed fault scenario parameters (see :func:`faults_help`)."""

    seed: int = 0
    #: per-element probability of a permanent failure
    link_fail: float = 0.0
    switch_fail: float = 0.0
    #: per-link probability of a down/up flap train
    flap: float = 0.0
    flap_down_us: float = 400.0
    flap_cycles: int = 2
    flap_period_us: float = 1600.0
    #: per-link probability of a bandwidth degradation window
    degrade: float = 0.0
    degrade_factor: float = 0.25
    #: per-reactivation probability a LOW link misses its t_react deadline
    wake_timeout: float = 0.0
    wake_spike_us: float = 100.0
    #: fault onset times are drawn inside [5%, 90%] of this window
    horizon_us: float = 20000.0
    #: modeled path-migration cost, paid once per pair reroute
    reroute_penalty_us: float = 50.0
    #: back-off before an interrupted transfer retries on a new route
    retry_delay_us: float = 25.0
    #: 0 = faults target interior elements only (trunk links, non-edge
    #: switches); 1 = HCA links and host-attached switches are eligible
    #: too.  Wake-timeout spikes always target HCA links — those are the
    #: managed ones.
    hca: int = 0

    def __post_init__(self) -> None:
        for name in ("link_fail", "switch_fail", "flap", "degrade",
                     "wake_timeout"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise FaultSpecError(
                    f"faults: {name} must be a probability in [0, 1], "
                    f"got {v}"
                )
        for name in ("flap_down_us", "flap_period_us", "wake_spike_us",
                     "horizon_us"):
            if getattr(self, name) <= 0.0:
                raise FaultSpecError(f"faults: {name} must be > 0")
        for name in ("reroute_penalty_us", "retry_delay_us"):
            if getattr(self, name) < 0.0:
                raise FaultSpecError(f"faults: {name} must be >= 0")
        if not 0.0 < self.degrade_factor <= 1.0:
            raise FaultSpecError(
                "faults: degrade_factor must be in (0, 1]"
            )
        if self.flap_cycles < 1:
            raise FaultSpecError("faults: flap_cycles must be >= 1")
        if self.flap_down_us >= self.flap_period_us:
            raise FaultSpecError(
                "faults: flap_down_us must be < flap_period_us"
            )
        if self.hca not in (0, 1):
            raise FaultSpecError("faults: hca must be 0 or 1")

    @property
    def active(self) -> bool:
        """Whether this spec injects anything at all."""

        return (
            self.link_fail > 0.0
            or self.switch_fail > 0.0
            or self.flap > 0.0
            or self.degrade > 0.0
            or self.wake_timeout > 0.0
        )

    def describe(self) -> str:
        """Canonical spec string: seed plus every non-default knob."""

        parts = [f"seed={self.seed}"]
        for f in dataclasses.fields(self):
            if f.name == "seed":
                continue
            v = getattr(self, f.name)
            if v != f.default:
                v = f"{v:g}" if isinstance(v, float) else str(v)
                parts.append(f"{f.name}={v}")
        return "faults:" + ",".join(parts)


_INT_KEYS = frozenset({"seed", "flap_cycles", "hca"})
_VALID_KEYS = tuple(f.name for f in FaultSpec.__dataclass_fields__.values())


def parse_faults(spec: "str | None") -> FaultSpec | None:
    """Parse a fault spec string; ``None``/``""``/``"none"`` -> ``None``.

    Grammar: ``faults[:key=value,...]`` with keys from
    :class:`FaultSpec` (``faults_help()`` lists them).
    """

    if spec is None:
        return None
    text = spec.strip()
    if not text or text == NO_FAULTS:
        return None
    head, _, body = text.partition(":")
    if head != "faults":
        raise FaultSpecError(
            f"fault spec must start with 'faults:' (or be '{NO_FAULTS}'), "
            f"got {spec!r}"
        )
    kwargs: dict[str, object] = {}
    if body:
        for item in body.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise FaultSpecError(
                    f"fault spec entry {item!r} is not key=value"
                )
            if key not in _VALID_KEYS:
                raise FaultSpecError(
                    f"unknown fault parameter {key!r}; valid: "
                    + ", ".join(_VALID_KEYS)
                )
            try:
                kwargs[key] = (
                    int(value) if key in _INT_KEYS else float(value)
                )
            except ValueError:
                raise FaultSpecError(
                    f"fault parameter {key}={value!r} is not numeric"
                ) from None
    return FaultSpec(**kwargs)


def faults_help() -> str:
    """One-line grammar summary for CLI ``--help`` texts."""

    return (
        "'none' or 'faults:key=value,...' with keys "
        "seed, link_fail, switch_fail, flap (+flap_down_us/flap_cycles/"
        "flap_period_us), degrade (+degrade_factor), wake_timeout "
        "(+wake_spike_us), horizon_us, reroute_penalty_us, "
        "retry_delay_us, hca. Probabilities are per element; "
        "(seed, topology, spec) -> identical fault timeline"
    )


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One timed fault: ``element`` is a link edge key or a switch node."""

    t_us: float
    kind: str
    element: tuple
    factor: float = 1.0

    def describe(self) -> str:
        el = "-".join(str(e) for e in self.element)
        extra = f" x{self.factor:g}" if self.kind == DEGRADE else ""
        return f"{self.t_us:.1f}us {self.kind} {el}{extra}"


@dataclass(slots=True)
class WakeFaultModel:
    """Seeded ``t_react`` wake-timeout spikes for managed (LOW) links.

    A reactivation of the managed link with ordinal ``wake_key`` (its
    host rank) draws once per shutdown ordinal — a pure function of
    ``(seed, wake_key, ordinal)``, so fast and reference replays see
    identical spikes.
    """

    seed: int
    prob: float
    spike_us: float

    def spike(self, wake_key: int, ordinal: int) -> float:
        rng = np.random.default_rng(
            (self.seed & _SEED_MASK, _DOMAIN_WAKE, wake_key, ordinal)
        )
        return self.spike_us if rng.random() < self.prob else 0.0


@dataclass(slots=True)
class FaultPlan:
    """A compiled, time-sorted fault schedule for one fabric."""

    spec: FaultSpec
    events: tuple
    #: per-link sorted down times (permanent + flap), for in-flight cuts
    down_times: dict = field(default_factory=dict)
    eligible_links: int = 0
    eligible_switches: int = 0

    @classmethod
    def from_events(cls, spec: FaultSpec, events) -> "FaultPlan":
        """Build a plan from hand-written events (tests, what-ifs)."""

        ordered = tuple(sorted(events, key=lambda e: e.t_us))
        downs: dict[tuple, list[float]] = {}
        for ev in ordered:
            if ev.kind == LINK_DOWN:
                downs.setdefault(ev.element, []).append(ev.t_us)
        return cls(
            spec=spec,
            events=ordered,
            down_times={k: tuple(sorted(v)) for k, v in downs.items()},
        )

    def wake_model(self) -> WakeFaultModel | None:
        if self.spec.wake_timeout <= 0.0:
            return None
        return WakeFaultModel(
            seed=self.spec.seed,
            prob=self.spec.wake_timeout,
            spike_us=self.spec.wake_spike_us,
        )

    def describe(self) -> str:
        return (
            f"{self.spec.describe()} -> {len(self.events)} events over "
            f"{self.eligible_links} links / {self.eligible_switches} "
            "switches"
        )


def _onset(u: float, horizon_us: float) -> float:
    """Map a uniform draw to an onset inside [5%, 90%] of the horizon."""

    return (0.05 + 0.85 * u) * horizon_us


def compile_fault_plan(spec: FaultSpec, fabric) -> FaultPlan:
    """Expand ``spec`` against ``fabric`` into a deterministic plan.

    Element eligibility and ordering come from the fabric's sorted link
    keys and switch nodes (pure functions of the topology); each
    element's draws come from its own ``(seed, domain, ordinal)``
    stream in a fixed order, so the plan is a pure function of
    ``(seed, topology, spec)``.  A link gets at most one fault mode,
    priority fail > flap > degrade.
    """

    seed = spec.seed & _SEED_MASK
    events: list[FaultEvent] = []

    link_keys = sorted(fabric.links)
    eligible_links = 0
    for ordinal, key in enumerate(link_keys):
        link = fabric.links[key]
        if link.is_host_link and not spec.hca:
            continue
        eligible_links += 1
        rng = np.random.default_rng((seed, _DOMAIN_LINK, ordinal))
        # fixed draw order, consumed unconditionally: each link's
        # schedule must not depend on which rates are enabled
        u_fail, t_fail = rng.random(), rng.random()
        u_flap, t_flap = rng.random(), rng.random()
        u_degr, t_degr = rng.random(), rng.random()
        if u_fail < spec.link_fail:
            events.append(
                FaultEvent(_onset(t_fail, spec.horizon_us), LINK_DOWN, key)
            )
        elif u_flap < spec.flap:
            t0 = _onset(t_flap, spec.horizon_us)
            for cycle in range(spec.flap_cycles):
                down = t0 + cycle * spec.flap_period_us
                events.append(FaultEvent(down, LINK_DOWN, key))
                events.append(
                    FaultEvent(down + spec.flap_down_us, LINK_UP, key)
                )
        elif u_degr < spec.degrade:
            t0 = _onset(t_degr, spec.horizon_us)
            events.append(
                FaultEvent(t0, DEGRADE, key, factor=spec.degrade_factor)
            )
            events.append(
                FaultEvent(t0 + 0.5 * (spec.horizon_us - t0), RESTORE, key)
            )

    eligible_switches = 0
    for ordinal, node in enumerate(sorted(fabric.switches)):
        if fabric.switches[node].is_edge and not spec.hca:
            continue
        eligible_switches += 1
        rng = np.random.default_rng((seed, _DOMAIN_SWITCH, ordinal))
        u_fail, t_fail = rng.random(), rng.random()
        if u_fail < spec.switch_fail:
            events.append(
                FaultEvent(
                    _onset(t_fail, spec.horizon_us), SWITCH_DOWN, (node,)
                )
            )

    plan = FaultPlan.from_events(spec, events)
    plan.eligible_links = eligible_links
    plan.eligible_switches = eligible_switches
    return plan


@dataclass(frozen=True, slots=True)
class FaultSummary:
    """What a faulted replay actually experienced (attached to results)."""

    spec: str
    events_applied: int = 0
    link_downs: int = 0
    link_ups: int = 0
    switch_downs: int = 0
    degrades: int = 0
    reroutes: int = 0
    failbacks: int = 0
    inflight_retries: int = 0
    migration_wait_us: float = 0.0
    wake_timeouts: int = 0
    wake_timeout_extra_us: float = 0.0


class FaultState:
    """Mutable per-replay view of a :class:`FaultPlan`.

    Owned by the fabric (installed via ``Fabric.install_faults``);
    ``Fabric.reset`` restores every mutation (degraded bandwidths) and
    discards the state, returning the fabric to pristine.
    """

    __slots__ = (
        "plan", "_cursor", "failed_links", "failed_switches",
        "overlay", "applied", "_orig_bw",
        "link_downs", "link_ups", "switch_downs", "degrades",
        "reroutes", "failbacks", "inflight_retries", "migration_wait_us",
    )

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._cursor = 0
        self.failed_links: set = set()
        self.failed_switches: set = set()
        #: per-(src, dst) failover routes shadowing the static table
        self.overlay: dict = {}
        self.applied: list = []
        #: original (forward, backward) bandwidths of degraded links
        self._orig_bw: dict = {}
        self.link_downs = 0
        self.link_ups = 0
        self.switch_downs = 0
        self.degrades = 0
        self.reroutes = 0
        self.failbacks = 0
        self.inflight_retries = 0
        self.migration_wait_us = 0.0

    # -- event application --------------------------------------------------

    def apply_until(self, fabric, t_us: float) -> None:
        """Apply every pending event with ``event.t_us <= t_us``."""

        events = self.plan.events
        cursor = self._cursor
        while cursor < len(events) and events[cursor].t_us <= t_us:
            self._apply(fabric, events[cursor])
            cursor += 1
        self._cursor = cursor

    def _apply(self, fabric, ev: FaultEvent) -> None:
        kind = ev.kind
        if kind == LINK_DOWN:
            self.failed_links.add(ev.element)
            self.link_downs += 1
        elif kind == LINK_UP:
            self.failed_links.discard(ev.element)
            self.link_ups += 1
            self._failback(fabric)
        elif kind == SWITCH_DOWN:
            self.failed_switches.add(ev.element[0])
            self.switch_downs += 1
        elif kind == DEGRADE:
            link = fabric.links[ev.element]
            if ev.element not in self._orig_bw:
                self._orig_bw[ev.element] = (
                    link.forward.bandwidth_bytes_per_us,
                    link.backward.bandwidth_bytes_per_us,
                )
            link.forward.bandwidth_bytes_per_us *= ev.factor
            link.backward.bandwidth_bytes_per_us *= ev.factor
            self.degrades += 1
        elif kind == RESTORE:
            orig = self._orig_bw.pop(ev.element, None)
            if orig is not None:
                link = fabric.links[ev.element]
                link.forward.bandwidth_bytes_per_us = orig[0]
                link.backward.bandwidth_bytes_per_us = orig[1]
        else:  # pragma: no cover - plan construction guards kinds
            raise ValueError(f"unknown fault event kind {kind!r}")
        self.applied.append(ev)

    def _failback(self, fabric) -> None:
        """Drop failover overlays whose static route healed (flap up)."""

        if not self.overlay:
            return
        healed = [
            pair for pair, _ in self.overlay.items()
            if self.route_alive(fabric.routes.path(*pair))
        ]
        for pair in healed:
            del self.overlay[pair]
            self.failbacks += 1

    # -- routing under faults ----------------------------------------------

    def route_alive(self, path, exclude=None) -> bool:
        """Whether ``path`` avoids every failed element (and ``exclude``)."""

        for node in path[1:-1]:
            if node in self.failed_switches:
                return False
        failed = self.failed_links
        prev = path[0]
        for head in path[1:]:
            key = (prev, head) if prev <= head else (head, prev)
            if key in failed or key == exclude:
                return False
            prev = head
        return True

    def next_link_up(self, after_us: float):
        """Earliest pending LINK_UP strictly after ``after_us`` (or None).

        A pair with no surviving route *right now* but a scheduled heal
        (a flapped link coming back) stalls until then instead of
        reporting a spurious partition.
        """

        for ev in self.plan.events[self._cursor:]:
            if ev.kind == LINK_UP and ev.t_us > after_us:
                return ev.t_us
        return None

    def next_down(self, edge_key, after_us: float, before_us: float):
        """First scheduled down time of ``edge_key`` in (after, before)."""

        downs = self.plan.down_times.get(edge_key)
        if not downs:
            return None
        i = bisect_right(downs, after_us)
        if i < len(downs) and downs[i] < before_us:
            return downs[i]
        return None

    def resolve_route(self, fabric, src_host: int, dst_host: int,
                      now_us: float = 0.0, exclude=None):
        """The surviving route of a pair: ``(path, migrated)``.

        Serves the pair's failover overlay when one is active, the
        static route when it is alive, and otherwise migrates to a
        surviving candidate path (``migrated=True`` — the caller charges
        the reroute penalty).  Raises :class:`FabricPartitioned` when no
        candidate survives.
        """

        from .routing import failover_route

        pair = (src_host, dst_host)
        over = self.overlay.get(pair)
        if over is not None and self.route_alive(over, exclude):
            return over, False
        static = fabric.routes.path(src_host, dst_host)
        if self.route_alive(static, exclude):
            if over is not None:
                # the overlay died but the static route survives (e.g.
                # the excluded link was the overlay's): fail back
                del self.overlay[pair]
                self.failbacks += 1
            return static, False
        avoid = self.failed_links
        if exclude is not None:
            avoid = avoid | {exclude}
        path = failover_route(
            fabric.topo, src_host, dst_host,
            failed_links=avoid,
            failed_switches=self.failed_switches,
            seed=fabric.routes.seed,
            salt=self.reroutes,
        )
        if path is None:
            raise FabricPartitioned(
                src_host, dst_host, now_us, tuple(self.applied)
            )
        self.overlay[pair] = path
        self.reroutes += 1
        return path, True

    # -- lifecycle -----------------------------------------------------------

    def restore(self, fabric) -> None:
        """Undo in-place fabric mutations (degraded bandwidths)."""

        for key, (fwd, bwd) in self._orig_bw.items():
            link = fabric.links[key]
            link.forward.bandwidth_bytes_per_us = fwd
            link.backward.bandwidth_bytes_per_us = bwd
        self._orig_bw.clear()

    def summary(self) -> FaultSummary:
        return FaultSummary(
            spec=self.plan.spec.describe(),
            events_applied=len(self.applied),
            link_downs=self.link_downs,
            link_ups=self.link_ups,
            switch_downs=self.switch_downs,
            degrades=self.degrades,
            reroutes=self.reroutes,
            failbacks=self.failbacks,
            inflight_retries=self.inflight_retries,
            migration_wait_us=self.migration_wait_us,
        )
