"""Pluggable power-policy registry: gate / width / scale per link class.

The paper hard-wires one mechanism (WRPS on/off lane gating, driven by
the runtime's idle predictions) to one link class (the HCA links).  This
module generalises both axes in the spirit of the ``nrm`` power-policy
split (``powerpolicy.py`` + ``ddcmpolicy.py``): a registry of *policy
families* —

* ``gate``  — the paper's on/off WRPS (all reduced lanes at once;
  exactly today's :class:`~repro.power.controller.ManagedLink`);
* ``width`` — multi-level lane reduction (DDCM analogue): 4X→2X→1X,
  each width with its own power fraction, bandwidth fraction and
  (proportionally cheaper) reactivation time;
* ``scale`` — SerDes speed scaling (DVFS analogue): full/half/quarter
  clock, quadratic power in speed with the port's static floor, and a
  per-level ``t_react`` (PLL relock grows with the frequency step);

— applicable per *link class*:

* ``hca``    — host links: **prediction-driven** (the runtime's shutdown
  directives program the hardware timer, as in the paper);
* ``trunk``  — switch-to-switch links: **reactively idle-gated** (no MPI
  runtime sees these links, so the hardware steps down after a
  hysteresis period of observed idleness and pays the reactivation on
  the next transfer — the same protocol mispredicted HCAs pay);
* ``switch`` — whole-switch gating of the non-link share (buffers /
  crossbar): reactive like trunks, driven by traffic through any of the
  switch's ports, composed with the per-switch rollup.

A scenario is a spec string in the shared grammar of
:mod:`repro.specs`::

    policy:hca=gate,trunk=width:levels=3,switch=gate

Class assignments may appear in any order; a policy's own parameters
follow its name after ``:`` (and further ``key=value`` items up to the
next class assignment also bind to it; a key may appear once per
class).  Parsing is deterministic and seed-free;
:meth:`PolicySpec.describe` is the canonical form and
``parse_policy(spec.describe()) == spec``.

The default spec — ``policy:hca=gate`` with trunks and switches
unmanaged — reproduces the pre-registry pipeline bit for bit: the HCA
class maps to the untouched :class:`ManagedLink` and no other controller
is registered, so the replay's float operations are exactly the old
ones.  That compatibility invariant is pinned in the differential tier.

## Why trunk/switch management is *reactive* (and lazily simulated)

Interior links get no directives: the PMPI layer only observes each
rank's MPI calls, so there is no prediction to program a trunk timer
with.  Reactive hardware gating (step down after ``gate_after_us`` of
idleness, pay ``t_react`` on the next arrival) is the bracket the paper
itself uses as the HW-only baseline.  The simulation applies it
*lazily*, like the fault layer's clock-driven events: a managed trunk
link keeps ``Link.mode = LOW`` so the fabric's power-block hook fires on
every transfer through it, and the controller reconstructs the descent
staircase for the idle gap it just observed — no engine callbacks, so
off-trace timer events can never inflate the replayed execution time.

The idle gap starts at the last busy end over the controller's channels
(both channels of a trunk link, or of every port of a switch).  Each
kernel finds it its own way:

* the reference kernel's hook calls :meth:`IdleGatedLink.request_full`,
  which scans every channel's busy log — the oracle;
* the fast kernel's hook (:func:`fold_hook`) keeps a running max
  instead.  Because every managed link is pinned LOW, each reservation
  on a managed channel directly follows a hook call naming its link.
  The hook remembers that link, and the controller's next hook call
  folds its two channels' ``next_free_us`` into the max.  A channel's
  ``next_free_us`` always equals its last busy end (0.0 when the log is
  empty; an in-flight fault cut writes both), so the max is exactly the
  scan's answer at O(1) per hop.  ``finish`` scans once.

The fast hook also skips the controller call when nothing can happen:
an HCA controller at FULL with no timer pending, or a gate whose folded
end plus hysteresis covers the request.  Every fast == reference check
on a trunk/switch policy therefore pins the fold against the scan.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from ..network.links import Link, LinkPowerMode
from ..specs import Schema, SpecError, spec_field, split_item, tokenize
from .controller import ManagedLink, PowerEventCounters
from .model import LinkEnergyAccount
from .states import WRPSParams

#: the spec every replay uses unless told otherwise: the paper's setup
DEFAULT_POLICY = "policy:hca=gate"

#: spec string meaning "no class is power-managed at all"
NO_POLICY = "none"

#: link classes a spec may assign a policy to, in canonical order
LINK_CLASSES = ("hca", "trunk", "switch")

#: number of lanes in a 4X IB link (the width policy's descent domain)
_LANES = 4

# the members as module globals: reading ``LinkPowerMode.FULL`` inside a
# function goes through the enum metaclass, several times slower
_FULL_MODE = LinkPowerMode.FULL
_LOW_MODE = LinkPowerMode.LOW
_TRANSITION_MODE = LinkPowerMode.TRANSITION


class PolicySpecError(SpecError):
    """A malformed ``policy:...`` spec string or parameter."""


@runtime_checkable
class PowerPolicy(Protocol):
    """What the replay drivers require of a per-link power controller.

    :class:`~repro.power.controller.ManagedLink`, :class:`LeveledLink`,
    :class:`IdleGatedLink` and :class:`GatedSwitch` all conform.
    """

    def worthwhile(self, predicted_idle_us: float) -> bool: ...

    def shutdown(self, t_off_us: float, timer_us: float) -> bool: ...

    def request_full(self, t_us: float) -> float: ...

    def finish(self, t_end_us: float) -> None: ...

    def power_of(self, mode: LinkPowerMode) -> float: ...


# ---------------------------------------------------------------------------
# power levels


@dataclass(frozen=True, slots=True)
class PowerLevel:
    """One reduced operating point of a policy's descent ladder."""

    name: str
    #: normalised power draw while resident at this level
    power_fraction: float
    #: fraction of nominal bandwidth available at this level
    #: (informational — the replay waits for full width, as the paper's
    #: WRPS protocol does, so reactivation time is what costs)
    bandwidth_fraction: float
    #: reactivation time back to FULL from this level
    t_react_us: float
    #: time to descend into this level (from the previous one)
    t_deact_us: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.power_fraction <= 1.0:
            raise PolicySpecError("level power_fraction must be in [0, 1]")
        if self.t_react_us < 0 or self.t_deact_us < 0:
            raise PolicySpecError("level transition times must be >= 0")


def _static_floor(wrps: WRPSParams) -> float:
    """Per-port static power share, solved from the WRPS datum.

    The paper's one calibration point: 1 of 4 lanes draws
    ``low_power_fraction`` (43 %) of nominal.  With power modelled as
    ``static + (1 - static) * lane_fraction``, the static share follows
    from that datum, and every other width's power is derived from the
    same measurement instead of a new free parameter.
    """

    low = wrps.low_power_fraction
    lane = 1.0 / _LANES
    return max(0.0, (low - lane) / (1.0 - lane))


def gate_levels(wrps: WRPSParams, levels: int = 2) -> tuple[PowerLevel, ...]:
    """The paper's ladder: one step, all reducible lanes at once."""

    del levels  # gate has exactly one reduced state
    return (
        PowerLevel(
            name="1X",
            power_fraction=wrps.low_power_fraction,
            bandwidth_fraction=1.0 / _LANES,
            t_react_us=wrps.t_react_us,
            t_deact_us=wrps.t_deact_us,
        ),
    )


def width_levels(wrps: WRPSParams, levels: int = 3) -> tuple[PowerLevel, ...]:
    """DDCM-analogue lane ladder: 4X→2X→1X.

    ``levels`` counts width states including full (3 ⇒ 2X and 1X).  Power
    per width comes from the WRPS calibration (static floor + per-lane
    share); reactivation/deactivation scale with the number of lanes
    that must be brought back, so the shallow step is proportionally
    cheaper to recover from — that is the whole point of the ladder.
    """

    if not 2 <= levels <= 3:
        raise PolicySpecError(
            f"policy: width levels must be 2..3 (4X→2X→1X), got {levels}"
        )
    floor = _static_floor(wrps)
    max_off = _LANES - 1
    rungs = []
    for k in range(1, levels):
        lanes = _LANES >> k           # 2, then 1
        frac = lanes / _LANES
        off = _LANES - lanes
        rungs.append(
            PowerLevel(
                name=f"{lanes}X",
                power_fraction=floor + (1.0 - floor) * frac,
                bandwidth_fraction=frac,
                t_react_us=wrps.t_react_us * off / max_off,
                t_deact_us=wrps.t_deact_us * off / max_off,
            )
        )
    return tuple(rungs)


def scale_levels(wrps: WRPSParams, levels: int = 3) -> tuple[PowerLevel, ...]:
    """DVFS-analogue clock ladder: full/half/quarter/... speed.

    All lanes stay up; the SerDes clock halves per rung.  Power is
    quadratic in speed above the same static floor (CV²f with the rail
    tracking frequency), which makes deep clock scaling cheaper than
    lane shutdown at equal bandwidth — the classic DVFS-vs-DDCM trade.
    ``t_react`` grows with the frequency step (PLL relock + retrain).
    """

    if not 2 <= levels <= 5:
        raise PolicySpecError(
            f"policy: scale levels must be 2..5, got {levels}"
        )
    floor = _static_floor(wrps)
    deepest = 1.0 - 1.0 / (1 << (levels - 1))
    rungs = []
    for k in range(1, levels):
        speed = 1.0 / (1 << k)
        step = 1.0 - speed
        rungs.append(
            PowerLevel(
                name=f"1/{1 << k}clk",
                power_fraction=floor + (1.0 - floor) * speed * speed,
                bandwidth_fraction=speed,
                t_react_us=wrps.t_react_us * step / deepest,
                t_deact_us=wrps.t_deact_us * step / deepest,
            )
        )
    return tuple(rungs)


#: the registry: policy family name -> (summary, ladder builder)
POLICIES = {
    "gate": ("on/off WRPS lane gating (the paper)", gate_levels),
    "width": ("multi-level lane reduction, DDCM-analogue", width_levels),
    "scale": ("SerDes speed scaling, DVFS-analogue", scale_levels),
}


# ---------------------------------------------------------------------------
# spec grammar


@dataclass(frozen=True, slots=True)
class ClassPolicy:
    """The policy assigned to one link class; every field but ``policy``
    is a parameter key of the ``policy:`` grammar."""

    policy: str = "none"
    #: ladder depth; 0 -> the family's default ladder
    levels: int = spec_field(0, lo=0)
    #: per-class WRPS parameter overrides (None -> the class default)
    t_react_us: float | None = spec_field(None, float, lo=0.0)
    t_deact_us: float | None = spec_field(None, float, lo=0.0)
    low: float | None = spec_field(None, float, lo=0.0, hi=1.0)
    #: reactive classes (trunk/switch): observed idle time before the
    #: first descent step; None -> the break-even 2 * t_react
    gate_after_us: float | None = spec_field(None, float, lo=0.0)

    def __post_init__(self) -> None:
        if self.policy != "none" and self.policy not in POLICIES:
            raise PolicySpecError(
                f"unknown power policy {self.policy!r}; pick one of "
                f"{tuple(POLICIES)} or 'none'"
            )
        CLASS_KEYS.check(self)
        if self.levels and self.policy != "none":
            # validate eagerly so a typo'd spec fails at parse time
            POLICIES[self.policy][1](self.wrps(), self.levels)

    @property
    def active(self) -> bool:
        return self.policy != "none"

    def wrps(self, base: WRPSParams | None = None) -> WRPSParams:
        """This class's WRPS parameters: overrides applied on ``base``."""

        p = base or WRPSParams.paper()
        updates = {}
        if self.t_react_us is not None:
            updates["t_react_us"] = self.t_react_us
        if self.t_deact_us is not None:
            updates["t_deact_us"] = self.t_deact_us
        if self.low is not None:
            updates["low_power_fraction"] = self.low
        return dataclasses.replace(p, **updates) if updates else p

    def ladder(self, base: WRPSParams | None = None) -> tuple[PowerLevel, ...]:
        """The descent ladder this class's policy prescribes."""

        if not self.active:
            return ()
        build = POLICIES[self.policy][1]
        wrps = self.wrps(base)
        return build(wrps, self.levels) if self.levels else build(wrps)

    def hysteresis_us(self, base: WRPSParams | None = None) -> float:
        """Reactive idle wait before the first descent step."""

        if self.gate_after_us is not None:
            return self.gate_after_us
        return self.wrps(base).min_worthwhile_idle_us

    def describe(self) -> str:
        """Canonical value string, e.g. ``width:levels=3``."""

        if not self.active:
            return "none"
        parts = CLASS_KEYS.describe(self)
        return self.policy + (":" + ",".join(parts) if parts else "")


CLASS_KEYS = Schema.of(ClassPolicy, "policy", PolicySpecError, "family")

#: the unmanaged class assignment
UNMANAGED = ClassPolicy()


@dataclass(frozen=True, slots=True)
class PolicySpec:
    """Parsed policy scenario: one :class:`ClassPolicy` per link class."""

    hca: ClassPolicy = field(default_factory=lambda: ClassPolicy("gate"))
    trunk: ClassPolicy = UNMANAGED
    switch: ClassPolicy = UNMANAGED

    @property
    def any_active(self) -> bool:
        return self.hca.active or self.trunk.active or self.switch.active

    @property
    def is_default(self) -> bool:
        return self == PolicySpec()

    def for_class(self, link_class: str) -> ClassPolicy:
        try:
            return getattr(self, link_class)
        except AttributeError:
            raise PolicySpecError(
                f"unknown link class {link_class!r}; pick one of "
                f"{LINK_CLASSES}"
            ) from None

    def describe(self) -> str:
        """Canonical spec string (class order fixed, defaults elided)."""

        parts = [
            f"{name}={self.for_class(name).describe()}"
            for name in LINK_CLASSES
            if self.for_class(name).active
        ]
        if not parts:
            return NO_POLICY
        return "policy:" + ",".join(parts)


def parse_policy(spec: "str | None") -> PolicySpec:
    """Parse a policy spec string into a :class:`PolicySpec`.

    Grammar: ``policy:class=family[:key=value][,key=value...],...`` with
    classes from :data:`LINK_CLASSES` and families from
    :data:`POLICIES` (plus ``none``).  A ``key=value`` item whose key is
    not a class name binds to the most recent class assignment, so
    ``policy:trunk=width:levels=3,switch=gate`` reads naturally.
    ``None`` / ``""`` defaults to ``policy:hca=gate``; ``"none"`` turns
    management off for every class.  Class order is irrelevant
    (assignments commute) and nothing is seeded — the parse is a pure
    function of the string.
    """

    if spec is None:
        return PolicySpec()
    text = spec.strip()
    if not text:
        return PolicySpec()
    if text == NO_POLICY:
        return PolicySpec(hca=UNMANAGED)
    head, items = tokenize(text, PolicySpecError)
    if head != "policy":
        raise PolicySpecError(
            f"policy spec must start with 'policy:' (or be '{NO_POLICY}'), "
            f"got {spec!r}"
        )
    if not items:
        raise PolicySpecError(
            "empty policy spec; write e.g. 'policy:hca=gate' "
            f"(or '{NO_POLICY}')"
        )
    # link class -> (family, its key=value items in order)
    assigned: dict[str, tuple[str, list]] = {}
    params: list | None = None
    for key, value in items:
        if key in LINK_CLASSES:
            if key in assigned:
                raise PolicySpecError(
                    f"policy: link class {key!r} assigned twice"
                )
            name, sep, tail = value.partition(":")
            params = [split_item(tail, PolicySpecError)] if sep else []
            assigned[key] = (name, params)
        elif params is None:
            raise PolicySpecError(
                f"policy spec entry {key}={value} names no link class; "
                f"classes are {LINK_CLASSES}"
            )
        else:
            params.append((key, value))
    kwargs: dict[str, ClassPolicy] = {"hca": UNMANAGED}
    for cls, (name, params) in assigned.items():
        values = CLASS_KEYS.parse(params, spec)
        if name == "none":
            if values:
                raise PolicySpecError(
                    f"policy: class {cls!r} is 'none' but has parameters"
                )
            kwargs[cls] = UNMANAGED
        else:
            kwargs[cls] = ClassPolicy(policy=name, **values)
    return PolicySpec(**kwargs)


def policy_help() -> str:
    """One-line grammar summary for CLI ``--help`` texts."""

    fams = "; ".join(f"{name}: {summary}" for name, (summary, _) in POLICIES.items())
    return (
        "'policy:class=family[:key=value,...],...' with classes "
        f"{'/'.join(LINK_CLASSES)} and families {fams}. Parameters "
        f"(default): {CLASS_KEYS.help()}; levels=0 keeps the family's "
        "ladder, an unset WRPS key the paper's value. "
        f"Default '{DEFAULT_POLICY}' (the paper); '{NO_POLICY}' disables "
        "all management"
    )


# ---------------------------------------------------------------------------
# directive-driven multi-level controller (hca width / scale)


@dataclass(slots=True)
class LeveledLink:
    """Prediction-driven descent over a multi-level ladder.

    The runtime's shutdown directive carries the predicted idle timer;
    the controller picks the *deepest* rung whose break-even
    (``2 * t_react``) fits inside the prediction, programs the hardware
    timer exactly like the paper's gate, and pays that rung's (cheaper)
    reactivation on timer fire or misprediction.  With a single rung
    this reduces to :class:`~repro.power.controller.ManagedLink`'s
    protocol; ``gate`` keeps using ``ManagedLink`` itself so the default
    spec replays the untouched code path.
    """

    link: Link
    params: WRPSParams
    levels: tuple[PowerLevel, ...]
    account: LinkEnergyAccount
    counters: PowerEventCounters = field(default_factory=PowerEventCounters)
    _t_fire_us: float | None = None
    _t_deact_end_us: float = 0.0
    #: index into ``levels`` of the rung currently descended to
    _level: int = 0
    wake_faults: "object | None" = None
    wake_key: int = 0
    _pending_spike_us: float = 0.0

    @classmethod
    def create(
        cls,
        link: Link,
        cpol: ClassPolicy,
        base: WRPSParams | None = None,
        *,
        wake_faults=None,
        wake_key: int = 0,
        start_us: float = 0.0,
    ) -> "LeveledLink":
        p = cpol.wrps(base)
        levels = cpol.ladder(base)
        link.t_react_us = p.t_react_us
        return cls(
            link=link,
            params=p,
            levels=levels,
            account=LinkEnergyAccount(p, start_us=start_us),
            wake_faults=wake_faults,
            wake_key=wake_key,
        )

    def power_of(self, mode: LinkPowerMode) -> float:
        return self.params.power_of(mode)

    def _pick_level(self, timer_us: float) -> int | None:
        """Deepest rung whose break-even fits the predicted window."""

        best = None
        for i, lv in enumerate(self.levels):
            if timer_us > max(2.0 * lv.t_react_us, lv.t_deact_us):
                best = i
        return best

    def worthwhile(self, predicted_idle_us: float) -> bool:
        return self._pick_level(predicted_idle_us) is not None

    def shutdown(self, t_off_us: float, timer_us: float) -> bool:
        pick = self._pick_level(timer_us)
        if pick is None:
            self.counters.skipped_too_short += 1
            return False
        self._settle(t_off_us)
        if self.link.mode is not _FULL_MODE:
            self.counters.skipped_not_full += 1
            return False
        lv = self.levels[pick]
        t_low = t_off_us + lv.t_deact_us
        self.account.switch_mode(t_off_us, _TRANSITION_MODE)
        self.account.set_state(t_low, _LOW_MODE, lv.power_fraction)
        self.link.mode = _LOW_MODE
        self._level = pick
        self._t_fire_us = t_off_us + timer_us
        self._t_deact_end_us = t_low
        if self.wake_faults is not None:
            self._pending_spike_us = self.wake_faults.spike(
                self.wake_key, self.counters.shutdowns
            )
        self.counters.shutdowns += 1
        return True

    def request_full(self, t_us: float) -> float:
        self._settle(t_us)
        mode = self.link.mode
        if mode is _FULL_MODE:
            return t_us
        if mode is _LOW_MODE:
            lv = self.levels[self._level]
            start = max(t_us, self._t_deact_end_us)
            ready = start + lv.t_react_us + self._consume_spike()
            self.account.switch_mode(start, _TRANSITION_MODE)
            self.account.switch_mode(ready, _FULL_MODE)
            self.link.mode = _FULL_MODE
            self._t_fire_us = None
            self.counters.emergency_reactivations += 1
            self.counters.total_penalty_us += ready - t_us
            return ready
        ready = max(t_us, self.link.reactivation_done_us)
        penalty = ready - t_us
        if penalty > 0:
            self.counters.late_reactivations += 1
            self.counters.total_penalty_us += penalty
        return ready

    def finish(self, t_end_us: float) -> None:
        self._settle(t_end_us)
        self.account.close(t_end_us)

    def _settle(self, t_us: float) -> None:
        if self._t_fire_us is None:
            return
        t_fire = self._t_fire_us
        lv = self.levels[self._level]
        t_full = t_fire + lv.t_react_us + self._pending_spike_us
        if t_us >= t_fire:
            self.account.switch_mode(t_fire, _TRANSITION_MODE)
            if t_us >= t_full:
                self.account.switch_mode(t_full, _FULL_MODE)
                self.link.mode = _FULL_MODE
                self._t_fire_us = None
                self.counters.timer_reactivations += 1
                self._consume_spike()
            else:
                self.link.mode = _TRANSITION_MODE
                self.link.reactivation_done_us = t_full

    def _consume_spike(self) -> float:
        spike = self._pending_spike_us
        if spike > 0.0:
            self.counters.wake_timeouts += 1
            self.counters.wake_timeout_extra_us += spike
            self._pending_spike_us = 0.0
        return spike


# ---------------------------------------------------------------------------
# reactive controllers (trunk links, switches)


class _PowerShadow:
    """Stand-in for a link's power-state fields.

    When a link needs *two* controllers (an HCA's prediction-driven one
    composed with its switch's reactive gate), the real ``Link.mode`` is
    pinned LOW so the fabric hook keeps firing, and the prediction-driven
    controller does its FULL/LOW bookkeeping on this shadow instead.
    """

    __slots__ = ("mode", "reactivation_done_us", "t_react_us")

    def __init__(self) -> None:
        self.mode = _FULL_MODE
        self.reactivation_done_us = 0.0
        self.t_react_us = 0.0


@dataclass(slots=True)
class IdleGatedLink:
    """Reactive descent ladder for links without a prediction source.

    The hardware steps one rung deeper after each ``gate_after_us`` of
    observed idleness and pays the current rung's ``t_react`` when
    traffic returns.  The owning replay pins ``Link.mode = LOW`` so the
    fabric's power-block hook delivers every transfer's head-arrival
    time here; the controller reconstructs the staircase for the idle
    gap it just observed, charges it to the energy account, and returns
    when the link is usable.

    The gap starts at the channels' last busy end.  :meth:`request_full`
    and :meth:`finish` scan the busy logs for it (the reference kernel's
    path); :func:`fold_hook` keeps it as the running max ``_end_us``,
    folding the link named by the previous call (``_pending``) on each
    call, and enters at :meth:`_late` / :meth:`_wake` only when the
    request falls outside the hysteresis window.
    """

    channels: tuple
    levels: tuple[PowerLevel, ...]
    params: WRPSParams
    gate_after_us: float
    account: LinkEnergyAccount
    counters: PowerEventCounters = field(default_factory=PowerEventCounters)
    #: reactivation in flight until this instant (0 = none pending)
    _ready_us: float = 0.0
    #: fold state (fast hook only): max busy end folded so far, and the
    #: link the last call named, whose reservation is not folded yet
    _end_us: float = 0.0
    _pending: "Link | None" = None

    @classmethod
    def create(
        cls,
        link: Link,
        cpol: ClassPolicy,
        base: WRPSParams | None = None,
        *,
        start_us: float = 0.0,
    ) -> "IdleGatedLink":
        p = cpol.wrps(base)
        return cls(
            channels=(link.forward, link.backward),
            levels=cpol.ladder(base),
            params=p,
            gate_after_us=cpol.hysteresis_us(base),
            account=LinkEnergyAccount(p, start_us=start_us),
            _ready_us=start_us,
        )

    def power_of(self, mode: LinkPowerMode) -> float:
        return self.params.power_of(mode)

    # reactive controllers take no directives; the protocol methods exist
    # so every registered policy drives through one interface
    def worthwhile(self, predicted_idle_us: float) -> bool:
        return False

    def shutdown(self, t_off_us: float, timer_us: float) -> bool:
        return False

    def _last_traffic_end_us(self) -> float:
        u = self._ready_us
        for ch in self.channels:
            ends = ch.busy_ends
            if ends and ends[-1] > u:
                u = ends[-1]
        return u

    def _descend(self, idle_from_us: float, t_us: float) -> int:
        """Charge the staircase over ``[idle_from, t)``; return the rung
        (1-based) the link had reached when traffic arrived at ``t``
        (0 = never left FULL)."""

        acc = self.account
        reached = 0
        cursor = idle_from_us + self.gate_after_us
        for lv in self.levels:
            if t_us < cursor:
                break
            deact_end = cursor + lv.t_deact_us
            acc.switch_mode(cursor, _TRANSITION_MODE)
            reached += 1
            if t_us < deact_end:
                # arrival mid-descent: the step completes, then the
                # reactivation starts (the gate protocol's rule)
                self._ready_us = max(self._ready_us, deact_end)
                break
            acc.set_state(deact_end, _LOW_MODE, lv.power_fraction)
            cursor = max(deact_end, cursor + self.gate_after_us)
        return reached

    def request_full(self, t_us: float) -> float:
        if t_us < self._ready_us:
            return self._late(t_us)
        u = self._last_traffic_end_us()
        if t_us <= u + self.gate_after_us:
            # busy, draining, or inside the hysteresis window: full width
            return t_us
        return self._wake(u, t_us)

    def _late(self, t_us: float) -> float:
        """A previous arrival already triggered the reactivation; this
        transfer just waits out the remainder."""

        penalty = self._ready_us - t_us
        self.counters.late_reactivations += 1
        self.counters.total_penalty_us += penalty
        return self._ready_us

    def _wake(self, u: float, t_us: float) -> float:
        """Arrival at ``t_us`` after idleness since ``u``, beyond the
        hysteresis window: charge the descent, then reactivate."""

        reached = self._descend(u, t_us)
        if reached == 0:
            return t_us
        lv = self.levels[reached - 1]
        start = max(t_us, self._ready_us)
        ready = start + lv.t_react_us
        self.account.switch_mode(start, _TRANSITION_MODE)
        self.account.switch_mode(ready, _FULL_MODE)
        self._ready_us = ready
        self.counters.shutdowns += 1
        self.counters.emergency_reactivations += 1
        self.counters.total_penalty_us += ready - t_us
        return ready

    def finish(self, t_end_us: float) -> None:
        u = self._last_traffic_end_us()
        if t_end_us > u + self.gate_after_us:
            # trailing idleness: the ladder descends and stays there —
            # this is where interior links bank most of their savings
            if self._descend(u, t_end_us) > 0:
                self.counters.shutdowns += 1
        self.account.close(t_end_us)


@dataclass(slots=True)
class GatedSwitch:
    """Reactive gating of one switch's non-link share (buffers/crossbar).

    Identical machinery to :class:`IdleGatedLink`, but "traffic" is any
    transfer through any of the switch's ports, and the account tracks
    the switch's *other* (non-link) power component — the Section VI
    deep-sleep extension, now driven by the policy registry and rolled
    up per switch by :mod:`repro.power.rollup`, which composes this
    account's savings with the switch's diluted link savings.

    The inner ``gate`` owns every port's two channels, so its busy-end
    max (scanned by :meth:`request_full`, folded by :func:`fold_hook`)
    spans the whole switch.  The fast hook registers the gate itself on
    each port; this wrapper's methods are the reference kernel's path.
    """

    node: object
    gate: IdleGatedLink

    @classmethod
    def create(
        cls,
        switch,
        cpol: ClassPolicy,
        base: WRPSParams | None = None,
        *,
        start_us: float = 0.0,
    ) -> "GatedSwitch":
        p = cpol.wrps(base)
        channels = []
        for link in switch.ports:
            channels.append(link.forward)
            channels.append(link.backward)
        gate = IdleGatedLink(
            channels=tuple(channels),
            levels=cpol.ladder(base),
            params=p,
            gate_after_us=cpol.hysteresis_us(base),
            account=LinkEnergyAccount(p, start_us=start_us),
            _ready_us=start_us,
        )
        return cls(node=switch.node, gate=gate)

    @property
    def account(self) -> LinkEnergyAccount:
        return self.gate.account

    @property
    def counters(self) -> PowerEventCounters:
        return self.gate.counters

    def power_of(self, mode: LinkPowerMode) -> float:
        return self.gate.power_of(mode)

    def worthwhile(self, predicted_idle_us: float) -> bool:
        return False

    def shutdown(self, t_off_us: float, timer_us: float) -> bool:
        return False

    def request_full(self, t_us: float) -> float:
        return self.gate.request_full(t_us)

    def finish(self, t_end_us: float) -> None:
        self.gate.finish(t_end_us)

    @property
    def sleep_power_fraction(self) -> float:
        """Power draw of the deepest rung."""

        return self.gate.levels[-1].power_fraction if self.gate.levels else 1.0


def fold_hook(entries: dict):
    """The fast kernel's power-block hook over flat per-link entries.

    ``entries`` maps ``id(link)`` to either a lone HCA controller, which
    the hook calls directly (the default ``policy:hca=gate`` entry), or
    a pair ``(hca, gates)``: the link's HCA controller or None, and the
    :class:`IdleGatedLink` gates that watch it (a trunk's own gate, and
    the inner gate of each :class:`GatedSwitch` it is a port of).  The
    dict is read live, so entries added later (HCA episodes) take part.

    Per hop, each gate first folds the link its previous call named —
    whose reservation has happened since — into its running max, then
    remembers this link.  The HCA controller is called only when a
    timer is pending or its link is below FULL, and a gate only when
    the request lies outside its hysteresis window or inside a
    reactivation; otherwise the call would return ``t_us`` untouched.
    Returns when the link is usable: the latest of the answers.
    """

    get = entries.get
    full = LinkPowerMode.FULL

    def hook(link, t_us: float) -> float:
        entry = get(id(link))
        if entry is None:
            return link.ready_time(t_us)
        if type(entry) is not tuple:
            return entry.request_full(t_us)
        hca, gates = entry
        ready = t_us
        if hca is not None and (
            hca._t_fire_us is not None or hca.link.mode is not full
        ):
            ready = hca.request_full(t_us)
        for gate in gates:
            pending = gate._pending
            if pending is not None:
                end = gate._end_us
                e = pending.forward.next_free_us
                if e > end:
                    end = e
                e = pending.backward.next_free_us
                if e > end:
                    end = e
                gate._end_us = end
            else:
                end = gate._end_us
            gate._pending = link
            r = gate._ready_us
            if t_us < r:
                r = gate._late(t_us)
            else:
                u = end if end > r else r
                if t_us <= u + gate.gate_after_us:
                    continue
                r = gate._wake(u, t_us)
            if r > ready:
                ready = r
        return ready

    return hook


__all__ = [
    "DEFAULT_POLICY",
    "NO_POLICY",
    "LINK_CLASSES",
    "POLICIES",
    "PolicySpecError",
    "PowerPolicy",
    "PowerLevel",
    "ClassPolicy",
    "PolicySpec",
    "parse_policy",
    "policy_help",
    "gate_levels",
    "width_levels",
    "scale_levels",
    "LeveledLink",
    "IdleGatedLink",
    "GatedSwitch",
    "fold_hook",
    "ManagedLink",
]
