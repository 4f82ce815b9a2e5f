"""Job streams: the workload arrival side of the multi-job cluster layer.

A :class:`Job` is one application run submitted to the shared fabric:
which workload, how many ranks, when it arrives, and which tenant pays
for it.  Streams are described by a **job-stream spec string** in the shared
``kind:key=value,...`` grammar of :mod:`repro.specs`, so the CLI and
the sweep drivers compose the axes uniformly:

``static:n=2,gap_us=2000,apps=alya|gromacs,ranks=8|8,tenants=2``
    ``n`` jobs, evenly spaced ``gap_us`` apart starting at ``start_us``.
``poisson:n=4,mean_gap_us=2000,seed=7,apps=alya,ranks=8``
    a Poisson arrival process: inter-arrival gaps drawn from
    Exp(1/``mean_gap_us``) with :class:`random.Random`(``seed``).
``diurnal:n=6,mean_gap_us=2000,period_us=16000,peak=4,seed=7``
    a non-homogeneous Poisson process whose rate swings sinusoidally
    between the base rate ``1/mean_gap_us`` (trough, at t=0) and
    ``peak/mean_gap_us`` over each ``period_us`` — the day/night load
    shape — realised by Lewis–Shedler thinning.
``list:jobs=alya@8|gromacs@8@4000@acme``
    an explicit list, entries ``app@nranks[@arrival_us[@tenant]]``.

``apps`` and ``ranks`` are ``|``-separated cycles assigned round-robin
over the stream; ``tenants=K`` assigns tenants ``t0..t(K-1)`` round-robin
the same way.  A stream holds at most 1000 jobs, ``peak`` is at most 100,
every time is at most 1e12 us and mean gaps and periods are at least
1 ns, which bounds the work a spec can ask of the parser.

Determinism contract (pinned by ``tests/cluster/test_jobs.py``): a
stream is a pure function of its spec string — same spec, same jobs,
bit-for-bit, on any platform (generators use explicit integer seeds
through :class:`random.Random`; nothing is derived from ``hash()``,
process state or wall clock) — and arrival times are non-decreasing.
Together with the fabric and fault contracts this gives the cluster
layer's contract: ``(seed, topology, job stream) -> identical timeline``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..specs import Key, Schema, SpecError, tokenize
from ..workloads import APPLICATIONS

#: the stream kinds :func:`parse_jobs` understands
STREAM_KINDS = ("static", "poisson", "diurnal", "list")


class JobSpecError(SpecError):
    """A malformed job-stream spec string (bad kind, key or value)."""


@dataclass(frozen=True, slots=True)
class Job:
    """One workload submitted to the cluster.

    ``index`` is the job's position in the stream (its stable identity:
    rank-name namespacing, placement seeding and rollups key on it);
    ``tenant`` groups jobs for the per-tenant accounting.
    """

    index: int
    app: str
    nranks: int
    arrival_us: float
    tenant: str = "t0"

    def __post_init__(self) -> None:
        if self.index < 0:
            raise JobSpecError(f"job index must be >= 0, got {self.index}")
        if self.app not in APPLICATIONS:
            raise JobSpecError(
                f"unknown application {self.app!r}; pick one of "
                f"{', '.join(APPLICATIONS)}"
            )
        if self.nranks < 1:
            raise JobSpecError(
                f"job {self.index}: nranks must be >= 1, got {self.nranks}"
            )
        if not 0 <= self.arrival_us < math.inf:
            raise JobSpecError(
                f"job {self.index}: arrival_us must be finite and >= 0, "
                f"got {self.arrival_us}"
            )

    def label(self) -> str:
        return f"{self.app}@{self.nranks}+{self.arrival_us:.0f}"


# -- arrival generators ------------------------------------------------------


def _check(**values) -> None:
    """The job-stream keys' rules (range, finiteness) on a generator's
    arguments: a direct call is checked like a parsed spec."""

    for name, value in values.items():
        problem = _KEYS[name].problem(value)
        if problem:
            raise JobSpecError(problem)


def arrivals_static(
    n: int, gap_us: float, start_us: float = 0.0
) -> tuple[float, ...]:
    """``n`` arrivals evenly spaced ``gap_us`` apart from ``start_us``."""

    _check(gap_us=gap_us, start_us=start_us)
    return tuple(start_us + i * gap_us for i in range(n))


def arrivals_poisson(
    n: int, mean_gap_us: float, seed: int
) -> tuple[float, ...]:
    """``n`` arrivals of a homogeneous Poisson process.

    Inter-arrival gaps are Exp(1/``mean_gap_us``) draws from
    ``random.Random(seed)`` — deterministic per (n, mean_gap_us, seed).
    """

    _check(mean_gap_us=mean_gap_us)
    rng = random.Random(seed)
    rate = 1.0 / mean_gap_us
    t = 0.0
    out = []
    for _ in range(n):
        t += rng.expovariate(rate)
        out.append(t)
    return tuple(out)


def arrivals_diurnal(
    n: int,
    mean_gap_us: float,
    period_us: float,
    peak: float,
    seed: int,
) -> tuple[float, ...]:
    """``n`` arrivals of a sinusoidally-modulated Poisson process.

    The instantaneous rate is ``lam(t) = (1 + (peak - 1) * (1 -
    cos(2*pi*t/period_us)) / 2) / mean_gap_us`` — the trough (base rate
    ``1/mean_gap_us``) at t=0, the peak (``peak/mean_gap_us``) half a
    period later.  Realised by Lewis–Shedler thinning against the
    constant majorant ``peak/mean_gap_us``: candidate gaps are
    exponential at the majorant rate and each candidate is accepted
    with probability ``lam(t)/lam_max``.  One ``random.Random(seed)``
    drives both draws, so the stream is deterministic per spec.
    """

    _check(mean_gap_us=mean_gap_us, period_us=period_us, peak=peak)
    rng = random.Random(seed)
    lam_max = peak / mean_gap_us
    two_pi = 2.0 * math.pi
    t = 0.0
    out = []
    while len(out) < n:
        t += rng.expovariate(lam_max)
        lam_t = (
            1.0 + (peak - 1.0) * (1.0 - math.cos(two_pi * t / period_us)) / 2.0
        ) / mean_gap_us
        if rng.random() * lam_max <= lam_t:
            out.append(t)
    return tuple(out)


# -- spec parsing ------------------------------------------------------------


_COMMON = (
    Key("n", int, 2, lo=1, hi=1000),
    Key("apps", str, "alya"),
    Key("ranks", str, "8"),
    Key("tenants", int, 1, lo=1),
)
#: times run from 1 ns to ~11.6 days, so the thinning loop's rates and
#: phases stay finite; a mean gap stops at 1e11 so that the default
#: period (8 gaps) stays in range too
_MEAN_GAP = Key("mean_gap_us", float, 2000.0, lo=1e-3, hi=1e11)
_SEED = Key("seed", int, 0)

#: stream kind -> the keys it takes
_SCHEMAS = {
    "static": Schema("static", JobSpecError, _COMMON + (
        Key("gap_us", float, 2000.0, lo=0.0, hi=1e12),
        Key("start_us", float, 0.0, lo=0.0, hi=1e12),
    )),
    "poisson": Schema("poisson", JobSpecError, _COMMON + (_MEAN_GAP, _SEED)),
    "diurnal": Schema("diurnal", JobSpecError, _COMMON + (
        _MEAN_GAP,
        Key("period_us", float, lo=1e-3, hi=1e12, shown="8*mean_gap_us"),
        Key("peak", float, 4.0, lo=1.0, hi=100.0),
        _SEED,
    )),
    "list": Schema("list", JobSpecError, (Key("jobs", str),)),
}
#: every stream kind's keys by name (a shared name is one shared Key)
_KEYS = {name: key for schema in _SCHEMAS.values()
         for name, key in schema.keys.items()}
#: an explicit stream's ``jobs=`` value
_LIST_ENTRIES = "app@nranks[@arrival_us[@tenant]]|..."


def _cycle(values: list, i: int):
    return values[i % len(values)]


def _assemble(
    arrivals: tuple[float, ...],
    apps: list[str],
    ranks: list[int],
    tenants: int,
) -> tuple[Job, ...]:
    return tuple(
        Job(
            index=i,
            app=_cycle(apps, i),
            nranks=_cycle(ranks, i),
            arrival_us=t,
            tenant=f"t{i % tenants}",
        )
        for i, t in enumerate(arrivals)
    )


def parse_jobs(spec: str) -> tuple[Job, ...]:
    """Parse a job-stream spec string into its (ordered) jobs.

    The returned jobs are sorted by arrival time (generators emit them
    sorted already; explicit ``list:`` entries are reordered), indexed
    0..n-1 in that order.  Raises :class:`JobSpecError` on an unknown
    kind, key, or malformed value — fail fast, with the spec named.
    """

    kind, items = tokenize(spec, JobSpecError)
    schema = _SCHEMAS.get(kind)
    if schema is None:
        raise JobSpecError(
            f"unknown job-stream kind {kind!r} in {spec!r}; known kinds: "
            f"{', '.join(STREAM_KINDS)}"
        )
    p = schema.parse(items, spec, defaults=True)
    if kind == "list":
        if p["jobs"] is None:
            raise JobSpecError(f"{spec!r} needs jobs={_LIST_ENTRIES}")
        parsed = []
        for entry in p["jobs"].split("|"):
            fields = entry.strip().split("@")
            if not 2 <= len(fields) <= 4:
                raise JobSpecError(
                    f"bad list entry {entry!r} in {spec!r} "
                    "(expected app@nranks[@arrival_us[@tenant]])"
                )
            # arrival_us and tenant default to 0 and t0
            app, nranks, arrival, tenant = (
                fields + ["0", "t0"][len(fields) - 2:]
            )
            try:
                parsed.append((float(arrival), app, int(nranks), tenant))
            except ValueError:
                raise JobSpecError(
                    f"bad list entry {entry!r} in {spec!r} "
                    "(nranks must be an int, arrival_us a number)"
                ) from None
        parsed.sort(key=lambda e: e[0])  # arrival order; ties keep entry order
        return tuple(
            Job(index=i, app=app, nranks=nranks, arrival_us=arrival,
                tenant=tenant)
            for i, (arrival, app, nranks, tenant) in enumerate(parsed)
        )

    apps = [a.strip() for a in p["apps"].split("|") if a.strip()]
    try:
        ranks = [int(r) for r in p["ranks"].split("|") if r.strip()]
    except ValueError:
        raise JobSpecError(
            f"ranks={p['ranks']!r} in {spec!r} must be |-separated ints"
        ) from None
    if not apps or not ranks:
        raise JobSpecError(f"apps/ranks must be non-empty in {spec!r}")
    n, mean_gap_us = p["n"], p.get("mean_gap_us")
    if kind == "static":
        arrivals = arrivals_static(n, p["gap_us"], p["start_us"])
    elif kind == "poisson":
        arrivals = arrivals_poisson(n, mean_gap_us, p["seed"])
    else:  # diurnal; period_us is range-checked, so never 0
        period_us = p["period_us"] or 8.0 * mean_gap_us
        arrivals = arrivals_diurnal(
            n, mean_gap_us, period_us, p["peak"], p["seed"]
        )
    return _assemble(arrivals, apps, ranks, p["tenants"])


def jobs_help() -> str:
    """One line per stream kind, for CLI ``--jobs`` help text."""

    kinds = {"static": "evenly spaced", "poisson": "exponential gaps",
             "diurnal": "sinusoidally-modulated Poisson"}
    return "; ".join(
        f"{_SCHEMAS[kind].syntax()} ({what})" for kind, what in kinds.items()
    ) + (
        f"; list:jobs={_LIST_ENTRIES} (explicit). apps=a|b and ranks=8|16 "
        "cycle round-robin, tenants=K assigns t0..t(K-1)"
    )
