"""Pluggable topology families: the builder registry behind ``--topology``.

The network layer is topology-agnostic: a :class:`~repro.network.topology.
Topology` is just hosts + switches + edges with a deterministic
candidate-path enumeration, and the fabric/route-table/replay stack works
over any of them.  This package holds the concrete families and the
registry that maps a **topology spec string** to a right-sized instance:

``family[:key=value,key=value,...]``, in the shared grammar of
:mod:`repro.specs`: each family's keys are checked at parse time
against its schema, which also prints the family's ``syntax``.

Registered families (see :func:`topology_help` for the live list):

* ``fitted``    — the paper's right-sized two-level XGFT
  (``fitted:leaf=18``), full leaf-spine bisection.
* ``xgft``      — an explicit XGFT(h; m; w): ``xgft:children=18x14,
  parents=1x18`` (``x``-separated per-level arities, not right-sized).
* ``torus``     — k-ary n-torus: ``torus:k=4,n=2,hosts=1`` (``k=0`` /
  omitted grows the radix to fit ``nranks``).
* ``dragonfly`` — Dragonfly(a, p, h): ``dragonfly:a=4,p=2,h=2,groups=0``
  (``groups=0`` grows the group count up to the balanced a*h+1).
* ``fattree2``  — oversubscribed two-level fat tree:
  ``fattree2:leaf=18,ratio=3`` (``ratio`` = leaf downlink:uplink taper).

Every ``fit`` builder takes ``(nranks, **params)`` — its keyword
defaults are the schema's defaults — and must return a
**validated** topology (end the builder with
:meth:`~repro.network.topology.Topology.finalize`) with at least
``nranks`` hosts; the registry enforces the capacity and trusts the
builder contract for structure.  New families register with
:func:`register_family`.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass
from typing import Callable, Iterable

from ...specs import Key, Schema, SpecError, tokenize
from ..topology import Topology, XGFTSpec, build_xgft, fitted_topology
from .dragonfly import DragonflySpec, build_dragonfly, fit_dragonfly
from .fattree import (
    OversubscribedFatTreeSpec,
    build_oversubscribed_fattree,
    fit_oversubscribed_fattree,
)
from .torus import TorusSpec, build_torus, fit_torus

#: the default spec string (the paper's fabric, right-sized per run)
DEFAULT_TOPOLOGY = "fitted"


class TopologySpecError(SpecError):
    """A malformed topology spec string: unknown family, key or value."""


@dataclass(frozen=True, slots=True)
class TopologyFamily:
    """One registered builder: name, parameter schema, and the fitter."""

    name: str
    schema: Schema
    description: str
    fit: Callable[..., Topology]


_FAMILIES: dict[str, TopologyFamily] = {}


def register_family(
    name: str, fit: Callable[..., Topology], keys: Iterable[Key], *,
    description: str,
) -> None:
    """Register a topology family under ``name`` (unique); ``keys`` take
    their defaults from ``fit``'s keyword defaults."""

    if name in _FAMILIES:
        raise ValueError(f"topology family {name!r} already registered")
    params = inspect.signature(fit).parameters
    schema = Schema(name, TopologySpecError, (
        dataclasses.replace(k, default=params[k.name].default) for k in keys
    ))
    _FAMILIES[name] = TopologyFamily(name, schema, description, fit)


def topology_families() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def parse_topology(spec: str) -> tuple[str, dict]:
    """Split ``family:key=value,...`` into (family, params).

    ``params`` holds the keys the spec sets, checked against the
    family's schema: integers, except ``xgft``'s ``x``-separated arity
    lists (``18x14`` -> ``(18, 14)``).
    """

    family, items = tokenize(spec, TopologySpecError)
    if family not in _FAMILIES:
        raise TopologySpecError(
            f"unknown topology family {family!r}; known families: "
            f"{', '.join(topology_families())}"
        )
    return family, _FAMILIES[family].schema.parse(items, spec)


def build_topology(spec: str, nranks: int) -> Topology:
    """Build the (validated) topology ``spec`` names, sized for ``nranks``."""

    family, params = parse_topology(spec)
    topo = _FAMILIES[family].fit(nranks, **params)
    if topo.num_hosts < nranks:
        raise ValueError(
            f"topology {spec!r} provides {topo.num_hosts} hosts, "
            f"fewer than the {nranks} ranks it must carry"
        )
    topo.family = family
    # structural validity is the builders' contract: every fitter ends
    # in Topology.finalize(), which validates — no second O(V+E) pass
    return topo


def topology_help() -> str:
    """One line per family, for CLI ``--topology`` help text."""

    return "; ".join(
        f"{f.schema.syntax()} ({f.description})"
        for _, f in sorted(_FAMILIES.items())
    )


def _fit_fitted(nranks: int, leaf: int = 18) -> Topology:
    topo = fitted_topology(nranks, hosts_per_leaf=leaf)
    topo.family = "fitted"
    return topo


def arities(text: str) -> tuple[int, ...]:
    """``18x14`` -> ``(18, 14)``: one arity per tree level."""

    return tuple(int(part) for part in text.split("x"))


def _fit_xgft(
    nranks: int,
    children: tuple[int, ...] = (18, 14),
    parents: tuple[int, ...] = (1, 18),
) -> Topology:
    return build_xgft(XGFTSpec(children, parents))


def _count(name: str, lo: int = 1) -> Key:
    return Key(name, int, lo=lo)


register_family(
    "fitted", _fit_fitted, (_count("leaf"),),
    description="paper XGFT right-sized per run, full bisection",
)
register_family(
    "xgft", _fit_xgft,
    (Key("children", arities, shown="18x14"),
     Key("parents", arities, shown="1x18")),
    description="explicit XGFT(h; m; w), x-separated per-level arities",
)
register_family(
    "torus", fit_torus, (_count("k", 0), _count("n"), _count("hosts")),
    description="k-ary n-torus, k=0 grows the radix to fit",
)
register_family(
    "dragonfly", fit_dragonfly,
    (_count("a"), _count("p"), _count("h"), _count("groups", 0)),
    description="Dragonfly(a,p,h), groups=0 grows up to a*h+1",
)
register_family(
    "fattree2", fit_oversubscribed_fattree,
    (_count("leaf"), _count("ratio"), _count("spines", 0)),
    description="oversubscribed two-level fat tree, leaf:spine taper",
)

__all__ = [
    "DEFAULT_TOPOLOGY",
    "TopologySpecError",
    "TopologyFamily",
    "register_family",
    "topology_families",
    "parse_topology",
    "build_topology",
    "topology_help",
    "TorusSpec",
    "build_torus",
    "fit_torus",
    "DragonflySpec",
    "build_dragonfly",
    "fit_dragonfly",
    "OversubscribedFatTreeSpec",
    "build_oversubscribed_fattree",
    "fit_oversubscribed_fattree",
]
