"""Routing over any topology family: random (paper default) + deterministic.

Two routing substrates share one chooser-based interface
(:func:`route_with_chooser`):

* **XGFT fat trees** route up*/down*: a packet climbs from the source
  host to a least common ancestor (LCA) switch, then descends.  The only
  routing freedom is the ascent — from any vertex that is a "top" of its
  height-(l-1) subtree, every upward neighbour is a valid next hop; the
  chooser resolves each such choice point.  The paper uses **random
  routing** (Table II) there; a d-mod-k-style deterministic router is
  provided for ablations.  Descent is unique and computed arithmetically
  from the :func:`repro.network.topology.build_xgft` construction (level
  slices are ordered by subtree), so no graph search is needed.
* **Every other family** (torus, dragonfly, oversubscribed fat tree, …)
  routes minimally: the topology enumerates its deterministic candidate
  shortest-path set (:meth:`~repro.network.topology.Topology.
  candidate_paths`) and the chooser picks one whole path.

Both substrates keep the same determinism contract: the chooser of a
seeded table is a pure function of ``(seed, src, dst)``, so compiled
routes never depend on pair-compile order or replay history, on any
topology family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .topology import NodeId, Topology, XGFTSpec


class Router(Protocol):
    """Route computation strategy."""

    def route(self, src_host: int, dst_host: int) -> list[NodeId]:
        """Vertex path from host ``src`` to host ``dst`` (inclusive)."""
        ...


def _hosts_per_subtree(spec: XGFTSpec, height: int) -> int:
    n = 1
    for m in spec.children[:height]:
        n *= m
    return n


def host_subtree(spec: XGFTSpec, host_index: int, height: int) -> int:
    """Index of the height-``height`` subtree containing ``host_index``."""

    if height == 0:
        return host_index
    return host_index // _hosts_per_subtree(spec, height)


def switch_subtree(spec: XGFTSpec, node: NodeId, height: int) -> int:
    """Index of the height-``height`` subtree containing switch ``node``.

    Valid for ``height >= node.level`` (a switch belongs to exactly one
    subtree at each height at or above its own level).
    """

    if node.level == 0:
        return host_subtree(spec, node.index, height)
    if height < node.level:
        raise ValueError(
            f"switch at level {node.level} has no height-{height} subtree"
        )
    num_subtrees = 1
    for m in spec.children[height:]:
        num_subtrees *= m
    per_tree = spec.switches_at_level(node.level) // num_subtrees
    return node.index // per_tree


def lca_height(spec: XGFTSpec, src_host: int, dst_host: int) -> int:
    """Smallest subtree height at which both hosts are in one subtree."""

    for height in range(spec.height + 1):
        if host_subtree(spec, src_host, height) == host_subtree(
            spec, dst_host, height
        ):
            return height
    raise ValueError(
        f"hosts {src_host} and {dst_host} share no subtree "
        f"(is one of them outside the fabric of {spec.num_hosts} hosts?)"
    )


def _descend(topo: Topology, ancestor: NodeId, dst_host: int) -> list[NodeId]:
    """Unique down path from ``ancestor`` to host ``dst_host`` (exclusive
    of the ancestor itself, inclusive of the host)."""

    spec = topo.spec
    path: list[NodeId] = []
    current = ancestor
    while current.level > 0:
        want_height = current.level - 1
        want_tree = host_subtree(spec, dst_host, want_height)
        nxt: NodeId | None = None
        for cand in topo.down_neighbors(current):
            tree = (
                host_subtree(spec, cand.index, want_height)
                if cand.level == 0
                else switch_subtree(spec, cand, want_height)
            )
            if tree == want_tree:
                nxt = cand
                break
        if nxt is None:
            raise ValueError(
                f"descent stuck at {current} towards host {dst_host}"
            )
        path.append(nxt)
        current = nxt
    if current.index != dst_host:
        raise AssertionError(
            f"descent reached host {current.index}, wanted {dst_host}"
        )
    return path


def _updown_route(
    topo: Topology, src_host: int, dst_host: int, chooser
) -> list[NodeId]:
    """Shared up*/down* path builder; ``chooser`` resolves ascent choices."""

    if src_host == dst_host:
        return [topo.host(src_host)]
    spec = topo.spec
    turn = lca_height(spec, src_host, dst_host)
    path: list[NodeId] = [topo.host(src_host)]
    for _ in range(turn):
        ups = topo.up_neighbors(path[-1])
        if not ups:
            raise ValueError(f"no upward neighbour at {path[-1]}")
        path.append(chooser(ups) if len(ups) > 1 else ups[0])
    path.extend(_descend(topo, path[-1], dst_host))
    return path


def route_with_chooser(
    topo: Topology, src_host: int, dst_host: int, chooser
) -> list[NodeId]:
    """Family-agnostic path builder; ``chooser`` resolves routing freedom.

    XGFT-spec topologies route up*/down* with the chooser applied per
    ascent choice point (bit-for-bit the paper scheme); every other
    family draws one choice among the topology's deterministic candidate
    shortest-path set.  In both cases the chooser receives a non-empty
    sequence and must return one of its elements, and it is only invoked
    when there is genuine freedom (more than one candidate), so seeded
    chooser streams are consumed identically across route recompiles.
    """

    if isinstance(topo.spec, XGFTSpec):
        return _updown_route(topo, src_host, dst_host, chooser)
    if src_host == dst_host:
        return [topo.host(src_host)]
    candidates = topo.candidate_paths(src_host, dst_host)
    if not candidates:
        raise ValueError(f"no path from host {src_host} to {dst_host}")
    chosen = candidates[0] if len(candidates) == 1 else chooser(candidates)
    return list(chosen)


@dataclass
class RandomRouter:
    """Random up*/down* routing (the paper's Table II scheme).

    ``route`` draws a fresh path per call from the shared ``rng``; the
    fabric's :class:`RouteTable` freezes one draw per (src, dst) pair
    instead, keyed off ``seed`` (kept here so the table can re-derive
    pair streams without consuming this generator).
    """

    topo: Topology
    rng: np.random.Generator
    seed: int | None = None

    @classmethod
    def seeded(cls, topo: Topology, seed: int = 0) -> "RandomRouter":
        return cls(topo, np.random.default_rng(seed), seed)

    def route(self, src_host: int, dst_host: int) -> list[NodeId]:
        def chooser(candidates: Sequence) -> NodeId:
            return candidates[int(self.rng.integers(len(candidates)))]

        return route_with_chooser(self.topo, src_host, dst_host, chooser)


@dataclass
class DeterministicRouter:
    """d-mod-k routing: ascent choice indexed by the destination host.

    Deterministic and congestion-spreading; used by tests (stable paths)
    and the routing ablation bench.
    """

    topo: Topology

    def route(self, src_host: int, dst_host: int) -> list[NodeId]:
        def chooser(candidates: Sequence) -> NodeId:
            return candidates[dst_host % len(candidates)]

        return route_with_chooser(self.topo, src_host, dst_host, chooser)


@dataclass
class RouteTable:
    """Static per-(src, dst) routes, the fabric's precompiled view.

    Real IB subnet managers program *static* destination routes into the
    forwarding tables once; the per-message re-rolls of
    :class:`RandomRouter` model the route *assignment* being random, not
    per-packet spraying.  The table realises that: each (src, dst) pair
    gets one fixed up*/down* path, compiled on first use.

    Determinism is order-independent: the ascent choices of a pair are
    drawn from a PRNG stream seeded by ``(seed, src, dst)``, never from a
    shared sequential stream, so the compiled route of a pair is a pure
    function of the table's seed — identical no matter how many replays
    ran before or which pairs compiled first.  ``seed=None`` selects the
    d-mod-k deterministic choices of :class:`DeterministicRouter`
    instead.

    ``router`` is the fallback strategy for routers the table cannot
    re-derive per pair (a custom :class:`Router`, or a
    :class:`RandomRouter` built around an unseeded generator): missing
    paths are then computed by ``router.route``, so route assignment
    depends on the order pairs are first used — still deterministic for
    a fixed traffic pattern.

    ``pairs_compiled`` counts the lazy compilations (per table, so per
    fabric and per run).
    """

    topo: Topology
    seed: int | None = None
    router: Router | None = None
    pairs_compiled: int = 0
    _paths: dict[tuple[int, int], tuple[NodeId, ...]] = field(
        default_factory=dict, repr=False
    )

    def path(self, src_host: int, dst_host: int) -> tuple[NodeId, ...]:
        """The static vertex path of one host pair (compiled once)."""

        key = (src_host, dst_host)
        cached = self._paths.get(key)
        if cached is None:
            cached = tuple(self._compile(src_host, dst_host))
            self._paths[key] = cached
            self.pairs_compiled += 1
        return cached

    def route(self, src_host: int, dst_host: int) -> list[NodeId]:
        """Router-protocol adapter over :meth:`path`."""

        return list(self.path(src_host, dst_host))

    def _compile(self, src_host: int, dst_host: int) -> list[NodeId]:
        if self.router is not None:
            return self.router.route(src_host, dst_host)
        if self.seed is None:
            def chooser(candidates: Sequence) -> NodeId:
                return candidates[dst_host % len(candidates)]
        else:
            rng = np.random.default_rng(
                (self.seed & 0xFFFFFFFFFFFFFFFF, src_host, dst_host)
            )

            def chooser(candidates: Sequence) -> NodeId:
                return candidates[int(rng.integers(len(candidates)))]

        return route_with_chooser(self.topo, src_host, dst_host, chooser)


def failover_route(
    topo: Topology,
    src_host: int,
    dst_host: int,
    *,
    failed_links: frozenset | set = frozenset(),
    failed_switches: frozenset | set = frozenset(),
    seed: int | None = None,
    salt: int = 0,
) -> tuple[NodeId, ...] | None:
    """A surviving minimal route around failed elements, or ``None``.

    Filters the topology's deterministic candidate shortest-path set
    (:meth:`~repro.network.topology.Topology.candidate_paths`) down to
    paths avoiding ``failed_links`` (undirected edge keys) and
    ``failed_switches`` (switch nodes), then draws one survivor from
    ``(seed, src, dst, salt)`` — order-independent like the static
    route table, with ``salt`` (the fault layer passes its reroute
    epoch) decorrelating successive migrations of one pair.  ``seed``
    ``None`` falls back to the d-mod-k deterministic choice.  Returns
    ``None`` when the pair is genuinely partitioned (under minimal
    routing — non-minimal detours are out of model).
    """

    survivors = []
    for path in topo.candidate_paths(src_host, dst_host):
        alive = True
        for node in path[1:-1]:
            if node in failed_switches:
                alive = False
                break
        if alive:
            for tail, head in zip(path, path[1:]):
                key = (tail, head) if tail <= head else (head, tail)
                if key in failed_links:
                    alive = False
                    break
        if alive:
            survivors.append(path)
    if not survivors:
        return None
    if len(survivors) == 1:
        return survivors[0]
    if seed is None:
        return survivors[dst_host % len(survivors)]
    rng = np.random.default_rng(
        (seed & 0xFFFFFFFFFFFFFFFF, src_host, dst_host, salt)
    )
    return survivors[int(rng.integers(len(survivors)))]


def path_links(path: Sequence[NodeId]) -> list[tuple[NodeId, NodeId]]:
    """Directed (tail, head) pairs along a vertex path."""

    return list(zip(path, path[1:]))


def hop_count(path: Sequence[NodeId]) -> int:
    return max(0, len(path) - 1)
