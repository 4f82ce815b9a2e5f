"""Topology graphs: the generic vertex/edge substrate + XGFT construction.

:class:`Topology` is the family-agnostic representation every fabric is
built on: hosts, switches, an adjacency map, and a deterministic
candidate-shortest-path enumeration (:meth:`Topology.candidate_paths`)
that the routing layer uses for families without a closed-form routing
rule.  Concrete families are materialised by builders — :func:`build_xgft`
below for fat trees, and the :mod:`repro.network.topologies` package for
the pluggable registry (torus, dragonfly, oversubscribed fat tree, ...).

The paper's Table II evaluates on ``XGFT(2; 18, 14; 1, 18)``: a two-level
fat tree whose leaf switches each attach 18 compute nodes, with 14 leaf
switches and 18 top-level (spine) switches.  We implement the general
XGFT(h; m_1..m_h; w_1..w_h) recursive definition (Öhring et al.):

* an XGFT of height 0 is a single compute node;
* an XGFT of height ``h`` consists of ``m_h`` disjoint sub-trees of height
  ``h-1`` plus ``w_h * prod(w_1..w_{h-1})`` top switches at level ``h``;
  top switch numbering and the connection rule follow the standard
  construction: sub-tree ``i``'s level-(h-1) top switch ``j`` connects to
  the top switches whose index is congruent to ``j`` modulo the sub-tree's
  top-switch count, fanned out ``w_h`` ways.

For the two-level instance used in the paper this degenerates to the
familiar picture: every leaf switch has an uplink to every spine switch.

Nodes in the graph are identified by ``NodeId`` tuples so that tests can
assert structure without depending on integer numbering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..constants import XGFT_CHILDREN, XGFT_HEIGHT, XGFT_PARENTS


@dataclass(frozen=True, slots=True, order=True)
class NodeId:
    """Identifier of a vertex in the fat tree.

    ``level`` 0 denotes compute nodes (hosts); levels ``1..h`` are switch
    levels.  ``index`` is the position within the level, counted left to
    right in the recursive construction.
    """

    level: int
    index: int

    @property
    def is_host(self) -> bool:
        return self.level == 0

    def __str__(self) -> str:  # compact for logs: h12, s1.3
        if self.is_host:
            return f"h{self.index}"
        return f"s{self.level}.{self.index}"


@dataclass(frozen=True, slots=True)
class XGFTSpec:
    """Parameters of an XGFT(h; m_1..m_h; w_1..w_h)."""

    children: tuple[int, ...]   # m_1 .. m_h
    parents: tuple[int, ...]    # w_1 .. w_h

    def __post_init__(self) -> None:
        if len(self.children) != len(self.parents):
            raise ValueError("children and parents must have the same length")
        if not self.children:
            raise ValueError("height must be at least 1")
        if any(m <= 0 for m in self.children) or any(w <= 0 for w in self.parents):
            raise ValueError("all arities must be positive")

    @property
    def height(self) -> int:
        return len(self.children)

    @property
    def num_hosts(self) -> int:
        n = 1
        for m in self.children:
            n *= m
        return n

    def switches_at_level(self, level: int) -> int:
        """Number of switches at ``level`` (1-based)."""

        if not 1 <= level <= self.height:
            raise ValueError(f"level {level} out of range 1..{self.height}")
        # prod(m_{level+1}..m_h) groups, each with prod(w_1..w_level) switches
        groups = 1
        for m in self.children[level:]:
            groups *= m
        switches = 1
        for w in self.parents[:level]:
            switches *= w
        return groups * switches

    @property
    def num_switches(self) -> int:
        return sum(self.switches_at_level(l) for l in range(1, self.height + 1))

    @classmethod
    def paper_default(cls) -> "XGFTSpec":
        """The paper's Table II connectivity: XGFT(2; 18, 14; 1, 18)."""

        assert XGFT_HEIGHT == len(XGFT_CHILDREN) == len(XGFT_PARENTS)
        return cls(tuple(XGFT_CHILDREN), tuple(XGFT_PARENTS))

    @classmethod
    def two_level(cls, hosts_per_leaf: int, num_leaves: int, num_spines: int) -> "XGFTSpec":
        """Convenience for the common 2-level case.

        ``XGFT(2; hosts_per_leaf, num_leaves; 1, num_spines)``.
        """

        return cls((hosts_per_leaf, num_leaves), (1, num_spines))


#: cap on the deterministic shortest-path enumeration per host pair —
#: generous for the fabrics we simulate (a 2-level fat tree has at most
#: ``num_spines`` minimal paths; a torus' multinomial path counts are
#: truncated in lexicographic order past this)
MAX_CANDIDATE_PATHS = 64


@dataclass(slots=True)
class Topology:
    """An explicit vertex/edge representation of a network topology.

    Edges are stored as an adjacency map ``node -> sorted list of
    neighbours``; every physical cable appears exactly once in ``edges``.
    ``spec`` is the family's parameter object; every spec exposes
    ``num_hosts`` / ``num_switches`` so :meth:`validate` is generic.
    ``family`` names the builder that produced the graph (reporting and
    the bench's topology dimension).
    """

    spec: object
    hosts: list[NodeId] = field(default_factory=list)
    switches: list[NodeId] = field(default_factory=list)
    adjacency: dict[NodeId, list[NodeId]] = field(default_factory=dict)
    edges: list[tuple[NodeId, NodeId]] = field(default_factory=list)
    family: str = "xgft"
    #: per-destination BFS distance maps and per-pair candidate path
    #: sets, both pure functions of the graph (safe to cache for the
    #: topology's whole lifetime)
    _dist_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _path_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def connect(self, a: NodeId, b: NodeId) -> None:
        """Add one physical cable (both adjacency directions + edge)."""

        self.adjacency[a].append(b)
        self.adjacency[b].append(a)
        self.edges.append((a, b))

    def finalize(self) -> "Topology":
        """Sort adjacency (the candidate-path determinism contract
        depends on it) and validate; builders end with this."""

        for node in self.adjacency:
            self.adjacency[node].sort()
        self.validate()
        return self

    def up_neighbors(self, node: NodeId) -> list[NodeId]:
        return [n for n in self.adjacency[node] if n.level > node.level]

    def down_neighbors(self, node: NodeId) -> list[NodeId]:
        return [n for n in self.adjacency[node] if n.level < node.level]

    @property
    def num_hosts(self) -> int:
        return len(self.hosts)

    def host(self, index: int) -> NodeId:
        return self.hosts[index]

    def validate(self) -> None:
        """Structural sanity checks (used by tests and on construction).

        Rejects degenerate graphs outright: spec/graph count mismatches,
        hosts without exactly one uplink (the fabric's ``host_link``
        contract), duplicate cables, and disconnected fabrics.
        """

        if not self.hosts:
            raise AssertionError("topology has no hosts")
        if len(self.hosts) != self.spec.num_hosts:
            raise AssertionError("host count mismatch")
        if len(self.switches) != self.spec.num_switches:
            raise AssertionError("switch count mismatch")
        for host in self.hosts:
            ups = self.up_neighbors(host)
            if len(ups) != 1:
                raise AssertionError(f"host {host} has {len(ups)} uplinks")
        seen = set()
        for a, b in self.edges:
            key = (a, b) if a <= b else (b, a)
            if key in seen:
                raise AssertionError(f"duplicate edge {a}-{b}")
            seen.add(key)
        if len(self.hosts) > 1:
            reached = self._distances_to(self.hosts[0])
            total = len(self.hosts) + len(self.switches)
            if len(reached) != total:
                raise AssertionError(
                    f"topology is disconnected: {len(reached)} of {total} "
                    "nodes reachable from host 0"
                )

    # -- generic routing substrate ------------------------------------------

    def _distances_to(self, target: NodeId) -> dict[NodeId, int]:
        """Hop distances of every reachable node to ``target`` (BFS)."""

        cached = self._dist_cache.get(target)
        if cached is not None:
            return cached
        dist = {target: 0}
        frontier = [target]
        while frontier:
            nxt: list[NodeId] = []
            for node in frontier:
                d = dist[node] + 1
                for nb in self.adjacency[node]:
                    if nb not in dist:
                        dist[nb] = d
                        nxt.append(nb)
            frontier = nxt
        self._dist_cache[target] = dist
        return dist

    def candidate_paths(
        self, src_host: int, dst_host: int, max_paths: int = MAX_CANDIDATE_PATHS
    ) -> tuple[tuple[NodeId, ...], ...]:
        """All minimal host-to-host vertex paths, deterministically ordered.

        The enumeration walks the shortest-path DAG with neighbours in
        sorted order, so the candidate set (and its order) is a pure
        function of the graph — never of compile order, replay history
        or process — which is what lets the route table draw a seeded
        choice per ``(seed, src, dst)`` over any topology family.  At
        most ``max_paths`` paths are returned (lexicographically first).
        """

        key = (src_host, dst_host, max_paths)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        src, dst = self.host(src_host), self.host(dst_host)
        if src == dst:
            paths: tuple[tuple[NodeId, ...], ...] = ((src,),)
        else:
            dist = self._distances_to(dst)
            if src not in dist:
                raise ValueError(
                    f"hosts {src_host} and {dst_host} are disconnected"
                )
            # cached per (pair, max_paths): a truncated enumeration must
            # never be served to a caller asking for a larger cap
            found: list[tuple[NodeId, ...]] = []
            stack: list[NodeId] = [src]

            def extend(node: NodeId) -> None:
                if len(found) >= max_paths:
                    return
                if node == dst:
                    found.append(tuple(stack))
                    return
                want = dist[node] - 1
                for nb in self.adjacency[node]:
                    if dist.get(nb) == want:
                        stack.append(nb)
                        extend(nb)
                        stack.pop()
                        if len(found) >= max_paths:
                            return

            extend(src)
            paths = tuple(found)
        self._path_cache[key] = paths
        return paths


def build_xgft(spec: XGFTSpec) -> Topology:
    """Materialise the XGFT described by ``spec``."""

    topo = Topology(spec=spec)
    h = spec.height

    topo.hosts = [NodeId(0, i) for i in range(spec.num_hosts)]
    level_nodes: dict[int, list[NodeId]] = {0: list(topo.hosts)}
    for level in range(1, h + 1):
        nodes = [NodeId(level, i) for i in range(spec.switches_at_level(level))]
        level_nodes[level] = nodes
        topo.switches.extend(nodes)

    for node in itertools.chain(topo.hosts, topo.switches):
        topo.adjacency[node] = []

    # Recursive XGFT wiring.  At each level l (1-based) the tree of height
    # ``l`` is partitioned into prod(m_{l+1}..m_h) identical sub-trees.
    # Within one sub-tree there are m_l child-blocks, each exposing
    # top_below = prod(w_1..w_{l-1}) level-(l-1) top vertices, and
    # tops = top_below * w_l level-l switches.  Child-block c's top vertex
    # j connects to level-l switches {j, j+top_below, ..., j+(w_l-1)*top_below}.
    for level in range(1, h + 1):
        m_l = spec.children[level - 1]
        w_l = spec.parents[level - 1]
        top_below = 1
        for w in spec.parents[: level - 1]:
            top_below *= w
        tops_per_subtree = top_below * w_l

        if level == 1:
            below_per_subtree = 1  # hosts expose themselves
        else:
            below_per_subtree = top_below

        # how many height-level sub-trees exist
        num_subtrees = 1
        for m in spec.children[level:]:
            num_subtrees *= m

        below_nodes = level_nodes[level - 1]
        these = level_nodes[level]
        # nodes of level-1 exposed per height-(level) sub-tree:
        below_per_tree = len(below_nodes) // num_subtrees
        tops_per_tree = len(these) // num_subtrees
        assert tops_per_tree == tops_per_subtree

        for t in range(num_subtrees):
            tree_below = below_nodes[t * below_per_tree : (t + 1) * below_per_tree]
            tree_tops = these[t * tops_per_tree : (t + 1) * tops_per_tree]
            block = below_per_tree // m_l  # exposed vertices per child block
            for c in range(m_l):
                child_top = tree_below[c * block : (c + 1) * block]
                # for level 1 every host is its own "top"; for higher levels
                # only the top_below top vertices of the child sub-tree
                # participate (which is all of them, since block==top_below
                # when level>1 and block==1 when level==1).
                for j, v in enumerate(child_top):
                    for k in range(w_l):
                        topo.connect(v, tree_tops[j + k * len(child_top)])

    return topo.finalize()


def paper_topology() -> Topology:
    """The evaluation fabric from Table II: XGFT(2; 18, 14; 1, 18)."""

    return build_xgft(XGFTSpec.paper_default())


def fitted_topology(nranks: int, hosts_per_leaf: int = 18) -> Topology:
    """Smallest paper-style 2-level XGFT that accommodates ``nranks`` hosts.

    The paper allocates one MPI process per node; simulating the full
    252-host fabric for an 8-rank run wastes memory, so experiments use a
    rightsized instance with the same hosts-per-leaf arity and full
    leaf-spine bisection (one uplink from each leaf to every spine, with
    as many spines as there are hosts per leaf — never silently capped).
    The result is always a genuine two-level network: at least two leaf
    switches, even for a single-rank run.
    """

    if nranks <= 0:
        raise ValueError("nranks must be positive")
    if hosts_per_leaf <= 0:
        raise ValueError("hosts_per_leaf must be positive")
    hosts_per_leaf = min(hosts_per_leaf, nranks)
    num_leaves = -(-nranks // hosts_per_leaf)  # ceil
    if num_leaves == 1:
        # keep a genuine two-level network: split across two leaves
        num_leaves = 2
        hosts_per_leaf = max(1, -(-nranks // num_leaves))
    # full bisection as promised: one spine per host-per-leaf port
    num_spines = hosts_per_leaf
    spec = XGFTSpec.two_level(hosts_per_leaf, num_leaves, num_spines)
    return build_xgft(spec)
