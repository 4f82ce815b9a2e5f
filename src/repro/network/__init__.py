"""Network substrate: pluggable topologies, IB links/lanes, routing, fabric.

This package plays the Venus role of the paper's co-simulation.  The
paper's fabric is a two-level extended generalized fat tree of
InfiniBand switches with 4X QDR links (40 Gb/s), 2 KB segments and
random routing (Table II), plus the WRPS lane-width power machinery the
mechanism controls; :mod:`repro.network.topologies` adds a builder
registry with further families (k-ary n-torus, dragonfly,
oversubscribed fat tree) behind the same fabric/routing stack.
"""

from .fabric import Fabric, TransferTiming
from .faults import (
    NO_FAULTS,
    FabricPartitioned,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    FaultSpecError,
    FaultSummary,
    compile_fault_plan,
    faults_help,
    parse_faults,
)
from .links import DirectedChannel, Link, LinkPowerMode
from .routing import (
    DeterministicRouter,
    RandomRouter,
    Router,
    failover_route,
    hop_count,
    host_subtree,
    lca_height,
    path_links,
    route_with_chooser,
    switch_subtree,
)
from .switches import Switch
from .topologies import (
    DEFAULT_TOPOLOGY,
    TopologySpecError,
    build_topology,
    parse_topology,
    register_family,
    topology_families,
    topology_help,
)
from .topology import (
    NodeId,
    Topology,
    XGFTSpec,
    build_xgft,
    fitted_topology,
    paper_topology,
)

__all__ = [
    "Fabric",
    "TransferTiming",
    "NO_FAULTS",
    "FabricPartitioned",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "FaultSpecError",
    "TopologySpecError",
    "FaultSummary",
    "compile_fault_plan",
    "faults_help",
    "parse_faults",
    "DirectedChannel",
    "Link",
    "LinkPowerMode",
    "DeterministicRouter",
    "RandomRouter",
    "Router",
    "failover_route",
    "hop_count",
    "host_subtree",
    "lca_height",
    "path_links",
    "route_with_chooser",
    "switch_subtree",
    "DEFAULT_TOPOLOGY",
    "build_topology",
    "parse_topology",
    "register_family",
    "topology_families",
    "topology_help",
    "Switch",
    "NodeId",
    "Topology",
    "XGFTSpec",
    "build_xgft",
    "fitted_topology",
    "paper_topology",
]
