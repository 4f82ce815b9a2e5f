"""Multi-job cluster layer: job streams, placement, shared-fabric replay.

Single-job replays (:mod:`repro.sim.dimemas`) own their whole fabric;
this package composes many of them onto one shared fabric so concurrent
jobs contend on trunk links while each keeps its own trace, route slice
and power-management directives:

* :mod:`repro.cluster.jobs` — the :class:`Job` spec, the
  ``kind:key=value,...`` stream grammar (:func:`parse_jobs`) and the
  seed-deterministic arrival generators (static / Poisson / diurnal);
* :mod:`repro.cluster.placement` — ``packed`` / ``spread`` / ``random``
  host selection over the shared topology's leaf groups;
* :mod:`repro.cluster.scheduler` — the :class:`ClusterScheduler` (FCFS
  admission as engine events, per-job :class:`FabricSlice` worlds,
  per-tenant power accounting) and the
  :func:`replay_cluster_baseline` / :func:`replay_cluster_managed`
  drivers.

Determinism contract: ``(seed, topology, job stream) -> identical
timeline``, on both replay kernels — pinned by the cluster
differential tier.
"""

from .jobs import (
    STREAM_KINDS,
    Job,
    JobSpecError,
    arrivals_diurnal,
    arrivals_poisson,
    arrivals_static,
    jobs_help,
    parse_jobs,
)
from .placement import (
    PLACEMENT_POLICIES,
    PlacementError,
    leaf_groups,
    place_job,
)
from .scheduler import (
    ClusterBaselineResult,
    ClusterJob,
    ClusterResult,
    ClusterScheduler,
    FabricSlice,
    JobAttribution,
    JobSpan,
    TenantRollup,
    replay_cluster_baseline,
    replay_cluster_managed,
)

__all__ = [
    "STREAM_KINDS",
    "Job",
    "JobSpecError",
    "arrivals_diurnal",
    "arrivals_poisson",
    "arrivals_static",
    "jobs_help",
    "parse_jobs",
    "PLACEMENT_POLICIES",
    "PlacementError",
    "leaf_groups",
    "place_job",
    "ClusterBaselineResult",
    "ClusterJob",
    "ClusterResult",
    "ClusterScheduler",
    "FabricSlice",
    "JobAttribution",
    "JobSpan",
    "TenantRollup",
    "replay_cluster_baseline",
    "replay_cluster_managed",
]
