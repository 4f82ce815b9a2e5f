"""Warm caches for the simulation service, with asserted stage counters.

The daemon owns one :class:`WarmPipeline`.  It mirrors the exact replay
sequence of :func:`repro.experiments.common.run_cell` — trace
generation, program compilation, fabric build + route precompilation,
baseline replay, GT selection, the shared planning pass, then one
managed replay per displacement — but caches the displacement-
independent artefacts in a bounded LRU keyed by the full cell spec
``(app, nranks, iterations, seed, scaling, topology, kernel, scheduler,
faults, policy)``.  A warm what-if query (same cell, new displacement)
therefore costs **one replay** (one copy-on-write rebind, one weave,
one managed replay straight from the cached compiled programs — a
bundle keeps its trace only for a reference-kernel spec); a repeated
query is a pure result hit and costs nothing.

Every stage execution increments a counter (:attr:`WarmPipeline.
stage_runs`), so "no trace-gen / compile / fabric-build on a cache hit"
is asserted by the service tests and the smoke gate rather than
assumed.  LRU hits/misses/evictions are counted per cache and exposed
through the daemon's ``stats`` endpoint.

Determinism: the warm path reuses the cell's fabric via
``Fabric.reset()`` and its compiled programs — precisely the sharing
``run_cell`` does, pinned bit-for-bit by ``tests/network/
test_fabric_reuse.py`` and the differential tier — so a warm hit is
byte-identical to a cold run.  :func:`cell_payload` fixes the canonical
JSON-able result (including a deep sha256 fingerprint over the power
report, per-link savings, per-rank counters and event-stream extents),
and the service tier pins daemon-served payloads against direct
``run_cell`` results across topology families, policies, faults, cache
evictions and daemon restarts.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import asdict, dataclass, is_dataclass

from ..core import RuntimeConfig, plan_trace_directives_shared, select_gt_detailed
from ..network.faults import NO_FAULTS
from ..network.topologies import DEFAULT_TOPOLOGY
from ..power.policies import DEFAULT_POLICY
from ..power.states import WRPSParams
from ..sim import (
    ReplayConfig,
    compile_trace,
    fabric_for,
    replay_baseline,
    replay_managed,
)
from ..workloads import APPLICATIONS, make_trace

#: pipeline stages the service counts (cold query runs all of them,
#: a warm what-if runs only ``managed_replay``, a result hit runs none)
STAGES = (
    "trace_generation",
    "program_compile",
    "fabric_build",
    "baseline_replay",
    "gt_select",
    "planning_pass",
    "managed_replay",
)

#: canonical field order of a normalised cell spec (the cache key)
SPEC_FIELDS = (
    "app",
    "nranks",
    "displacement",
    "iterations",
    "seed",
    "scaling",
    "topology",
    "kernel",
    "scheduler",
    "faults",
    "policy",
)


class SpecError(ValueError):
    """A request's cell spec is malformed (becomes ``BAD_REQUEST``)."""


def normalize_spec(raw: dict) -> dict:
    """Validate and default a cell spec into canonical form.

    The returned dict has exactly :data:`SPEC_FIELDS`, explicit values
    for every default, and validated types — so equal logical requests
    always map to the same cache key, whatever their spelling.
    """

    if not isinstance(raw, dict):
        raise SpecError(f"cell spec must be an object, got {type(raw).__name__}")
    unknown = set(raw) - set(SPEC_FIELDS)
    if unknown:
        raise SpecError(f"unknown cell spec field(s): {sorted(unknown)}")

    from ..experiments.common import default_iterations

    app = raw.get("app")
    if app not in APPLICATIONS:
        raise SpecError(f"app must be one of {APPLICATIONS}, got {app!r}")
    try:
        nranks = int(raw.get("nranks"))
    except (TypeError, ValueError):
        raise SpecError(f"nranks must be an integer, got {raw.get('nranks')!r}")
    if nranks < 2:
        raise SpecError(f"nranks must be >= 2, got {nranks}")
    try:
        displacement = float(raw.get("displacement", 0.01))
    except (TypeError, ValueError):
        raise SpecError(
            f"displacement must be a number, got {raw.get('displacement')!r}"
        )
    if not 0.0 <= displacement < 1.0:
        raise SpecError(f"displacement must be in [0, 1), got {displacement}")
    iterations = raw.get("iterations")
    iterations = default_iterations() if iterations is None else int(iterations)
    if iterations < 1:
        raise SpecError(f"iterations must be >= 1, got {iterations}")
    scaling = raw.get("scaling", "strong")
    if scaling not in ("strong", "weak"):
        raise SpecError(f"scaling must be strong|weak, got {scaling!r}")
    kernel = raw.get("kernel", "fast")
    if kernel not in ("fast", "reference"):
        raise SpecError(f"kernel must be fast|reference, got {kernel!r}")
    scheduler = raw.get("scheduler", "calendar")
    if scheduler not in ("calendar", "heap"):
        raise SpecError(f"scheduler must be calendar|heap, got {scheduler!r}")
    return {
        "app": app,
        "nranks": nranks,
        "displacement": displacement,
        "iterations": iterations,
        "seed": int(raw.get("seed", 1234)),
        "scaling": scaling,
        "topology": str(raw.get("topology", DEFAULT_TOPOLOGY)),
        "kernel": kernel,
        "scheduler": scheduler,
        "faults": str(raw.get("faults", NO_FAULTS)),
        "policy": str(raw.get("policy", DEFAULT_POLICY)),
    }


def spec_key(spec: dict) -> tuple:
    """The full cache key (result identity) of a normalised spec."""

    return tuple(spec[f] for f in SPEC_FIELDS)


def cell_key(spec: dict) -> tuple:
    """The artefact-bundle key: the spec minus the displacement (every
    pipeline stage before the managed replay is displacement-free)."""

    return tuple(spec[f] for f in SPEC_FIELDS if f != "displacement")


class LRUCache:
    """Bounded insert/use-ordered mapping with hit/miss/evict counters."""

    def __init__(self, name: str, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "size": len(self._data),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate_pct": 100.0 * self.hits / total if total else 0.0,
        }


@dataclass(slots=True)
class _CellBundle:
    """Displacement-independent artefacts of one cell, LRU-cached.

    ``trace`` is kept only for a reference-kernel spec (the interpreter
    replays records); the fast kernel replays ``programs`` alone.
    """

    trace: object | None
    programs: object
    fabric: object
    baseline: object
    best_gt: object
    gt_us: float
    plan: object
    params: WRPSParams
    replay_cfg: ReplayConfig


def _jsonable(value):
    """Dataclass trees -> JSON-able structures (tuples become lists)."""

    if is_dataclass(value) and not isinstance(value, type):
        return _jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def cell_payload(spec: dict, best_gt, baseline, managed) -> dict:
    """The canonical JSON-able result of one cell query.

    Built from the same objects ``run_cell`` returns (``cell.gt``,
    ``cell.baseline``, ``cell.managed[d]``), so tests can compute the
    expected payload directly and compare the daemon's answer for exact
    equality.  The ``fingerprint`` is a sha256 over a deep detail record
    (power report, per-link savings, per-rank counters and event-stream
    extents, class savings, fault summary) — two payloads with equal
    fingerprints came from bit-for-bit identical replays.
    """

    detail = {
        "spec": {f: spec[f] for f in SPEC_FIELDS},
        "gt_us": best_gt.gt_us,
        "hit_rate_pct": best_gt.hit_rate_pct,
        "baseline_exec_time_us": baseline.exec_time_us,
        "exec_time_us": managed.exec_time_us,
        "power": _jsonable(managed.power),
        "counters": _jsonable(list(managed.counters)),
        "per_rank_events": [
            [len(log),
             log[0].enter_us if log else None,
             log[-1].exit_us if log else None]
            for log in managed.event_logs
        ],
        "class_savings": _jsonable(list(managed.class_savings)),
        "faults": _jsonable(managed.faults) if managed.faults else None,
        "grouping_thresholds_us": list(managed.grouping_thresholds_us),
    }
    fingerprint = hashlib.sha256(
        json.dumps(detail, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return {
        "spec": detail["spec"],
        "gt_us": best_gt.gt_us,
        "hit_rate_pct": best_gt.hit_rate_pct,
        "baseline_exec_time_us": baseline.exec_time_us,
        "exec_time_us": managed.exec_time_us,
        "power_savings_pct": managed.power_savings_pct,
        "exec_time_increase_pct": managed.exec_time_increase_pct,
        "mean_low_residency_pct": managed.power.mean_low_residency_pct,
        "total_transitions_to_low": managed.power.total_transitions_to_low,
        "total_shutdowns": managed.total_shutdowns,
        "total_mispredictions": managed.total_mispredictions,
        "total_penalty_us": managed.total_penalty_us,
        "helper_spawns": managed.helper_spawns,
        "class_savings": detail["class_savings"],
        "faults": detail["faults"],
        "fingerprint": fingerprint,
    }


class WarmPipeline:
    """The service's execution engine: ``run_cell``'s pipeline behind
    bounded LRU caches and per-stage run counters."""

    def __init__(self, cell_capacity: int = 8, result_capacity: int = 256):
        self.cells = LRUCache("cells", cell_capacity)
        self.results = LRUCache("results", result_capacity)
        self.stage_runs: dict[str, int] = {s: 0 for s in STAGES}

    def cache_stats(self) -> dict:
        return {
            "cells": self.cells.stats(),
            "results": self.results.stats(),
        }

    def _run(self, stage: str, ran: list[str]) -> None:
        self.stage_runs[stage] += 1
        ran.append(stage)

    def _build_bundle(self, spec: dict, ran: list[str]) -> _CellBundle:
        params = WRPSParams.paper()
        replay_cfg = ReplayConfig(
            seed=spec["seed"],
            topology=spec["topology"],
            kernel=spec["kernel"],
            scheduler=spec["scheduler"],
            faults=spec["faults"],
            policy=spec["policy"],
        )
        self._run("trace_generation", ran)
        trace = make_trace(
            spec["app"], spec["nranks"], iterations=spec["iterations"],
            seed=spec["seed"], scaling=spec["scaling"],
        )
        self._run("program_compile", ran)
        programs = compile_trace(trace)
        self._run("fabric_build", ran)
        fabric = fabric_for(spec["nranks"], replay_cfg)
        fabric.precompile_pairs(programs.comm_pairs())
        self._run("baseline_replay", ran)
        baseline = replay_baseline(
            trace, replay_cfg, fabric=fabric, programs=programs
        )
        self._run("gt_select", ran)
        selection = select_gt_detailed(baseline.event_logs)
        gt_us = max(selection.best.gt_us, params.min_worthwhile_idle_us)
        self._run("planning_pass", ran)
        plan = plan_trace_directives_shared(
            baseline.event_logs,
            RuntimeConfig(gt_us=gt_us, wrps=params, charge_overheads=True),
        )
        return _CellBundle(
            trace=trace if spec["kernel"] == "reference" else None,
            programs=programs, fabric=fabric,
            baseline=baseline, best_gt=selection.best, gt_us=gt_us,
            plan=plan, params=params, replay_cfg=replay_cfg,
        )

    def query(self, spec: dict) -> tuple[dict, list[str]]:
        """Serve one cell query; returns ``(payload, stages_ran)``.

        ``stages_ran`` is empty on a pure result hit, exactly
        ``["managed_replay"]`` on a warm what-if (artefacts cached, new
        displacement), and the full stage list on a cold miss.
        """

        spec = normalize_spec(spec)
        full_key = spec_key(spec)
        cached = self.results.get(full_key)
        if cached is not None:
            return cached, []
        ran: list[str] = []
        bundle = self.cells.get(cell_key(spec))
        if bundle is None:
            bundle = self._build_bundle(spec, ran)
            self.cells.put(cell_key(spec), bundle)
        self._run("managed_replay", ran)
        directives, stats = bundle.plan.rebind_displacement(
            spec["displacement"]
        )
        managed = replay_managed(
            bundle.programs if bundle.trace is None else bundle.trace,
            directives,
            baseline_exec_time_us=bundle.baseline.exec_time_us,
            displacement=spec["displacement"],
            grouping_thresholds_us=[bundle.gt_us] * spec["nranks"],
            config=bundle.replay_cfg,
            wrps=bundle.params,
            runtime_stats=stats,
            fabric=bundle.fabric,
            programs=bundle.programs,
        )
        # drop the replay's busy logs before the bundle lingers in the
        # LRU — compiled routes/hop tables survive the reset, the
        # O(messages x hops) busy arrays do not (mirrors run_cell)
        bundle.fabric.reset()
        payload = cell_payload(spec, bundle.best_gt, bundle.baseline, managed)
        self.results.put(full_key, payload)
        return payload, ran


def compute_cell_payload(spec: dict) -> dict:
    """One cold cell query with throwaway caches (module-level so the
    daemon's sweep fan-out can run it in pool worker processes)."""

    import multiprocessing
    import os

    if multiprocessing.parent_process() is not None:
        # no nested pools inside a service worker
        os.environ["REPRO_WORKERS"] = "1"
    payload, _ = WarmPipeline(cell_capacity=1, result_capacity=1).query(spec)
    return payload
