"""Span recorder and call wrappers for the traced benchmark run.

The benchmark measures each layer from outside: it replaces public
functions and methods of the simulator with thin wrappers that time the
call and count its work, without touching the simulator's source.  The
untraced end-to-end runs never call :func:`install`.

Spans
    Every wrapped call that is not a per-message leaf records a span:
    name, start, end, parent span, op id and self time (its duration
    minus the time its child spans cover).  Spans stay in memory in
    compact arrays and :meth:`SpanRecorder.dump` writes them out at the
    end.

Folded leaves
    ``Fabric.transfer_hot`` and the power-controller methods run once per
    message or hop, hundreds of thousands of times a run.  Storing each
    of those calls would cost more memory than the rest of the run, so
    their spans are folded as they close: the call count and the summed
    self time go to a per-name total, and the duration is still charged
    to the enclosing span as child time, so every self time stays exact.

``perf_counter`` reads CLOCK_MONOTONIC on Linux, so spans recorded in the
daemon process line up with the client's own timestamps.
"""

from __future__ import annotations

import functools
import json
import os
from array import array
from collections import Counter
from time import perf_counter

from harness import OUT

#: span name -> the per-layer self-time metric it feeds
SELF_METRICS = {
    "run_cell": "experiments.run_cell.self_s",
    "run_cells": "experiments.run_cell.self_s",
    "make_trace": "workloads.make_trace.self_s",
    "compile_trace": "program.compile.self_s",
    "fabric_for": "network.fabric_build.self_s",
    "precompile_pairs": "network.fabric_build.self_s",
    "with_directives": "program.weave.self_s",
    "rebind_displacement": "core.rebind.self_s",
    "select_gt_detailed": "core.gt_select.self_s",
    "plan_trace_directives_shared": "core.plan.self_s",
    "replay_baseline": "sim.replay.self_s",
    "replay_managed": "sim.replay.self_s",
    "replay_cluster_baseline": "sim.replay.self_s",
    "replay_cluster_managed": "sim.replay.self_s",
    "run_cluster_cell": "cluster.replay.self_s",
    "query": "service.query.self_s",
    "transfer_hot": "network.transfer.self_s",
    "request_full": "power.controller.self_s",
    "shutdown": "power.controller.self_s",
    "finish": "power.controller.self_s",
}

#: per-layer metrics the service workload reads from the daemon
SERVICE_METRICS = (
    "service.overhead_ms",
    "service.cells.hits",
    "service.cells.misses",
    "service.results.hits",
    "service.stage_runs.managed_replay",
)


class SpanRecorder:
    """In-memory spans plus exact work counters, filled by the wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.self_s = array("d")
        #: open spans, innermost last: [span index, child seconds]
        self.stack: list[list] = []
        #: op id stamped on new spans (the benchmark advances it)
        self.op_id = 0
        #: folded leaves: name -> [calls, self seconds]
        self.folded: dict[str, list] = {}
        self.counts: Counter = Counter()

    def reset(self) -> None:
        """Forget every closed span and count (no span may be open)."""

        if self.stack:
            raise RuntimeError("cannot reset a recorder with open spans")
        for column in (self.name_of, self.start, self.end, self.parent,
                       self.op, self.self_s):
            del column[:]
        for acc in self.folded.values():
            acc[0], acc[1] = 0, 0.0
        self.counts.clear()

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, on_return=None):
        """Wrap ``fn`` so each call records one span named ``name``."""

        nid = self._name_id(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.self_s.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.end[index] = t1
                self.self_s[index] = (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if on_return is not None:
                on_return(self.counts, result, args, kwargs)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a per-message call: count it and fold its span."""

        acc = self.folded.setdefault(name, [0, 0.0])
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [-1, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                acc[0] += 1
                acc[1] += d - frame[1]
                if stack:
                    stack[-1][1] += d

        return wrapper

    # -- results -------------------------------------------------------

    def self_seconds(self) -> Counter:
        """Total self time per span name (folded leaves included)."""

        out: Counter = Counter()
        names = self.names
        for nid, s in zip(self.name_of, self.self_s):
            out[names[nid]] += s
        for name, (_calls, s) in self.folded.items():
            out[name] += s
        return out

    def spans(self, name: str) -> list[tuple[float, float, int]]:
        """``(start, end, op)`` of every span called ``name``."""

        nid = self.name_ids.get(name)
        return [
            (self.start[i], self.end[i], self.op[i])
            for i in range(len(self.start)) if self.name_of[i] == nid
        ]

    def summary(self) -> dict:
        """What another process needs to merge this recorder's results."""

        return {
            "self_s": dict(self.self_seconds()),
            "folded_calls": {k: v[0] for k, v in self.folded.items()},
            "counts": dict(self.counts),
            "query_spans": self.spans("query"),
        }

    def dump(self, path: str) -> None:
        """Write every span (JSON lines) and the folded totals."""

        with open(path, "w") as out:
            names = self.names
            for i in range(len(self.start)):
                out.write(json.dumps([
                    names[self.name_of[i]], self.start[i], self.end[i],
                    self.parent[i], self.op[i], self.self_s[i],
                ]) + "\n")
            out.write(json.dumps({"summary": self.summary()}) + "\n")


# -- what each wrapped call counts on return ----------------------------

def _count_trace(counts, trace, args, kwargs):
    counts["workloads.records"] += trace.total_records


def _count_compile(counts, programs, args, kwargs):
    counts["program.instructions"] += programs.total_instructions


def _count_pairs(counts, compiled, args, kwargs):
    counts["network.route_pairs"] += compiled


def _count_gt(counts, selection, args, kwargs):
    counts["core.gt_candidates"] += len(selection.sweep)


def _count_rebind(counts, bound, args, kwargs):
    directives, _stats = bound
    counts["core.shutdown_directives"] += sum(
        1 for rank in directives for d in rank.values()
        if d.shutdown_timer_us is not None
    )


def _count_faults(counts, summary):
    if summary is not None:
        counts["network.faults.events_applied"] += summary.events_applied
        counts["network.faults.reroutes"] += summary.reroutes
        counts["network.faults.inflight_retries"] += summary.inflight_retries


def _count_single_replay(counts, result, args, kwargs):
    counts["sim.records_replayed"] += args[0].total_records
    counts["sim.replays"] += 1
    counts["sim.mpi_calls"] += sum(len(log) for log in result.event_logs)
    counts["sim.helper_spawns"] += result.helper_spawns
    if kwargs.get("fabric") is not None:
        counts["sim.messages"] += kwargs["fabric"].messages_sent
    _count_faults(counts, result.faults)
    if hasattr(result, "counters"):
        counts["power.shutdowns"] += result.total_shutdowns
        counts["power.mispredictions"] += result.total_mispredictions


def _count_cluster_replay(counts, result, args, kwargs):
    cluster_jobs = args[0]
    counts["sim.records_replayed"] += sum(
        cj.trace.total_records for cj in cluster_jobs
    )
    counts["sim.replays"] += 1
    counts["sim.helper_spawns"] += result.helper_spawns
    if kwargs.get("fabric") is not None:
        counts["sim.messages"] += kwargs["fabric"].messages_sent
    _count_faults(counts, result.faults)
    if hasattr(result, "tenants"):  # the managed replay
        for job in result.jobs:
            counts["sim.mpi_calls"] += sum(len(log) for log in job.event_logs)
            counts["power.shutdowns"] += job.total_shutdowns
            counts["power.mispredictions"] += job.total_mispredictions
    else:
        counts["sim.mpi_calls"] += sum(
            len(log) for span in result.jobs for log in span.event_logs
        )


def _count_cluster_cell(counts, cell, args, kwargs):
    counts["cluster.jobs"] += len(cell.jobs)


#: module-level names wrapped where the pipelines look them up
_MODULE_SPANS = {
    "make_trace": _count_trace,
    "compile_trace": _count_compile,
    "fabric_for": None,
    "select_gt_detailed": _count_gt,
    "plan_trace_directives_shared": None,
    "replay_baseline": _count_single_replay,
    "replay_managed": _count_single_replay,
    "replay_cluster_baseline": _count_cluster_replay,
    "replay_cluster_managed": _count_cluster_replay,
    "run_cell": None,
    "run_cells": None,
    "run_cluster_cell": _count_cluster_cell,
}


def install(recorder: SpanRecorder) -> None:
    """Wrap the pipeline's public calls so they feed ``recorder``.

    Module attributes are replaced where the pipelines bind them
    (``repro.experiments.common``, ``repro.experiments.cluster_sweep``,
    ``repro.service.caches``); methods are replaced on their classes.
    """

    from repro.core.runtime import TracePlan
    from repro.experiments import cluster_sweep, common
    from repro.network.fabric import Fabric
    from repro.power.controller import ManagedLink
    from repro.power.policies import GatedSwitch, IdleGatedLink, LeveledLink
    from repro.service import caches
    from repro.sim.program import CompiledTrace

    for module in (common, cluster_sweep, caches):
        for name, on_return in _MODULE_SPANS.items():
            if name in vars(module):
                setattr(module, name, recorder.span(
                    name, getattr(module, name), on_return
                ))

    for cls, name, on_return in (
        (Fabric, "precompile_pairs", _count_pairs),
        (CompiledTrace, "with_directives", None),
        (TracePlan, "rebind_displacement", _count_rebind),
        (caches.WarmPipeline, "query", None),
    ):
        setattr(cls, name, recorder.span(name, vars(cls)[name], on_return))

    Fabric.transfer_hot = recorder.leaf(
        "transfer_hot", vars(Fabric)["transfer_hot"]
    )
    for cls in (ManagedLink, LeveledLink, IdleGatedLink, GatedSwitch):
        for name in ("request_full", "shutdown", "finish"):
            setattr(cls, name, recorder.leaf(name, vars(cls)[name]))


#: exact counts reported as they were counted
COUNT_METRICS = (
    "workloads.records",
    "program.instructions",
    "network.route_pairs",
    "core.gt_candidates",
    "core.shutdown_directives",
    "network.faults.events_applied",
    "network.faults.reroutes",
    "network.faults.inflight_retries",
    "sim.mpi_calls",
    "sim.messages",
    "sim.helper_spawns",
    "power.shutdowns",
    "power.mispredictions",
    "cluster.jobs",
)


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metrics from a :meth:`SpanRecorder.summary`.

    The ``service.*`` metrics are zero here; the service workload fills
    them from the daemon.
    """

    self_s: Counter = Counter()
    for name, seconds in summary["self_s"].items():
        self_s[SELF_METRICS[name]] += seconds
    counts = summary["counts"]
    calls = summary["folded_calls"]
    transfers = calls.get("transfer_hot", 0)
    records = counts.get("sim.records_replayed", 0)
    out: dict[str, float] = {
        metric: self_s[metric] for metric in set(SELF_METRICS.values())
    }
    out.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    out.update(dict.fromkeys(SERVICE_METRICS, 0))
    out["network.transfers"] = transfers
    out["network.transfer.us_per_call"] = (
        1e6 * self_s["network.transfer.self_s"] / transfers
        if transfers else 0.0
    )
    out["sim.replay.us_per_record"] = (
        1e6 * self_s["sim.replay.self_s"] / records if records else 0.0
    )
    out["power.request_full_calls"] = calls.get("request_full", 0)
    return out


def finish(recorder: SpanRecorder, workload: str) -> dict[str, float]:
    """Write the recorder's spans out and return its per-layer metrics."""

    os.makedirs(OUT, exist_ok=True)
    recorder.dump(os.path.join(OUT, f"spans-{workload}-{os.getpid()}.jsonl"))
    return layer_metrics(recorder.summary())

