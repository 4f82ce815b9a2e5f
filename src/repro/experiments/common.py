"""Shared experiment pipeline: trace -> baseline -> GT -> managed runs.

Every table and figure driver goes through :func:`run_cell`, which
executes the paper's full methodology for one (application, process
count) cell:

1. generate the synthetic trace;
2. baseline replay (always-on links) -> original execution time and the
   per-rank timed MPI event streams;
3. GT selection on the event streams (Section IV-C);
4. the PMPI runtime pass -> per-rank directives (PPA overheads +
   shutdown instructions);
5. one managed replay per displacement factor.

The sequence is written once, as two staged steps that report the
:data:`STAGES` they run through an ``on_stage`` callback:
:func:`build_cell` (steps 1-3: trace, compiled programs, fabric,
baseline replay, GT selection) and :func:`replay_displacements` (steps
4-5, the planning pass run lazily once per cell).  ``run_cell`` is a
memo around the two; the simulation service
(:class:`repro.service.caches.WarmPipeline`) runs the same two behind
its own LRU caches, the policy comparison
(:func:`repro.baselines.compare_policies`) runs them on one cell and
replays its comparator plans through :func:`replay_directives`, and
``repro.cli replay`` runs them on a loaded trace in place of step 1: a
cell on a loaded trace is keyed by the trace's content digest
(:func:`trace_cell_key`) and keeps the trace, which it cannot regenerate.

Results are memoised per cell so that Figs. 7, 8 and 9 (three
displacement factors over the same grid) share baselines and GT
selection.  ``REPRO_ITERATIONS`` scales the trace length globally (the
default keeps the full grid affordable on a laptop).

## Performance

The pipeline shares and caches aggressively; these are the layers, from
outermost in:

* **cell memo** — ``run_cell`` keyed on :class:`CellKey` (app, nranks,
  iterations, seed, scaling, WRPS, overhead charging, topology, kernel,
  faults, policy): ``build_cell`` runs once per cell no matter how many
  tables or figures touch it (``clear_cache`` resets; the memo is
  unbounded, so a grid's what-ifs never rebuild a cell).
* **single-pass GT sweep** — ``select_gt_detailed`` runs on
  :mod:`repro.core.fastscan`: per-rank gap/call arrays are precomputed
  once and GT candidates that cut identical gram boundaries share one
  gram-granular runtime pass.  The full sweep is stored on the cell
  (``CellResult.gt_sweep``) so Fig. 10 reuses it for free.
* **shared planning pass** — the PMPI software side (gram formation +
  PPA + monitor) is displacement-independent; ``replay_displacements``
  executes it once per cell (``plan_trace_directives_shared``), only
  when a displacement is first asked for, and re-emits the
  shutdown timers per displacement factor via
  ``TracePlan.rebind_displacement``, so Figs. 7-9 pay one planning pass
  instead of three.  Only the managed replay itself runs per
  displacement.
* **fabric pool** — topology construction and static route/hop-table
  compilation are displacement-independent, and a fabric is a pure
  function of its host count and build signature: every replay — a
  cell's baseline, each managed run, a cluster cell's two replays —
  checks its fabric out of one bounded pool (:func:`checked_out`, at
  most :data:`FABRIC_POOL_SIZE` fabrics in LRU order), which resets it
  on the way back, so compiled routes are paid for once per signature,
  not once per cell or replay (``clear_cache`` empties the pool).  The
  replay itself runs on the fast kernel (memoised collective schedules,
  precompiled routes, batched link accounting; see :mod:`repro.sim`).
  Each compiled program set carries its communicating pair set
  (``CompiledTrace.comm_pair_set``), walked once at compile time.
* **warm what-if = one managed replay** — a new displacement on a
  memoised cell costs one copy-on-write rebind (fresh directives only
  where a shutdown timer lands; every other entry is shared with the
  plan), one weave of the directives into the cell's compiled programs,
  and one managed replay.  The fast kernel replays straight from the
  compiled programs; the reference kernel, which interprets records,
  replays the trace its cell keeps (``CellResult.trace``).  Only a cell
  that came back from a ``run_cells`` worker or a journal without its
  artefacts regenerates them, once.  An exact repeat is a memo hit and
  runs no stage at all.

Environment knobs:

* ``REPRO_ITERATIONS`` — trace length per cell (default 40);
* ``REPRO_MAX_SIZES``  — truncate each application's size axis to the
  first N process counts (benchmark drivers);
* ``REPRO_WORKERS``    — worker processes for the per-rank planning
  passes, sweep scans, independent grid cells (``run_cells``) and a
  cell's per-displacement managed replays (the displacement fan-out;
  default 1; the ``--workers`` CLI flag sets it).  Results are
  bit-for-bit independent of the worker count.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from ..constants import (
    DISPLACEMENT_FACTORS,
    LINK_BANDWIDTH_BYTES_PER_US,
    MPI_LATENCY_US,
    SEGMENT_SIZE_BYTES,
    T_REACT_US,
)
from ..core import (
    GTEvaluation,
    RuntimeConfig,
    RuntimeStats,
    TracePlan,
    plan_trace_directives_shared,
    select_gt_detailed,
)
from ..concurrency import (
    resolve_cell_retries,
    resolve_cell_timeout,
    resolve_workers,
    run_resilient,
)
from ..network.fabric import Fabric
from ..network.faults import NO_FAULTS
from ..network.topologies import DEFAULT_TOPOLOGY
from ..power.policies import DEFAULT_POLICY
from ..power.states import WRPSParams
from ..sim import (
    BaselineResult,
    CompiledTrace,
    ManagedResult,
    ReplayConfig,
    compile_trace,
    fabric_for,
    replay_baseline,
    replay_managed,
)
from ..trace import Trace, dumps_trace
from ..workloads import PROCESS_COUNTS, make_trace


def default_iterations() -> int:
    """Trace length used by the experiment drivers (env-overridable)."""

    return int(os.environ.get("REPRO_ITERATIONS", "40"))


#: the pipeline's stages in the order a cold cell runs them; the steps
#: report each one through their ``on_stage`` callback (the service
#: counts them: a cold query runs all, a warm what-if only
#: ``managed_replay``, a result hit none)
STAGES = (
    "trace_generation",
    "program_compile",
    "fabric_build",
    "baseline_replay",
    "gt_select",
    "planning_pass",
    "managed_replay",
)


def _no_stage(stage: str) -> None:
    """The default ``on_stage`` callback: report nothing."""


class CellKey(NamedTuple):
    """A cell's identity: the memo key, and every input the pipeline
    reads.  The single key definition, shared by ``run_cell``,
    ``run_cells`` and the service's caches, so they can never drift.

    The full (frozen, hashable) WRPSParams is part of the identity: the
    plan's shutdown-timer filtering depends on t_deact_us too, so two
    calls differing in any WRPS field must not share a cell.  The
    topology spec, replay kernel, fault spec and policy spec are part
    of it too — a torus baseline must never serve a fat-tree cell, nor
    a trunk-gated managed replay a HCA-only one.
    """

    app: str
    nranks: int
    iterations: int
    seed: int
    scaling: str
    wrps: WRPSParams
    charge_overheads: bool
    topology: str
    kernel: str
    faults: str
    policy: str

    def replay_config(self) -> ReplayConfig:
        return ReplayConfig(
            seed=self.seed, topology=self.topology, kernel=self.kernel,
            faults=self.faults, policy=self.policy,
        )


def cell_key(spec: dict) -> CellKey:
    """The key ``run_cell(**spec)`` would use (its defaults applied;
    keys other than the cell's inputs, e.g. ``displacements``, are
    ignored)."""

    iters = spec.get("iterations")
    return CellKey(
        spec["app"],
        spec["nranks"],
        default_iterations() if iters is None else iters,
        spec.get("seed", 1234),
        spec.get("scaling", "strong"),
        spec.get("wrps") or WRPSParams.paper(),
        spec.get("charge_overheads", True),
        spec.get("topology", DEFAULT_TOPOLOGY),
        spec.get("kernel", "fast"),
        spec.get("faults", NO_FAULTS),
        spec.get("policy", DEFAULT_POLICY),
    )


#: app prefix of a loaded trace's cell; no generated workload has it
LOADED_TRACE = "trace:"


def trace_cell_key(trace: Trace, **spec) -> CellKey:
    """The key of a cell on a loaded ``trace``, other inputs as for
    :func:`cell_key`: app = content digest, iterations = 0."""

    digest = hashlib.sha256(dumps_trace(trace).encode()).hexdigest()
    return cell_key({**spec, "app": LOADED_TRACE + digest,
                     "nranks": trace.nranks, "iterations": 0})


@dataclass(slots=True)
class CellResult:
    """Everything the tables/figures need for one (app, nranks) cell."""

    app: str
    nranks: int
    iterations: int
    seed: int
    baseline: BaselineResult
    gt: GTEvaluation
    #: the GT the planning pass and every managed replay use: ``gt_us``
    #: raised to the WRPS break-even (a custom WRPS, e.g. deep sleep,
    #: may put it above the hit-rate-optimal GT; the mechanism requires
    #: GT >= 2*T_react)
    planned_gt_us: float
    runtime_stats: list[RuntimeStats]
    managed: dict[float, ManagedResult] = field(default_factory=dict)
    #: the full hit-rate-vs-GT curve the selection ran over (Fig. 10)
    gt_sweep: tuple[GTEvaluation, ...] = ()
    #: displacement-independent planning pass, shared by all managed runs
    plan: TracePlan | None = None
    #: the trace's compiled rank programs, shared by the baseline and
    #: every managed replay of the cell (compilation is replay-invariant)
    programs: CompiledTrace | None = None
    #: the trace itself, kept only on the reference kernel (the fast
    #: one replays ``programs``) and for a loaded, unregenerable trace
    trace: Trace | None = None

    @property
    def gt_us(self) -> float:
        return self.gt.gt_us

    @property
    def hit_rate_pct(self) -> float:
        return self.gt.hit_rate_pct

    def savings_pct(self, displacement: float) -> float:
        return self.managed[displacement].power_savings_pct

    def slowdown_pct(self, displacement: float) -> float:
        return self.managed[displacement].exec_time_increase_pct

    def __getstate__(self):
        # a pickled cell (a worker's reply, a journal record) leaves the
        # heavy artefacts behind: they are deterministic to rebuild, and
        # run_cell rebuilds them when the cell is asked for more
        heavy = ("programs", "trace")
        return None, {
            name: None if name in heavy else getattr(self, name)
            for name in self.__slots__
        }


def _build_artefacts(
    key: CellKey,
    on_stage: Callable[[str], None] = _no_stage,
    trace: Trace | None = None,
) -> tuple[Trace | None, CompiledTrace]:
    """A cell's trace (generated unless a loaded one is given; None
    where the cell need not keep it) and compiled programs, shared by
    the baseline and every managed replay of the cell."""

    if trace is None:
        on_stage("trace_generation")
        trace = make_trace(
            key.app, key.nranks, iterations=key.iterations, seed=key.seed,
            scaling=key.scaling,
        )
    on_stage("program_compile")
    programs = compile_trace(trace)
    if key.kernel != "reference" and not key.app.startswith(LOADED_TRACE):
        trace = None  # the fast kernel replays the programs alone
    return trace, programs


def build_cell(
    key: CellKey,
    on_stage: Callable[[str], None] = _no_stage,
    trace: Trace | None = None,
) -> CellResult:
    """The artefact + baseline step: trace, programs and fabric, the
    baseline replay and GT selection, as a cell with no managed run; a
    loaded ``trace`` (keyed by :func:`trace_cell_key`) skips generation."""

    trace, programs = _build_artefacts(key, on_stage, trace)
    config = key.replay_config()
    on_stage("fabric_build")
    with checked_out(key.nranks, config, programs.comm_pair_set) as fabric:
        on_stage("baseline_replay")
        baseline = replay_baseline(
            programs if trace is None else trace, config,
            fabric=fabric, programs=programs,
        )
    on_stage("gt_select")
    selection = select_gt_detailed(baseline.event_logs)
    return CellResult(
        app=key.app,
        nranks=key.nranks,
        iterations=key.iterations,
        seed=key.seed,
        baseline=baseline,
        gt=selection.best,
        planned_gt_us=max(
            selection.best.gt_us, key.wrps.min_worthwhile_idle_us
        ),
        runtime_stats=[],
        gt_sweep=selection.sweep,
        programs=programs,
        trace=trace,
    )


def replay_displacements(
    cell: CellResult,
    key: CellKey,
    displacements: Sequence[float],
    on_stage: Callable[[str], None] = _no_stage,
) -> dict[float, ManagedResult]:
    """The managed step: one managed replay per displacement factor.

    The planning pass (gram formation + PPA + monitor) does not depend
    on the displacement: it runs once per cell, the first time a
    displacement is asked for, and each displacement is one
    copy-on-write rebind of it.  The replays run on the cell's programs
    and a pooled fabric (:func:`checked_out`).  The results are
    returned, not stored on the cell: ``run_cell`` memoises them, the
    service caches only their payloads.

    With several displacements and ``REPRO_WORKERS`` > 1 the replays
    fan out over processes (each worker rebuilds the artefacts, which
    are deterministic, from the key or the trace the cell keeps);
    results are bit-for-bit the serial ones.
    """

    replays: list[ManagedResult] = []
    if displacements:
        if cell.plan is None:
            on_stage("planning_pass")
            cell.plan = plan_trace_directives_shared(
                cell.baseline.event_logs,
                RuntimeConfig(
                    gt_us=cell.planned_gt_us,
                    wrps=key.wrps,
                    charge_overheads=key.charge_overheads,
                ),
            )
        jobs = []
        for disp in displacements:
            on_stage("managed_replay")
            jobs.append(
                _managed_job(
                    cell, key, disp, *cell.plan.rebind_displacement(disp)
                )
            )
        nworkers = resolve_workers(None)
        if nworkers > 1 and len(jobs) > 1:
            replays = run_resilient(
                _managed_replay_worker, jobs, workers=nworkers
            )
        else:
            replays = [
                _replay_job(job, cell.trace, cell.programs) for job in jobs
            ]
    return dict(zip(displacements, replays))


def replay_directives(
    cell: CellResult,
    key: CellKey,
    displacement: float,
    directives: Sequence[dict],
) -> ManagedResult:
    """A managed replay of directives planned outside the cell (a
    comparator policy's plan, see :mod:`repro.baselines`) on the cell's
    own programs, through the body of every managed replay."""

    return _replay_job(
        _managed_job(cell, key, displacement, directives, None),
        cell.trace, cell.programs,
    )


def _managed_job(
    cell: CellResult,
    key: CellKey,
    displacement: float,
    directives: Sequence[dict],
    stats: Sequence[RuntimeStats] | None,
) -> dict:
    """One managed replay's inputs: picklable, so a worker can run it."""

    return {
        "key": key,
        "displacement": displacement,
        "directives": directives,
        "stats": stats,
        "baseline_exec_time_us": cell.baseline.exec_time_us,
        "gt_us": cell.planned_gt_us,
        "trace": cell.trace,
    }


def _replay_job(
    job: dict, trace: Trace | None, programs: CompiledTrace
) -> ManagedResult:
    """One displacement's managed replay on a cell's artefacts and a
    pooled fabric."""

    key = job["key"]
    config = key.replay_config()
    with checked_out(key.nranks, config, programs.comm_pair_set) as fabric:
        return replay_managed(
            programs if trace is None else trace,
            job["directives"],
            baseline_exec_time_us=job["baseline_exec_time_us"],
            displacement=job["displacement"],
            grouping_thresholds_us=[job["gt_us"]] * key.nranks,
            config=config,
            wrps=key.wrps,
            runtime_stats=job["stats"],
            fabric=fabric,
            programs=programs,
        )


def _managed_replay_worker(job: dict) -> ManagedResult:
    """One displacement's managed replay in a worker process.

    Module-level for pickling.  The worker rebuilds the cell's
    artefacts (deterministic in the key and the kept trace, if any) and
    uses its own fabric pool, so the fanned-out result is bit-for-bit
    the serial one.  Nested parallelism is disabled the same way
    ``_run_cell_worker`` does.
    """

    if multiprocessing.parent_process() is not None:
        # no nested pools inside a worker; guarded so the in-process
        # fallback path of run_resilient cannot pollute the parent's env
        os.environ["REPRO_WORKERS"] = "1"
    return _replay_job(job, *_build_artefacts(job["key"], trace=job["trace"]))


_CACHE: dict[CellKey, CellResult] = {}

#: the most fabrics the pool keeps: the daemon's default ``cache_cells``,
#: so a resident daemon's fabrics stay bounded
FABRIC_POOL_SIZE = 8

#: the pooled fabrics, least recently returned first, keyed by host
#: count + build signature (see :func:`checked_out`)
_FABRICS: dict[tuple, Fabric] = {}


@contextmanager
def checked_out(num_hosts: int, config: ReplayConfig,
                pairs: Iterable = ()) -> Iterator[Fabric]:
    """The pool's fabric for ``num_hosts`` hosts, built as ``config``
    says, with routes for ``pairs`` compiled before traffic.

    A fabric is a pure function of its host count and build signature
    (routes are seeded order-independently), so one serves every replay
    on that signature: :func:`fabric_for` builds it on a miss only.  It
    is reset on the way back, also when the body raises, so no busy
    logs or fault plan wait in the pool, which then drops its least
    recently used fabric beyond :data:`FABRIC_POOL_SIZE`.
    """

    key = (num_hosts,) + config.build_signature
    fabric = _FABRICS.pop(key, None)
    if fabric is None:
        fabric = fabric_for(num_hosts, config)
    try:
        fabric.precompile_pairs(pairs)
        yield fabric
    finally:
        fabric.reset()
        _FABRICS[key] = fabric
        while len(_FABRICS) > FABRIC_POOL_SIZE:
            del _FABRICS[next(iter(_FABRICS))]


def clear_cache() -> None:
    _CACHE.clear()
    _FABRICS.clear()
    # the memoised collective schedules grow with every distinct
    # (kind, rank, nranks, size) shape the cells replayed; free them
    # together with the cells so long sweep sessions stay bounded
    from ..sim.collectives import clear_schedule_cache

    clear_schedule_cache()


def run_cell(
    app: str,
    nranks: int,
    *,
    displacements: Sequence[float] = DISPLACEMENT_FACTORS,
    iterations: int | None = None,
    seed: int = 1234,
    scaling: str = "strong",
    wrps: WRPSParams | None = None,
    charge_overheads: bool = True,
    use_cache: bool = True,
    topology: str = DEFAULT_TOPOLOGY,
    kernel: str = "fast",
    faults: str = NO_FAULTS,
    policy: str = DEFAULT_POLICY,
) -> CellResult:
    """Run the full pipeline for one cell (memoised).

    ``topology`` selects the fabric family (a spec string — see
    :mod:`repro.network.topologies`); ``kernel`` selects the replay
    implementation (every kernel is bit-for-bit identical, the knob
    exists so sweeps can cross-check families against the reference);
    ``faults`` arms fault injection (a spec string — see
    :mod:`repro.network.faults`); ``policy`` selects the power-policy
    scenario (a spec string — see :mod:`repro.power.policies`; the
    default is the paper's HCA-only gating).  All four are part of the
    cell's memo identity.
    """

    key = CellKey(
        app, nranks,
        iterations if iterations is not None else default_iterations(),
        seed, scaling, wrps or WRPSParams.paper(), charge_overheads,
        topology, kernel, faults, policy,
    )
    cell = _CACHE.get(key) if use_cache else None
    if cell is not None and all(d in cell.managed for d in displacements):
        return cell  # memo hit: zero stages
    if cell is None:
        cell = build_cell(key)
        if use_cache:
            _CACHE[key] = cell
    elif cell.programs is None:
        # a pickled cell (a worker's reply, a journal record) comes
        # without its heavy artefacts: rebuild them once here
        cell.trace, cell.programs = _build_artefacts(key)
    missing = [d for d in displacements if d not in cell.managed]
    cell.managed.update(replay_displacements(cell, key, missing))
    if missing and not cell.runtime_stats:
        cell.runtime_stats = cell.managed[missing[0]].runtime_stats
    return cell


def _run_cell_worker(spec: dict) -> CellResult:
    """Run one cell (module-level for pickling).

    In a worker process the cell is computed from scratch (its process
    has an empty cache) with nested parallelism disabled; the reply
    leaves the trace and compiled programs behind
    (``CellResult.__getstate__``), and ``run_cell`` re-creates them on
    demand when the parent later asks the cell for more displacements.
    In-process the cell keeps them.
    """

    if multiprocessing.parent_process() is not None:
        # no nested pools inside a cell worker; guarded so the
        # in-process fallback path cannot pollute the parent's env
        os.environ["REPRO_WORKERS"] = "1"
    return run_cell(**spec)


def _cell_label(spec: dict) -> str:
    """Human-readable cell identity for resilience error messages."""

    parts = [f"{spec.get('app')}@{spec.get('nranks')}"]
    topo = spec.get("topology", DEFAULT_TOPOLOGY)
    if topo != DEFAULT_TOPOLOGY:
        parts.append(topo)
    faults = spec.get("faults", NO_FAULTS)
    if faults != NO_FAULTS:
        parts.append(faults)
    policy = spec.get("policy", DEFAULT_POLICY)
    if policy != DEFAULT_POLICY:
        parts.append(policy)
    if spec.get("kernel", "fast") != "fast":
        parts.append(spec["kernel"])
    return " ".join(parts)


def run_cells(
    specs: Sequence[dict],
    *,
    workers: int | None = None,
    timeout_s: float | None = None,
    retries: int | None = None,
    checkpoint: str | None = None,
    fallback: bool = True,
    _worker=_run_cell_worker,
) -> list[CellResult]:
    """Run many independent (app, nranks) cells, possibly in parallel.

    ``specs`` is a sequence of :func:`run_cell` keyword dicts.  A spec
    whose cell is memoised is finished here by ``run_cell`` (the cell
    keeps its programs); every other spec goes through one
    :func:`repro.concurrency.run_resilient` call, and the results are
    merged into the memo.  With ``workers > 1`` (explicit, or via
    ``REPRO_WORKERS`` — the same knob that fans out the per-rank
    planning passes) those cells run in worker processes, and with one
    worker, or one such cell, in this process.  Results come back in
    spec order, so a parallel figure grid is bit-for-bit identical to
    the serial one (each cell's pipeline is sequential and
    deterministic; the fan-out only changes *where* a cell runs).

    The fan-out is crash/hang-proof: a worker that dies without raising
    (OOM kill, ``BrokenProcessPool``) or stalls past ``timeout_s``
    wall-clock seconds (``REPRO_CELL_TIMEOUT_S``; default: no timeout)
    is retried up to ``retries`` times (``REPRO_CELL_RETRIES``; default
    2) in a fresh pool, then falls back to an in-process run — or, with
    ``fallback=False``, raises a structured
    :class:`~repro.concurrency.CellExecutionError` naming the cell.  A
    cell that raises a *deterministic* exception propagates it to the
    caller unchanged, immediately.  ``checkpoint`` names a journal file
    (:class:`~repro.concurrency.ResultJournal`) keyed on each whole
    spec: completed cells are appended as they land and served without
    recomputation on a rerun of the same spec, so an interrupted grid
    resumes where it died.

    ``_worker`` is a test seam (must be a module-level callable taking
    one spec dict).
    """

    results: list = []
    todo: list[int] = []
    pending: list[dict] = []
    for spec in specs:
        key = cell_key(spec)
        if spec.get("use_cache", True) and key in _CACHE:
            results.append(run_cell(**spec))
        else:
            todo.append(len(results))
            results.append(None)
            # the resolved trace length too: a journal record is keyed
            # on every input of its spec
            pending.append(dict(spec, iterations=key.iterations))
    computed = run_resilient(
        _worker,
        pending,
        workers=resolve_workers(workers),
        timeout_s=resolve_cell_timeout(timeout_s),
        retries=resolve_cell_retries(retries),
        label=_cell_label,
        fallback=fallback,
        checkpoint=checkpoint,
    )
    for i, spec, cell in zip(todo, pending, computed):
        if spec.get("use_cache", True):
            _CACHE.setdefault(cell_key(spec), cell)
        results[i] = cell
    return results


def paper_grid(app: str) -> tuple[int, ...]:
    """The paper's process counts for ``app`` (BT uses squares)."""

    return PROCESS_COUNTS[app]


def table2_parameters() -> dict[str, str]:
    """The simulator configuration of the paper's Table II, as realised
    by this reproduction (constants actually used by the code)."""

    return {
        "Simulator": "repro.sim (Dimemas/Venus-style co-simulation)",
        "Connectivity": "XGFT(2;18,14;1,18) (right-sized per run)",
        "Topologies": "Extended Generalized Fat Trees",
        "Switch technology": "InfiniBand (4X QDR, WRPS lane shutdown)",
        "Network Bandwidth": f"{LINK_BANDWIDTH_BYTES_PER_US * 8 / 1000:.0f} Gbit/s",
        "Segment Size": f"{SEGMENT_SIZE_BYTES // 1024} KB",
        "MPI latency": f"{MPI_LATENCY_US:.0f} us",
        "CPU Speedup": "1",
        "Routing scheme": "Random routing",
        "T_react": f"{T_REACT_US:.0f} us",
    }
