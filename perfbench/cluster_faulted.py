"""cluster-faulted: multi-tenant job streams on faulted shared fabrics.

Each cell is one ``run_cluster_cell``: a seeded multi-tenant ``poisson:``
stream on a torus or a dragonfly, placed packed or spread, under one of
two fault mixes.  ``degrade`` + ``wake_timeout`` never partitions the
fabric; ``flap`` takes links down and up again, and its fault seed is
re-drawn in set-up until the cell replays without a partition.  Set-up
runs the flap cells once, which also warms the isolated per-job
pipelines (the ``run_cell`` memo), so the timed phase consists of cluster
baseline and managed replays on the faulted transfer kernel.

After each cell, three of its job shapes answer a what-if (``run_cell``
at a fresh displacement on the warm isolated pipeline: one managed
replay), followed by its exact repeat (a memo hit).  The 8-rank shapes
answer two what-ifs for each one a 4-rank shape answers, so p50 and p90
each fall inside one shape's latency band rather than on the border
between two.  A repeat's cost is set by the topology (it resets the
cell's fabric), so torus cells repeat each what-if twice and dragonfly
cells once, which keeps the hit p50 inside the torus band.  The what-if result is dropped from the
memo afterwards, outside the timed spans, so every round starts from the
same state and repeats the same work.
"""

from __future__ import annotations

import random
from harness import Phase, Stopwatch

ITERATIONS = 4
TOPOLOGIES = ("torus:k=4,n=2", "dragonfly:a=4,p=2,h=2")
#: exact repeats after each what-if, per topology
REPEATS = {"torus:k=4,n=2": 2, "dragonfly:a=4,p=2,h=2": 1}
PLACEMENTS = ("packed", "spread")
STREAMS = 2
STREAM = (
    "poisson:n=4,mean_gap_us=1500,seed={seed},apps=alya|gromacs|nas_mg,"
    "ranks=8|4,tenants=2"
)
MIXES = (
    "faults:seed={seed},degrade=0.3,wake_timeout=0.2",
    "faults:seed={seed},flap=0.1",
)
#: fault-seed draws allowed before a flap cell counts as unplaceable
MAX_DRAWS = 50
WHATIFS_PER_CELL = 3
NOMINAL_ROUND_S = 4.2
#: 48 what-ifs a round: three rounds give p90 its ten samples beyond
MIN_ROUNDS = 3


class ClusterFaulted:
    name = "cluster-faulted"

    def __init__(self, seed: int, seconds: int):
        from repro.cluster import parse_jobs
        from repro.constants import DISPLACEMENT_FACTORS

        rng = random.Random(f"cluster-faulted:{seed}")
        self.replay_seed = rng.randrange(1, 2**31)
        self.displacement = rng.choice(DISPLACEMENT_FACTORS)
        streams = [
            STREAM.format(seed=rng.randrange(1, 2**31)) for _ in range(STREAMS)
        ]
        # the streams differ only in arrival times, so every stream has
        # the same job shapes; the what-ifs are dealt to the cells from a
        # fixed deck in a seeded order, so the what-if latency mix does
        # not depend on the seed
        shapes = sorted({(j.app, j.nranks) for j in parse_jobs(streams[0])})
        weighted = [s for s in shapes for _ in range(s[1] // 4)]
        ncells = STREAMS * len(TOPOLOGIES) * len(PLACEMENTS) * len(MIXES)
        copies, rest = divmod(ncells * WHATIFS_PER_CELL, len(weighted))
        assert rest == 0, "the what-if deck must deal evenly"
        deck = weighted * copies
        rng.shuffle(deck)
        self.cells = []
        for stream in streams:
            for topology in TOPOLOGIES:
                for placement in PLACEMENTS:
                    for mix in MIXES:
                        whatifs = [
                            (deck.pop(), round(rng.uniform(0.002, 0.3), 6))
                            for _ in range(WHATIFS_PER_CELL)
                        ]
                        self.cells.append(dict(
                            spec=dict(
                                jobs_spec=stream, placement=placement,
                                displacement=self.displacement,
                                iterations=ITERATIONS,
                                seed=self.replay_seed, topology=topology,
                            ),
                            mix=mix,
                            fault_rng=random.Random(rng.random()),
                            whatifs=whatifs,
                        ))
        self.rounds = max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S))
        self.orders = []
        for _ in range(self.rounds):
            order = list(range(len(self.cells)))
            rng.shuffle(order)
            self.orders.append(order)
        self.check_cell = rng.randrange(len(self.cells))
        self.expected: dict[int, tuple] = {}

    def setup(self) -> None:
        from repro.cluster import parse_jobs
        from repro.experiments import cluster_sweep, common
        from repro.network.faults import FabricPartitioned

        self.common = common
        self.sweep = cluster_sweep
        for cell in self.cells:
            draw = cell.pop("fault_rng")
            for _ in range(MAX_DRAWS):
                faults = cell["mix"].format(seed=draw.randrange(1, 2**31))
                if "flap" not in faults:
                    break
                try:
                    cluster_sweep.run_cluster_cell(**cell["spec"], faults=faults)
                except FabricPartitioned:
                    continue
                break
            else:
                raise RuntimeError(
                    f"no partition-free fault seed for {cell['spec']}"
                )
            cell["spec"]["faults"] = faults
        # job trace sizes, read once from the warm isolated cells so the
        # per-cell checks never call into the pipeline
        self.records = {}
        for cell in self.cells:
            topology = cell["spec"]["topology"]
            for job in parse_jobs(cell["spec"]["jobs_spec"]):
                key = (job.app, job.nranks, topology)
                if key not in self.records:
                    self.records[key] = common.run_cell(
                        job.app, job.nranks,
                        displacements=(self.displacement,),
                        iterations=ITERATIONS, seed=self.replay_seed,
                        topology=topology,
                    ).programs.total_records

    def measure(self, traced: bool = False) -> Phase:
        from repro.network.faults import FabricPartitioned

        from tracing import SpanRecorder, finish, install

        recorder = SpanRecorder()
        if traced:
            install(recorder)
        common, sweep = self.common, self.sweep
        phase = Phase()
        watch = Stopwatch()
        round_counts = None
        for r, order in enumerate(self.orders):
            counts: dict = {}
            for i in order:
                cell = self.cells[i]
                spec = cell["spec"]
                recorder.op_id += 1
                t0 = watch.start()
                try:
                    result = sweep.run_cluster_cell(**spec)
                except FabricPartitioned as exc:
                    result = exc
                watch.stop(t0, "cell")
                asked = []
                for (app, nranks), d in cell["whatifs"]:
                    kw = dict(app=app, nranks=nranks, iterations=ITERATIONS,
                              seed=self.replay_seed,
                              topology=spec["topology"])
                    recorder.op_id += 1
                    t0 = watch.start()
                    after = common.run_cell(**kw, displacements=(d,))
                    watch.stop(t0, "whatif")
                    agains = []
                    for _ in range(REPEATS[spec["topology"]]):
                        recorder.op_id += 1
                        t0 = watch.start(sample=False)
                        agains.append(common.run_cell(**kw, displacements=(d,)))
                        watch.stop(t0, "hit")
                    asked.append((after, agains, d))
                self._check_cell(phase, i, result, asked, counts)
            if round_counts is None:
                round_counts = counts
            elif counts != round_counts:
                phase.fail(f"round {r} counts differ from round 0")
        phase.timed(watch)
        phase.counts = {k: v * self.rounds for k, v in round_counts.items()}
        phase.records = phase.counts["records_replayed"]
        if traced:
            phase.layers = finish(recorder, self.name)
        return phase

    def _check_cell(self, phase, i, result, asked, counts) -> None:
        """Output checks and exact counts for one cell, outside timing."""

        def add(key, n):
            counts[key] = counts.get(key, 0) + n

        spec = self.cells[i]["spec"]
        label = (f"{spec['topology']} {spec['placement']} "
                 f"{spec['faults']} {spec['jobs_spec']}")
        phase.attempted += 1 + sum(1 + len(agains) for _, agains, _ in asked)
        if isinstance(result, Exception):
            phase.fail(f"{label}: {type(result).__name__}: {result}")
            return
        base, managed = result.baseline, result.managed
        try:
            self.sweep.check_energy_sum(managed)
        except AssertionError as exc:
            phase.fail(f"{label}: {exc}")
        if base.helper_spawns or managed.helper_spawns:
            phase.fail(f"{label}: helper processes spawned")
        sig = _cluster_signature(result)
        if self.expected.setdefault(i, sig) != sig:
            phase.fail(f"{label}: outputs differ from round 0")
        records = sum(
            self.records[(job.app, job.nranks, spec["topology"])]
            for job in result.jobs
        )
        for job in managed.jobs:
            add("mpi_calls", sum(len(log) for log in job.event_logs))
            add("shutdowns", job.total_shutdowns)
            add("mispredictions", job.total_mispredictions)
        for span in base.jobs:
            add("mpi_calls", sum(len(log) for log in span.event_logs))
        add("cluster.jobs", len(managed.jobs))
        add("records_replayed", 2 * records)
        add("baseline_messages", base.messages_sent)
        add("helper_spawns", base.helper_spawns + managed.helper_spawns)
        for summary in (base.faults, managed.faults):
            add("faults.events_applied", summary.events_applied)
            add("faults.reroutes", summary.reroutes)
            add("faults.inflight_retries", summary.inflight_retries)
        add("faults.wake_timeouts", managed.faults.wake_timeouts)
        for after, agains, d in asked:
            whatif = after.managed.pop(d, None)
            tag = f"{label} {after.app}@{after.nranks} d={d}"
            if whatif is None or whatif.helper_spawns:
                phase.fail(f"{tag}: what-if did not replay cleanly")
                continue
            add("records_replayed", after.programs.total_records)
            add("mpi_calls", sum(len(log) for log in whatif.event_logs))
            add("shutdowns", whatif.total_shutdowns)
            add("mispredictions", whatif.total_mispredictions)
            key = (i, after.app, after.nranks, d)
            sig = (whatif.exec_time_us, whatif.power_savings_pct)
            if self.expected.setdefault(key, sig) != sig:
                phase.fail(f"{tag}: what-if outputs differ from round 0")
            if any(a is not after for a in agains) or d in after.managed:
                phase.fail(f"{tag}: exact repeat ran a stage")

    def verify(self, phase: Phase) -> None:
        """Re-run the seeded sample cell on (reference, heap), bit for bit."""

        spec = self.cells[self.check_cell]["spec"]
        phase.attempted += 1
        try:
            (row,) = self.sweep.run_cluster_sweep(
                [spec["jobs_spec"]], placements=[spec["placement"]],
                topologies=[spec["topology"]],
                displacement=spec["displacement"],
                iterations=spec["iterations"], seed=spec["seed"],
                faults=spec["faults"], workers=1, verify=True,
            )
        except AssertionError as exc:
            phase.fail(f"reference re-run: {exc}")
            return
        if row.status != "ok" or (
            row.makespan_us != self.expected[self.check_cell][0]
        ):
            phase.fail(f"reference re-run: row {row.cells()} differs")

    def peak_rss_mb(self) -> float:
        from harness import self_peak_rss_mb

        return self_peak_rss_mb()

    def close(self) -> None:
        pass


def _cluster_signature(cell) -> tuple:
    managed = cell.managed
    return (
        managed.exec_time_us,
        cell.baseline.exec_time_us,
        tuple(m.exec_time_us for m in managed.jobs),
        tuple(m.power_savings_pct for m in managed.jobs),
        managed.fabric_link_energy_us,
        managed.faults,
    )
