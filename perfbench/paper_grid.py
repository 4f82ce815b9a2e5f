"""paper-grid: the Figs. 7-9 grid, run cold through ``run_cells``.

One round clears the cell memo and runs the grid: the five paper
applications at the two smallest process counts each from
``PROCESS_COUNTS``, every cell at the three ``DISPLACEMENT_FACTORS``, on
the fitted XGFT with the default HCA gating.  Trace generation, program
compilation, fabric build, baseline replay, GT sweep and planning all run
inside the timed phase.  After the grid, each cell answers what-ifs
(``run_cell`` at a fresh displacement: exactly one managed replay), each
followed by its exact repeat (the same call again: a memo hit, zero
stages).  Cells at the larger process count answer two what-ifs, those
at the smaller one answer one.  With equal counts every percentile that
is a multiple of 10 % would fall on the border between two cells'
latency bands, where the next-slower cell decides it; with these counts
p50 and p90 each fall inside one cell's band.

``--seed`` draws the what-if displacements, the cell order of each round
and the cell re-run on the reference kernel.  Every round replays the
same inputs, so every round must produce the same outputs and the same
exact counts.
"""

from __future__ import annotations

import random

from harness import Phase, Stopwatch

ITERATIONS = 4
#: the pipeline's default seed, as ``repro.cli figure`` runs the grid.
#: Fixed, so every seed replays the same cells and the what-if latency
#: mix does not move with ``--seed``.
TRACE_SEED = 1234
#: about how long one round takes on a 2-core host; sets the round count
NOMINAL_ROUND_S = 1.9
#: fifteen what-ifs a round: seven rounds give p90 its ten samples beyond
MIN_ROUNDS = 7


def _signature(cell, displacements) -> tuple:
    """Simulated outputs that a speed-only change must leave bit-identical."""

    return (cell.baseline.exec_time_us,) + tuple(
        (d, cell.managed[d].exec_time_us, cell.managed[d].power_savings_pct)
        for d in displacements
    )


class PaperGrid:
    name = "paper-grid"

    def __init__(self, seed: int, seconds: int):
        from repro.constants import DISPLACEMENT_FACTORS
        from repro.workloads import APPLICATIONS, PROCESS_COUNTS

        rng = random.Random(f"paper-grid:{seed}")
        self.paper = tuple(DISPLACEMENT_FACTORS)
        self.specs = [
            dict(app=app, nranks=n, iterations=ITERATIONS, seed=TRACE_SEED)
            for app in APPLICATIONS for n in PROCESS_COUNTS[app][:2]
        ]
        self.whatif = []
        for spec in self.specs:
            larger = spec["nranks"] == PROCESS_COUNTS[spec["app"]][1]
            ds: list[float] = []
            while len(ds) < (2 if larger else 1):
                d = round(rng.uniform(0.002, 0.2), 6)
                if d not in self.paper and d not in ds:
                    ds.append(d)
            self.whatif.append(tuple(ds))
        self.rounds = max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S))
        self.orders = []
        for _ in range(self.rounds):
            order = list(range(len(self.specs)))
            rng.shuffle(order)
            self.orders.append(order)
        self.check_cell = rng.randrange(len(self.specs))
        self.expected: dict[int, tuple] = {}

    def setup(self) -> None:
        from repro.experiments import common

        self.common = common

    def measure(self, traced: bool = False) -> Phase:
        from tracing import SpanRecorder, finish, install

        recorder = SpanRecorder()
        if traced:
            install(recorder)
        common = self.common
        phase = Phase()
        watch = Stopwatch()
        round_counts = None
        for r, order in enumerate(self.orders):
            specs = [self.specs[i] for i in order]
            recorder.op_id += 1
            t0 = watch.start()
            common.clear_cache()
            cells = common.run_cells(specs)
            watch.stop(t0, "grid")
            # each cell's what-ifs, each followed by its exact repeat
            asked = []
            for i, cell in zip(order, cells):
                spec = self.specs[i]
                known = len(cell.managed)
                answers = []
                for d in self.whatif[i]:
                    for kind in ("whatif", "hit"):
                        recorder.op_id += 1
                        t0 = watch.start(sample=kind == "whatif")
                        answers.append(
                            common.run_cell(**spec, displacements=(d,))
                        )
                        watch.stop(t0, kind)
                asked.append((i, cell, answers, known))
            counts = self._check_round(phase, asked)
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

    def _check_round(self, phase: Phase, asked: list) -> dict:
        """Per-op output checks for one round, outside the timed spans."""

        counts = dict.fromkeys((
            "records", "records_replayed", "instructions", "mpi_calls",
            "baseline_messages", "gt_candidates", "shutdowns",
            "mispredictions", "helper_spawns",
        ), 0)
        for i, cell, answers, known in asked:
            disps = self.paper + self.whatif[i]
            records = cell.programs.total_records
            replays = [cell.baseline] + [cell.managed[d] for d in disps]
            counts["records"] += records
            counts["records_replayed"] += records * len(replays)
            counts["instructions"] += cell.programs.total_instructions
            counts["baseline_messages"] += cell.baseline.messages_sent
            counts["gt_candidates"] += len(cell.gt_sweep)
            for res in replays:
                counts["mpi_calls"] += sum(len(log) for log in res.event_logs)
                counts["helper_spawns"] += res.helper_spawns
            for d in disps:
                counts["shutdowns"] += cell.managed[d].total_shutdowns
                counts["mispredictions"] += cell.managed[d].total_mispredictions

            phase.attempted += 1 + len(answers)
            sig = _signature(cell, disps)
            expected = self.expected.setdefault(i, sig)
            label = f"{self.specs[i]['app']}@{self.specs[i]['nranks']}"
            if sig != expected:
                phase.fail(f"{label}: outputs differ from round 0")
            if any(res.helper_spawns for res in replays):
                phase.fail(f"{label}: helper processes spawned")
            # a what-if adds one displacement to the memo, a repeat none
            if any(a is not cell for a in answers) or (
                len(cell.managed) != known + len(answers) // 2
            ):
                phase.fail(f"{label}: a what-if or repeat ran the wrong stages")
        return counts

    def verify(self, phase: Phase) -> None:
        """Re-run the seeded sample cell on the reference kernel."""

        i = self.check_cell
        spec = self.specs[i]
        ref = self.common.run_cell(
            **spec, displacements=self.paper, kernel="reference",
            use_cache=False,
        )
        phase.attempted += 1
        fast = self.expected[i][: 1 + len(self.paper)]
        if _signature(ref, self.paper) != fast:
            phase.fail(
                f"{spec['app']}@{spec['nranks']}: reference kernel differs"
            )

    def peak_rss_mb(self) -> float:
        from harness import self_peak_rss_mb

        return self_peak_rss_mb()

    def close(self) -> None:
        pass
