"""service-whatif: a closed loop of what-if queries against the daemon.

The daemon is ``python -m repro.cli serve`` in its own process (two
processes in all with this client).  Set-up starts it and warms five
cells chosen to load the power layer: HCA gating on the fitted XGFT, the
``width`` and ``scale`` HCA ladders, trunk + switch gating on an
oversubscribed fat tree, and a torus cell.  The timed phase is one client
sending a seeded sequence, each query only after the previous reply: in
every round each cell gets three what-ifs (a fresh displacement on the
warm cell, which costs exactly one managed replay) and five exact repeats
of recent what-ifs are mixed in (result-cache hits, zero stages).
``--seed`` draws the displacements, the query order, which what-ifs are
repeated and the what-ifs recomputed in-process afterwards.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
from harness import HERE, OUT, ROOT, SRC, Phase, Stopwatch, proc_peak_rss_mb

ITERATIONS = 6
#: the daemon's default trace seed.  Fixed, so each cell costs the same
#: on every seed and the what-if percentiles do not move with ``--seed``.
TRACE_SEED = 1234
CELLS = (
    dict(app="alya", nranks=16),
    dict(app="gromacs", nranks=16, policy="policy:hca=width"),
    dict(app="nas_bt", nranks=16, policy="policy:hca=scale"),
    dict(app="nas_mg", nranks=16, topology="fattree2:leaf=8,ratio=2",
         policy="policy:hca=gate,trunk=width:levels=3,switch=gate"),
    dict(app="wrf", nranks=16, topology="torus:k=4,n=2"),
)
WHATIFS_PER_CELL = 3
REPEATS = 5
#: repeats target only recent what-ifs, which the result LRU still holds
REPEAT_WINDOW = 100
NOMINAL_ROUND_S = 0.85
#: fifteen what-ifs a round: seven rounds give p90 its ten samples beyond
MIN_ROUNDS = 7
#: what-ifs recomputed in-process after the run
SAMPLES = 3


class ServiceWhatIf:
    name = "service-whatif"

    def __init__(self, seed: int, seconds: int):
        rng = random.Random(f"service-whatif:{seed}")
        self.cells = [
            dict(cell, iterations=ITERATIONS, seed=TRACE_SEED) for cell in CELLS
        ]
        used: list[set] = [set() for _ in self.cells]

        def fresh(c: int) -> float:
            while True:
                d = round(rng.uniform(0.001, 0.3), 6)
                if d not in used[c]:
                    used[c].add(d)
                    return d

        self.warm = [fresh(c) for c in range(len(self.cells))]
        rounds = max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S))
        self.ops: list[tuple[str, int, float]] = []
        issued: list[tuple[str, int, float]] = []
        for _ in range(rounds):
            ops = [
                ("whatif", c, fresh(c))
                for c in range(len(self.cells))
                for _ in range(WHATIFS_PER_CELL)
            ]
            rng.shuffle(ops)
            for _ in range(REPEATS):
                pos = rng.randrange(1, len(ops) + 1)
                recent = (
                    issued + [op for op in ops[:pos] if op[0] == "whatif"]
                )[-REPEAT_WINDOW:]
                _, c, d = rng.choice(recent)
                ops.insert(pos, ("hit", c, d))
            issued += [op for op in ops if op[0] == "whatif"]
            self.ops += ops
        whatifs = [op for op in self.ops if op[0] == "whatif"]
        self.samples = rng.sample(whatifs, SAMPLES)
        self.daemon = None
        self.fingerprints: dict[tuple[int, float], str] = {}

    # -- daemon lifecycle -----------------------------------------------

    def _start(self, traced: bool) -> None:
        from repro.service import ServiceClient

        os.makedirs(OUT, exist_ok=True)
        socket_path = os.path.relpath(
            os.path.join(OUT, f"svc-{os.getpid()}.sock"), ROOT
        )
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced_daemon.py")]
        else:
            cmd = [sys.executable, "-m", "repro.cli"]
        cmd += ["serve", "--socket", socket_path,
                "--cache-cells", str(len(self.cells))]
        env = dict(os.environ, PYTHONPATH=SRC, REPRO_WORKERS="1")
        if traced:
            env["PERFBENCH_SPANS"] = os.path.join(
                OUT, f"spans-{self.name}-{os.getpid()}.jsonl"
            )
        with open(os.path.join(OUT, f"daemon-{os.getpid()}.log"), "w") as log:
            self.daemon = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=log, stderr=log,
            )
        self.client = ServiceClient(
            socket_path, retries=200, backoff_s=0.01, backoff_cap_s=0.05,
            request_timeout_s=120.0,
        )
        self.client.ping()
        for cell, d in zip(self.cells, self.warm):
            reply = self.client.cell(**cell, displacement=d)
            if reply["result"]["helper_spawns"]:
                raise RuntimeError("warm-up query spawned helper processes")

    def _stop(self) -> None:
        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return
        try:
            self.client.shutdown()
            daemon.wait(timeout=60)
        except Exception:
            daemon.kill()
            daemon.wait()
            raise

    def setup(self) -> None:
        self._start(traced=False)

    def close(self) -> None:
        self._stop()

    # -- timed phase ----------------------------------------------------

    def measure(self, traced: bool = False) -> Phase:
        from repro.service.client import ServiceError

        if traced:
            self._stop()
            self._start(traced=True)
            self.client.request({"op": "bench_trace", "action": "reset"})
        client = self.client
        phase = Phase()
        before = client.stats()
        watch = Stopwatch()
        replies = []
        for kind, c, d in self.ops:
            t0 = watch.start(sample=kind == "whatif")
            try:
                reply = client.cell(**self.cells[c], displacement=d)
            except ServiceError as exc:
                reply = exc
            replies.append((t0, t0 + watch.stop(t0, kind), reply))
        phase.timed(watch)
        after = client.stats()
        self.rss_mb = proc_peak_rss_mb(self.daemon.pid)

        records = self._records()
        counts = dict.fromkeys(
            ("whatifs", "repeats", "records_replayed", "shutdowns",
             "mispredictions", "helper_spawns"), 0)
        for (kind, c, d), (t0, t1, reply) in zip(self.ops, replies):
            phase.attempted += 1
            label = f"{kind} {self.cells[c]['app']} d={d}"
            if isinstance(reply, ServiceError):
                phase.fail(f"{label}: {reply.code}: {reply}")
                continue
            result = reply["result"]
            stages = reply.get("stages_ran")
            if kind == "whatif":
                counts["whatifs"] += 1
                counts["records_replayed"] += records[c]
                counts["shutdowns"] += result["total_shutdowns"]
                counts["mispredictions"] += result["total_mispredictions"]
                counts["helper_spawns"] += result["helper_spawns"]
                known = self.fingerprints.setdefault((c, d), result["fingerprint"])
                if stages != ["managed_replay"]:
                    phase.fail(f"{label}: ran stages {stages}")
                elif known != result["fingerprint"]:
                    phase.fail(f"{label}: fingerprint differs from an earlier run")
                elif result["helper_spawns"]:
                    phase.fail(f"{label}: helper processes spawned")
            else:
                counts["repeats"] += 1
                if stages != []:
                    phase.fail(f"{label}: ran stages {stages}")
                elif result["fingerprint"] != self.fingerprints.get((c, d)):
                    phase.fail(f"{label}: fingerprint differs from first reply")
        stats = _stats_delta(before, after)
        counts.update(stats)
        phase.counts = counts
        phase.records = counts["records_replayed"]
        if traced:
            from tracing import layer_metrics

            summary = client.request(
                {"op": "bench_trace", "action": "summary"}
            )["result"]
            phase.layers = layer_metrics(summary)
            phase.layers.update(stats)
            phase.layers["service.overhead_ms"] = _overhead_ms(
                replies, summary["query_spans"]
            )
        return phase

    def _records(self) -> list[int]:
        from repro.workloads import make_trace

        return [
            make_trace(cell["app"], cell["nranks"],
                       iterations=cell["iterations"],
                       seed=cell["seed"]).total_records
            for cell in self.cells
        ]

    def verify(self, phase: Phase) -> None:
        """Recompute a seeded sample of what-ifs in this process."""

        from repro.service.caches import compute_cell_payload

        for _, c, d in self.samples:
            phase.attempted += 1
            payload = compute_cell_payload(dict(self.cells[c], displacement=d))
            if payload["fingerprint"] != self.fingerprints[(c, d)]:
                phase.fail(
                    f"{self.cells[c]['app']} d={d}: in-process fingerprint "
                    "differs from the daemon's"
                )

    def peak_rss_mb(self) -> float:
        return self.rss_mb


def _stats_delta(before: dict, after: dict) -> dict:
    """Exact service counters accumulated over the timed phase."""

    def pick(stats):
        caches = stats["caches"]
        return {
            "service.cells.hits": caches["cells"]["hits"],
            "service.cells.misses": caches["cells"]["misses"],
            "service.results.hits": caches["results"]["hits"],
            "service.stage_runs.managed_replay":
                stats["stage_runs"]["managed_replay"],
        }

    a, b = pick(before), pick(after)
    return {k: b[k] - a[k] for k in a}


def _overhead_ms(replies: list, query_spans: list) -> float:
    """Median of round trip minus the daemon's ``WarmPipeline.query`` span.

    Both processes read CLOCK_MONOTONIC, so each query span lies inside
    the round trip of the request that caused it.
    """

    spans = sorted(query_spans)
    overheads = []
    j = 0
    for t0, t1, _reply in replies:
        while j < len(spans) and spans[j][0] < t0:
            j += 1
        if j < len(spans) and spans[j][1] <= t1:
            overheads.append(1e3 * ((t1 - t0) - (spans[j][1] - spans[j][0])))
            j += 1
    if len(overheads) != len(replies):
        raise RuntimeError(
            f"matched {len(overheads)} daemon query spans to "
            f"{len(replies)} round trips"
        )
    return statistics.median(overheads)

