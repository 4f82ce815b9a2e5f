"""Pieces every workload shares: statistics, host-speed probe, records."""

from __future__ import annotations

import bisect
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: run records, sockets and span dumps (ignored by git)
OUT = os.path.join(HERE, "out")

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile, refusing one with too few samples beyond."""

    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


#: iterations of the calibration loop (about 2-3 ms on a 2-core VM)
CALIBRATION_ITERATIONS = 30_000
#: calibration-loop time that defines the reference host speed
REFERENCE_CALIBRATION_S = 0.0025
#: calibration samples on each side of an operation that set its scale
CALIBRATION_HALF_WINDOW = 2


def calibrate() -> float:
    """Time one fixed pure-Python loop: the host's current speed."""

    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def host_loop_ms(repeats: int = 20) -> float:
    """Median calibration time: host-speed context for a run's record."""

    return 1e3 * statistics.median(calibrate() for _ in range(repeats))


def reference_scale(samples: list[float]) -> float:
    """Factor turning host time at the sampled speed into reference time."""

    return REFERENCE_CALIBRATION_S / statistics.median(samples)


class Stopwatch:
    """Times operations and scales them to the reference host speed.

    The speed of a shared VM drifts by up to 1.5x within minutes, as other
    tenants come and go, and moves every timing with it.  Before each
    operation the host's speed is sampled (``calibrate``, outside the
    timed span), and each operation's host time is scaled by the median
    of the ``2 * CALIBRATION_HALF_WINDOW + 1`` samples nearest to it.

    A cache hit takes tens of microseconds, and the calibration loop
    evicts its working set: a hit timed straight after the loop costs up
    to 3x more on a busy host.  Hits are therefore timed straight after
    the what-if they repeat, without a sample of their own
    (``start(sample=False)``), and scaled by the samples around them.
    """

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self.raw: list[float] = []
        self.samples: list[float] = []
        #: index of the operation each sample was taken before
        self.sampled_at: list[int] = []

    def start(self, sample: bool = True) -> float:
        if sample:
            self.samples.append(calibrate())
            self.sampled_at.append(len(self.raw))
        return time.perf_counter()

    def stop(self, t0: float, kind: str) -> float:
        elapsed = time.perf_counter() - t0
        self.raw.append(elapsed)
        self.kinds.append(kind)
        return elapsed

    def scaled(self) -> list[float]:
        h = CALIBRATION_HALF_WINDOW
        out = []
        for i, raw in enumerate(self.raw):
            last = bisect.bisect_right(self.sampled_at, i) - 1
            window = self.samples[max(0, last - h):last + h + 1]
            out.append(raw * reference_scale(window))
        return out


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB)."""

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another live process, in MiB."""

    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Phase:
    """What one timed phase of a workload measured.

    ``counts`` are exact work counters read from the program's outputs
    (never from wrappers), so they exist on every run, traced or not.
    ``layers`` is filled by traced phases only.
    """

    elapsed_s: float = 0.0
    raw_elapsed_s: float = 0.0
    host_calibration_ms: float = 0.0
    records: int = 0
    whatif_ms: list = field(default_factory=list)
    hit_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    def timed(self, watch: Stopwatch) -> None:
        """Take the timings from ``watch``, scaled to the reference host."""

        scaled = watch.scaled()
        self.elapsed_s = sum(scaled)
        self.raw_elapsed_s = sum(watch.raw)
        self.host_calibration_ms = 1e3 * statistics.median(watch.samples)
        self.whatif_ms = [
            1e3 * t for t, k in zip(scaled, watch.kinds) if k == "whatif"
        ]
        self.hit_ms = [
            1e3 * t for t, k in zip(scaled, watch.kinds) if k == "hit"
        ]

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def check_counts(workload: str, seed: int, seconds: int, counts: dict) -> list:
    """Compare exact counters with an earlier run of the same inputs.

    The first run of a (workload, seed, seconds) stores its counters;
    every later run must reproduce them exactly.
    """

    folder = os.path.join(OUT, "counts")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{workload}-seed{seed}-s{seconds}.json")
    if not os.path.exists(path):
        with open(path, "w") as out:
            json.dump(counts, out, sort_keys=True)
        return []
    with open(path) as f:
        earlier = json.load(f)
    return [
        f"count {k} = {counts.get(k)} differs from an earlier run's {v}"
        for k, v in sorted(earlier.items()) if counts.get(k) != v
    ]


def append_record(record: dict) -> None:
    """Append one run's metrics and host-speed context to runs.jsonl."""

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "runs.jsonl"), "a") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")
