#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same work twice, untraced and then with
span wrappers installed, and prints the per-layer metrics plus the
tracing overhead.  The last line of standard output is the JSON result.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

from harness import calibrate

#: host speed just before the workload starts (see ``_setup_time``)
PRE_SETUP = [calibrate() for _ in range(5)]
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from harness import (  # noqa: E402
    ROOT,
    SRC,
    append_record,
    check_counts,
    host_loop_ms,
    percentile,
    reference_scale,
)

WORKLOADS = ("paper-grid", "service-whatif", "cluster-faulted")
#: set-ups measured per run (this one plus fresh-interpreter probes)
SETUPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_records_per_s": "1/s",
    "whatif_p50_ms": "ms",
    "whatif_p90_ms": "ms",
    "hit_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


def _workload(name: str, seed: int, seconds: int):
    if name == "paper-grid":
        from paper_grid import PaperGrid as cls
    elif name == "service-whatif":
        from service_whatif import ServiceWhatIf as cls
    else:
        from cluster_faulted import ClusterFaulted as cls
    return cls(seed, seconds)


def _probe_setup(args) -> float:
    """Time the workload's set-up in a fresh interpreter."""

    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def _setup_time() -> float:
    """Set-up time so far, scaled to the reference host speed.

    Sampled before the workload starts and right after its set-up, the
    host speed scales set-up time as ``Stopwatch`` scales operations.
    """

    elapsed = time.perf_counter() - T0
    post = [calibrate() for _ in range(5)]
    return elapsed * reference_scale(PRE_SETUP + post)


def _end_to_end(phase, setup_s: float, rss_mb: float) -> dict:
    return {
        "setup_s": setup_s,
        "sim_records_per_s": phase.records / phase.elapsed_s,
        "whatif_p50_ms": percentile(phase.whatif_ms, 50),
        "whatif_p90_ms": percentile(phase.whatif_ms, 90),
        "hit_p50_ms": percentile(phase.hit_ms, 50),
        "peak_rss_mb": rss_mb,
        "ok_share": (phase.attempted - phase.failed) / phase.attempted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.environ["REPRO_WORKERS"] = "1"
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2

    workload = _workload(args.workload, args.seed, args.seconds)
    try:
        workload.setup()
        setups = [_setup_time()]
        if args.setup_probe:
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        setups += [_probe_setup(args) for _ in range(SETUPS - 1)]
        setup_s = statistics.median(setups)

        host_before = host_loop_ms()
        phase = workload.measure()
        host_after = host_loop_ms()
        traced = None
        if args.trace:
            traced = workload.measure(traced=True)
        workload.verify(phase)
        rss_mb = workload.peak_rss_mb()
    finally:
        workload.close()

    problems = list(phase.problems)
    problems += check_counts(args.workload, args.seed, args.seconds,
                             phase.counts)
    if traced is not None:
        problems += traced.problems
        if traced.counts != phase.counts:
            problems.append("traced counts differ from the untraced run's")
        metrics = dict(traced.layers)
        metrics["trace.overhead_pct"] = 100.0 * (
            traced.elapsed_s / phase.elapsed_s - 1.0
        )
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = _end_to_end(phase, setup_s, rss_mb)
        units = END_TO_END_UNITS

    for name, value in sorted(metrics.items()):
        print(f"{args.workload:16s} {name:34s} {value:16.6f} {units[name]}")
    print(f"{args.workload:16s} ops {phase.attempted} failed {phase.failed} "
          f"timed {phase.elapsed_s:.3f}s setups "
          f"{', '.join(f'{s:.3f}' for s in setups)}s host loop "
          f"{host_before:.2f}/{host_after:.2f} ms")
    for problem in problems:
        print(f"{args.workload:16s} PROBLEM {problem}")

    append_record({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host_loop_ms": [host_before, host_after],
        "setups_s": setups, "timed_s": phase.elapsed_s,
        "raw_timed_s": phase.raw_elapsed_s,
        "host_calibration_ms": phase.host_calibration_ms,
        "metrics": metrics, "counts": phase.counts,
        "problems": problems,
    })
    print(json.dumps({
        "correct": not problems and phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("us_per_call") or name.endswith("us_per_record"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
