#!/usr/bin/env python3
"""Median and quartiles of every metric over a set of benchmark runs.

    python3 perfbench/summary.py [perfbench/out/runs.jsonl ...]

Each file is one set of runs (``run.py`` appends one record per run to
``perfbench/out/runs.jsonl``; move the file aside to start a new set).
For each workload and metric it prints the median, the first and third
quartiles and their distance as a share of the median, beside the same
figures for the host-speed loop timed before and after each run, so host
drift can be told apart from a change in the program.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

from harness import OUT


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(path: str) -> None:
    groups: dict[tuple, dict[str, list]] = defaultdict(lambda: defaultdict(list))
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            group = groups[(rec["workload"], rec["trace"])]
            for name, value in rec["metrics"].items():
                group[name].append(value)
            group["(host loop ms)"] += rec["host_loop_ms"]
            group["(seeds)"].append(rec["seed"])
    print(f"# {path}")
    for (workload, trace), metrics in sorted(groups.items()):
        seeds = metrics.pop("(seeds)")
        print(f"{workload} trace={trace} runs={len(seeds)} seeds={seeds}")
        for name, values in sorted(metrics.items()):
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:34s} median {med:14.6f}  q1 {q1:14.6f}  "
                  f"q3 {q3:14.6f}  iqr/median {spread:7.4f}")


def main(argv: list[str]) -> int:
    paths = argv or [os.path.join(OUT, "runs.jsonl")]
    for path in paths:
        summarize(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
