#!/usr/bin/env python3
"""Same-machine A/B of the perfbench benchmark: a base revision vs HEAD.

    python3 benchmarks/ab.py --base <rev> --workload paper-grid --seeds 1 2 3
    make bench-ab BASE=<rev> WORKLOAD=paper-grid SEEDS="1 2 3"

Checks ``<rev>`` out into a temporary ``git worktree`` (detached; removed
again at the end), then runs ``perfbench/run.py --trace 0`` once per seed
on each side, interleaved — base then head for odd seeds, head then base
for even ones — so slow drift of the host's speed lands on both sides
alike.  The head side is the working tree this script lives in.  Prints
every end-to-end metric of ``BENCHMARK.json`` with its per-side median,
the head/base ratio of the medians, the base runs' quartile distance
relative to their median, and in how many same-seed pairs head beat
base (the evidence a speed claim needs).  Pure git and local processes:
nothing is fetched, nothing under ``perfbench/`` is edited.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _run(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in ``tree``; its final JSON line."""

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if out.returncode != 0:
        raise SystemExit(
            f"bench-ab: run failed in {tree} (seed {seed}):\n{out.stderr}"
        )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument(
        "--workload", required=True,
        choices=[w["name"] for w in bench["workloads"]],
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]  # the run length the benchmark fixes

    base_rev = _git("rev-parse", "--short", f"{args.base}^{{commit}}")
    tmp = tempfile.mkdtemp(prefix="bench-ab-")
    base_tree = os.path.join(tmp, "base")
    _git("worktree", "add", "--detach", base_tree, base_rev)
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    try:
        for seed in args.seeds:
            order = ("base", "head") if seed % 2 else ("head", "base")
            for side in order:
                tree = base_tree if side == "base" else ROOT
                result = _run(tree, args.workload, seed, seconds)
                runs[side].append(result)
                print(f"# seed {seed} {side}: correct={result['correct']}",
                      file=sys.stderr, flush=True)
    finally:
        _git("worktree", "remove", "--force", base_tree)
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"{args.workload}: base {base_rev} vs head (working tree), "
          f"seeds {' '.join(map(str, args.seeds))}, --seconds {seconds}")
    for side, results in runs.items():
        ok = sum(r["correct"] for r in results)
        print(f"  {side}: {ok}/{len(results)} runs correct")
    print(f"  {'metric':20s} {'unit':6s} {'better':6s} "
          f"{'base median':>14s} {'head median':>14s} {'head/base':>9s} "
          f"{'base iqr/med':>12s} {'head wins':>9s}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = {
            side: [r["metrics"][name]["value"] for r in runs[side]]
            for side in runs
        }
        base_med = statistics.median(values["base"])
        head_med = statistics.median(values["head"])
        ratio = head_med / base_med if base_med else float("nan")
        spread = float("nan")
        if len(values["base"]) > 1 and base_med:
            q1, _, q3 = statistics.quantiles(values["base"], n=4)
            spread = (q3 - q1) / base_med
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(
            sign * (h - b) > 0 for b, h in zip(values["base"], values["head"])
        )
        print(f"  {name:20s} {metric['unit']:6s} {metric['better']:6s} "
              f"{base_med:14.4f} {head_med:14.4f} {ratio:9.3f} "
              f"{spread:12.3f} {wins:>4d}/{len(values['head']):<4d}")
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
