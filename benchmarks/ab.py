#!/usr/bin/env python3
"""Same-machine A/B of the perfbench benchmark: a base revision vs HEAD.

    python3 benchmarks/ab.py --base <rev> --workload paper-grid --seeds 1 2 3
    python3 benchmarks/ab.py --base <rev> --workload paper-grid cluster-faulted --seeds 1 2 --trace
    make bench-ab BASE=<rev> WORKLOAD="paper-grid service-whatif" SEEDS="1 2 3" [TRACE=1]

Exports ``<rev>`` into a temporary directory (``git archive``; removed
again at the end), then, seed by seed, runs ``perfbench/run.py --trace
0`` once on each side for every workload given, interleaved — base then
head for odd seeds, head then base for even ones — so slow drift of the
host's speed lands on both sides and on every workload alike.  The head
side is the working tree this script lives in.  Prints, per workload,
every end-to-end metric of ``BENCHMARK.json`` with each side's median
and quartiles, the head/base ratio of the medians, the base runs'
quartile distance relative to their median, in how many same-seed pairs
head beat base, and a verdict (:func:`verdict`): ``gain``, ``worse``,
``unresolved`` or ``flat``.

Exact work: after each seed pair the two trees' exact-count files
(``perfbench/out/counts/<workload>-seed<s>-s<seconds>.json``) must be
identical — a speed-only change does the same work.  Any differing
counter is printed and the script exits non-zero.

``--trace`` also runs one ``--trace 1`` pair per seed and workload and
prints each per-layer metric's per-side median and head/base ratio, so a
gain can be placed in the layer it came from.  Pure git and local
processes: nothing is fetched, nothing under ``perfbench/`` is edited.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _export(rev: str, tree: str) -> None:
    """Write the files of commit ``rev`` into the directory ``tree``."""

    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree)


def _run(tree: str, workload: str, seed: int, seconds: int,
         trace: int = 0) -> dict:
    """One benchmark run in ``tree``; its final JSON line."""

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if out.returncode != 0:
        raise SystemExit(
            f"bench-ab: run failed in {tree} (seed {seed}):\n{out.stderr}"
        )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _counts(tree: str, workload: str, seed: int, seconds: int) -> dict:
    path = os.path.join(tree, "perfbench", "out", "counts",
                        f"{workload}-seed{seed}-s{seconds}.json")
    with open(path) as f:
        return json.load(f)


def _count_diffs(base: dict, head: dict) -> list[str]:
    return [
        f"{name}: base {base.get(name)} head {head.get(name)}"
        for name in sorted(set(base) | set(head))
        if base.get(name) != head.get(name)
    ]


def _medians(runs: dict, name: str) -> tuple[list, list, float, float]:
    values = {
        side: [r["metrics"][name]["value"] for r in runs[side]]
        for side in runs
    }
    return (values["base"], values["head"],
            statistics.median(values["base"]),
            statistics.median(values["head"]))


def _quartiles(values: list) -> tuple[float, float, float]:
    """First quartile, median and third quartile (one value: itself)."""

    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def _iqr(values: list) -> float:
    """Distance between the quartiles (0 for a single value)."""

    q1, _, q3 = _quartiles(values)
    return q3 - q1


def _wins(base: list, head: list, better: str) -> int:
    """Same-seed pairs head won; a tie counts for neither side."""

    sign = 1 if better == "higher" else -1
    return sum(sign * (h - b) > 0 for b, h in zip(base, head))


def verdict(base: list, head: list, better: str, bound: float) -> str:
    """One metric's A/B verdict from same-seed pairs of runs.

    ``gain``: head won at least nine tenths of the pairs and the medians
    differ, in head's favour, by more than the base runs' quartile
    distance.  ``worse``: head's median is worse than base's by more
    than ``bound`` (relative, as in ``BENCHMARK.json``).
    ``unresolved``: the base runs' quartile distance exceeds ``bound``
    of their median, so no-regression cannot be told, unless every head
    run beats every base run.  ``flat``: none of these.
    """

    sign = 1 if better == "higher" else -1
    base_med = statistics.median(base)
    gap = sign * (statistics.median(head) - base_med)
    iqr = _iqr(base)
    if 10 * _wins(base, head, better) >= 9 * len(base) and gap > iqr:
        return "gain"
    if -gap > bound * abs(base_med):
        return "worse"
    beats_all = all(sign * (h - b) > 0 for h in head for b in base)
    if iqr > bound * abs(base_med) and not beats_all:
        return "unresolved"
    return "flat"


def run_pairs(base_tree: str, workloads: list[str], seeds: list[int],
              seconds: int, trace: bool) -> dict:
    """Every run, interleaved per seed; per workload: the untraced runs
    and traced runs per side, and the exact-count differences."""

    results = {
        w: {"runs": {"base": [], "head": []},
            "traced": {"base": [], "head": []}, "count_problems": []}
        for w in workloads
    }
    for seed in seeds:
        order = ("base", "head") if seed % 2 else ("head", "base")
        for workload in workloads:
            res = results[workload]
            for side in order:
                tree = base_tree if side == "base" else ROOT
                result = _run(tree, workload, seed, seconds)
                res["runs"][side].append(result)
                print(f"# {workload} seed {seed} {side}: "
                      f"correct={result['correct']}",
                      file=sys.stderr, flush=True)
            for diff in _count_diffs(
                _counts(base_tree, workload, seed, seconds),
                _counts(ROOT, workload, seed, seconds),
            ):
                res["count_problems"].append(f"seed {seed}: {diff}")
                print(f"# {workload} seed {seed} exact count differs: "
                      f"{diff}", file=sys.stderr, flush=True)
            if trace:
                for side in order:
                    tree = base_tree if side == "base" else ROOT
                    res["traced"][side].append(
                        _run(tree, workload, seed, seconds, trace=1)
                    )
                print(f"# {workload} seed {seed}: traced pair done",
                      file=sys.stderr, flush=True)
    return results


def _median_quartiles(values: list) -> str:
    q1, median, q3 = _quartiles(values)
    return f"{median:12.4f} [{q1:.4f}, {q3:.4f}]"


def report(bench: dict, workload: str, res: dict, base_rev: str,
           seeds: list[int], seconds: int) -> bool:
    """Print one workload's A/B; True if every run was correct and the
    exact counts agree."""

    runs, traced = res["runs"], res["traced"]
    count_problems = res["count_problems"]
    print(f"{workload}: base {base_rev} vs head (working tree), "
          f"seeds {' '.join(map(str, seeds))}, --seconds {seconds}")
    for side, results in runs.items():
        ok = sum(r["correct"] for r in results)
        print(f"  {side}: {ok}/{len(results)} runs correct")
    print("  exact counts: " + (
        f"DIFFER ({len(count_problems)} counters)" if count_problems
        else "identical on every seed"
    ))
    print(f"  {'metric':20s} {'unit':6s} {'better':6s} "
          f"{'base median [q1, q3]':>36s} {'head median [q1, q3]':>36s} "
          f"{'head/base':>9s} {'base iqr/med':>12s} {'head wins':>9s} "
          f"{'verdict':>10s}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        base_vals, head_vals, base_med, head_med = _medians(runs, name)
        ratio = head_med / base_med if base_med else float("nan")
        spread = float("nan")
        if len(base_vals) > 1 and base_med:
            spread = _iqr(base_vals) / base_med
        wins = _wins(base_vals, head_vals, metric["better"])
        call = verdict(base_vals, head_vals, metric["better"],
                       metric["bound"])
        print(f"  {name:20s} {metric['unit']:6s} {metric['better']:6s} "
              f"{_median_quartiles(base_vals):>36s} "
              f"{_median_quartiles(head_vals):>36s} "
              f"{ratio:9.3f} {spread:12.3f} {wins:>4d}/{len(head_vals):<4d} "
              f"{call:>10s}")
    if any(traced.values()):
        print("  per layer (--trace 1, one pair per seed):")
        print(f"  {'layer metric':34s} {'unit':6s} "
              f"{'base median':>14s} {'head median':>14s} {'head/base':>9s}")
        for metric in bench["per_layer"]:
            name = metric["name"]
            if not all(name in r["metrics"] for rs in traced.values()
                       for r in rs):
                continue
            _, _, base_med, head_med = _medians(traced, name)
            if not base_med and not head_med:
                continue  # a layer this workload does not run
            ratio = head_med / base_med if base_med else float("nan")
            print(f"  {name:34s} {metric['unit']:6s} "
                  f"{base_med:14.4f} {head_med:14.4f} {ratio:9.3f}")
    for problem in count_problems:
        print(f"  exact count differs, {problem}")
    correct = all(
        r["correct"] for group in (runs, traced)
        for rs in group.values() for r in rs
    )
    return correct and not count_problems


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument(
        "--workload", required=True, nargs="+",
        choices=[w["name"] for w in bench["workloads"]],
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--trace", action="store_true",
                        help="also run one --trace 1 pair per seed")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]  # the run length the benchmark fixes

    base_rev = _git("rev-parse", "--short", f"{args.base}^{{commit}}")
    tmp = tempfile.mkdtemp(prefix="bench-ab-")
    base_tree = os.path.join(tmp, "base")
    try:
        _export(base_rev, base_tree)
        results = run_pairs(base_tree, args.workload, args.seeds, seconds,
                            args.trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ok = [
        report(bench, workload, results[workload], base_rev, args.seeds,
               seconds)
        for workload in args.workload
    ]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
