"""The A/B script (``benchmarks/ab.py``): its per-metric verdict on
hand-made runs (ten same-seed pairs unless a case needs fewer), and its
several-workload call on stubbed runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_ab", Path(__file__).parents[1] / "benchmarks" / "ab.py"
)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

#: ten base runs around 100: quartiles 98.75 and 101.25, IQR 2.5
BASE = [97, 98, 99, 99, 100, 100, 101, 101, 102, 103]


def shifted(delta, losses=0):
    """BASE moved by ``delta``, the first ``losses`` pairs moved back."""

    return [b - delta if i < losses else b + delta
            for i, b in enumerate(BASE)]


class TestVerdict:
    def test_gain_needs_nine_wins_and_a_gap_beyond_the_iqr(self):
        assert ab.verdict(BASE, shifted(10), "higher", 0.25) == "gain"
        assert ab.verdict(BASE, shifted(10, losses=1), "higher",
                          0.25) == "gain"
        # two lost pairs of ten: not a gain, though the median moved
        assert ab.verdict(BASE, shifted(10, losses=2), "higher",
                          0.25) == "flat"
        # every pair won, but by less than the base runs' own spread
        assert ab.verdict(BASE, shifted(1), "higher", 0.25) == "flat"

    def test_lower_is_better_flips_the_sign(self):
        assert ab.verdict(BASE, shifted(-10), "lower", 0.25) == "gain"
        assert ab.verdict(BASE, shifted(10), "lower", 0.25) == "flat"
        assert ab.verdict(BASE, shifted(30), "lower", 0.25) == "worse"

    def test_worse_beyond_the_bound(self):
        assert ab.verdict(BASE, shifted(-30), "higher", 0.25) == "worse"
        assert ab.verdict(BASE, shifted(-20), "higher", 0.25) == "flat"

    def test_ties_count_for_neither_side(self):
        assert ab._wins(BASE, list(BASE), "higher") == 0
        assert ab._wins(BASE, list(BASE), "lower") == 0
        assert ab.verdict(BASE, list(BASE), "higher", 0.25) == "flat"

    def test_unresolved_when_the_base_spread_exceeds_the_bound(self):
        noisy = [60, 80, 90, 100, 100, 100, 110, 120, 140, 160]  # IQR 32.5
        assert ab.verdict(noisy, list(noisy), "higher", 0.25) == "unresolved"
        # unless every head run beats every base run (here by less
        # than the IQR of 100, so it is no gain either)
        skewed = [0, 0, 0, 100, 100, 100, 100, 100, 100, 101]
        assert ab.verdict(skewed, [99] * 10, "higher", 0.25) == "unresolved"
        assert ab.verdict(skewed, [102] * 10, "higher", 0.25) == "flat"

    @pytest.mark.parametrize("better", ["higher", "lower"])
    def test_one_pair(self, better):
        sign = 1 if better == "higher" else -1
        assert ab.verdict([1.0], [1.0 + sign], better, 0.25) == "gain"
        assert ab.verdict([1.0], [1.0], better, 0.25) == "flat"


class TestQuartiles:
    def test_quartiles_of_ten_runs(self):
        assert ab._quartiles(BASE) == (98.75, 100, 101.25)
        assert ab._iqr(BASE) == 2.5

    def test_one_run_is_its_own_quartiles(self):
        assert ab._quartiles([7.0]) == (7.0, 7.0, 7.0)
        assert ab._iqr([7.0]) == 0.0


def _bench():
    with open(Path(ab.ROOT) / "BENCHMARK.json") as f:
        return json.load(f)


def _fake_result(value):
    return {
        "correct": True,
        "metrics": {m["name"]: {"value": value}
                    for m in _bench()["end_to_end"]},
    }


class TestSeveralWorkloads:
    """Several workloads in one call, interleaved per seed, on stubbed
    benchmark runs (no subprocess, no git)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []

        def run(tree, workload, seed, seconds, trace=0):
            side = "head" if tree == ab.ROOT else "base"
            made.append((seed, workload, side, trace))
            return _fake_result(float(seed) + (side == "head"))

        monkeypatch.setattr(ab, "_run", run)
        monkeypatch.setattr(ab, "_counts", lambda tree, *a: {"n": 1})
        monkeypatch.setattr(ab, "_export", lambda rev, tree: None)
        return made

    def test_runs_interleave_per_seed_and_alternate_the_first_side(
        self, calls
    ):
        results = ab.run_pairs("base-tree", ["paper-grid", "cluster-faulted"],
                               [1, 2], 25, trace=True)
        assert calls == [
            (1, "paper-grid", "base", 0), (1, "paper-grid", "head", 0),
            (1, "paper-grid", "base", 1), (1, "paper-grid", "head", 1),
            (1, "cluster-faulted", "base", 0),
            (1, "cluster-faulted", "head", 0),
            (1, "cluster-faulted", "base", 1),
            (1, "cluster-faulted", "head", 1),
            (2, "paper-grid", "head", 0), (2, "paper-grid", "base", 0),
            (2, "paper-grid", "head", 1), (2, "paper-grid", "base", 1),
            (2, "cluster-faulted", "head", 0),
            (2, "cluster-faulted", "base", 0),
            (2, "cluster-faulted", "head", 1),
            (2, "cluster-faulted", "base", 1),
        ]
        for res in results.values():
            assert len(res["runs"]["base"]) == len(res["runs"]["head"]) == 2
            assert res["count_problems"] == []

    def test_report_prints_each_sides_median_and_quartiles(self, calls,
                                                           capsys):
        seeds = list(range(1, 11))
        assert ab.main(["--base", "HEAD", "--workload", "paper-grid",
                        "service-whatif", "--seeds", *map(str, seeds)]) == 0
        out = capsys.readouterr().out
        assert out.count("runs correct") == 4  # two sides x two workloads
        assert "paper-grid: base" in out and "service-whatif: base" in out
        # base runs read seeds 1..10, head runs 2..11
        q1, median, q3 = ab._quartiles([float(s) for s in seeds])
        assert f"{median:12.4f} [{q1:.4f}, {q3:.4f}]" in out
        assert f"{median + 1:12.4f} [{q1 + 1:.4f}, {q3 + 1:.4f}]" in out
        assert "identical on every seed" in out

    def test_a_count_difference_fails_the_call(self, calls, monkeypatch):
        monkeypatch.setattr(
            ab, "_counts",
            lambda tree, *a: {"n": 2 if tree == ab.ROOT else 1},
        )
        assert ab.main(["--base", "HEAD", "--workload", "paper-grid",
                        "cluster-faulted", "--seeds", "1"]) == 1
