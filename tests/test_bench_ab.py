"""The A/B script's per-metric verdict (``benchmarks/ab.py``), on
hand-made runs: ten same-seed pairs unless a case needs fewer."""

import importlib.util
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
