"""Unit tests for the verdict logic of `suite.py compare`.

    python3 -m unittest discover -s benchmark -p "test_*.py"
"""

import statistics
import unittest

from suite import quartiles, spread, verdict


def steady(center, n=10, step=0.001):
    """n values within +-step*n/2 of center: a spread far below any bound."""
    return [center * (1 + step * (i - n // 2)) for i in range(n)]


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, q2, q3 = quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, statistics.median(values))

    def test_spread_is_interquartile_share_of_median(self):
        values = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(spread(values), (q3 - q1) / q2)

    def test_single_run(self):
        self.assertEqual(quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertEqual(spread([3.0]), 0.0)


class VerdictTest(unittest.TestCase):
    def test_unchanged_within_bound(self):
        base = steady(100.0)
        new = steady(108.0)  # 8% worse, bound 10%
        self.assertEqual(verdict(base, new, 0.10, "lower"), "unchanged")

    def test_regressed_beyond_bound(self):
        base = steady(100.0)
        new = steady(115.0)
        self.assertEqual(verdict(base, new, 0.10, "lower"), "regressed")

    def test_direction_higher(self):
        base = steady(100.0)
        self.assertEqual(verdict(base, steady(85.0), 0.10, "higher"),
                         "regressed")
        self.assertEqual(verdict(base, steady(120.0), 0.10, "higher"),
                         "improved")

    def test_improved_needs_nine_in_ten_pairs(self):
        base = steady(100.0)
        new = [b * 0.8 for b in base]
        self.assertEqual(verdict(base, new, 0.10, "lower"), "improved")
        # Two of ten pairs lost: the median gain alone is not enough.
        lost = list(new)
        lost[0] = base[0] * 1.01
        lost[1] = base[1] * 1.01
        self.assertEqual(verdict(base, lost, 0.10, "lower"), "unchanged")
        # One loss is still nine in ten.
        lost[1] = new[1]
        self.assertEqual(verdict(base, lost, 0.10, "lower"), "improved")

    def test_improved_needs_ten_pairs(self):
        base = steady(100.0, n=5)
        new = [b * 0.8 for b in base]  # wins all five pairs
        self.assertEqual(verdict(base, new, 0.10, "lower"), "unchanged")
        base = steady(100.0, n=10)
        new = [b * 0.8 for b in base]
        self.assertEqual(verdict(base, new, 0.10, "lower"), "improved")

    def test_ties_count_for_neither_side(self):
        base = steady(100.0)
        new = [b * 0.8 for b in base]
        new[0] = base[0]
        new[1] = base[1]  # 8 wins and 2 ties out of 10 pairs
        self.assertEqual(verdict(base, new, 0.10, "lower"), "unchanged")

    def test_improvement_must_exceed_base_quartile_distance(self):
        base = [90.0, 110.0] * 5  # quartiles 90 and 110
        new = [b - 5.0 for b in base]  # wins every pair, median gain 5 < 20
        self.assertEqual(verdict(base, new, 0.25, "lower"), "unchanged")

    def test_unresolved_when_spread_exceeds_bound(self):
        base = [70.0, 130.0] * 5  # spread 0.6 around a median of 100
        new = [75.0, 135.0] * 5
        self.assertEqual(verdict(base, new, 0.10, "lower"), "unresolved")
        # The new side's spread counts too.
        self.assertEqual(
            verdict(steady(100.0), [60.0, 140.0] * 5, 0.10, "lower"),
            "unresolved")

    def test_wide_spread_but_every_run_better(self):
        base = [200.0, 300.0] * 5
        # Every new run beats every base run, by less than base's quartile
        # distance: not a gain, but resolved as no regression.
        new = [150.0, 190.0] * 5
        self.assertEqual(verdict(base, new, 0.10, "lower"), "unchanged")
        new = [100.0, 150.0] * 5
        self.assertEqual(verdict(base, new, 0.10, "lower"), "improved")

    def test_wide_spread_regression_is_unresolved_not_regressed(self):
        base = [70.0, 130.0] * 5
        new = [140.0, 260.0] * 5
        self.assertEqual(verdict(base, new, 0.10, "lower"), "unresolved")

    def test_needs_paired_runs(self):
        with self.assertRaises(ValueError):
            verdict([1.0, 2.0], [1.0], 0.1, "lower")


if __name__ == "__main__":
    unittest.main()
