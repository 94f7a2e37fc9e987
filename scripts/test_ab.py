"""Unit tests for ab.py's gain rule and per-metric table (run via `python3 -m unittest`
or ctest)."""

from __future__ import annotations

import math
import os
import sys
import unittest
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ab  # noqa: E402

PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


class QuartileTest(unittest.TestCase):
    def test_linear_interpolation(self):
        self.assertEqual(ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0))
        self.assertEqual(ab.quartiles([1.0, 2.0, 3.0, 4.0]), (1.75, 2.5, 3.25))

    def test_single_value(self):
        self.assertEqual(ab.quartiles([7.0]), (7.0, 7.0, 7.0))


class VerdictTest(unittest.TestCase):
    def test_clear_gain_holds(self):
        v = ab.verdict([(p, 1.2 * p) for p in PARENT])
        self.assertEqual(v["wins"], 10)
        self.assertEqual(v["needed"], 9)
        self.assertAlmostEqual(v["parent_iqr"], 100.875 - 99.125)
        self.assertAlmostEqual(v["ratio"], 1.2)
        self.assertTrue(v["holds"])

    def test_eight_wins_of_ten_fail(self):
        pairs = [(p, 1.2 * p) for p in PARENT[:8]] + [(p, 0.9 * p) for p in PARENT[8:]]
        v = ab.verdict(pairs)
        self.assertEqual(v["wins"], 8)
        self.assertFalse(v["holds"])

    def test_nine_wins_hold(self):
        pairs = [(p, 1.2 * p) for p in PARENT[:9]] + [(PARENT[9], PARENT[9])]
        v = ab.verdict(pairs)
        self.assertEqual(v["wins"], 9)  # a tie is not a win
        self.assertTrue(v["holds"])

    def test_gap_inside_parent_iqr_fails(self):
        # Every pair wins, but by less than the parent's own spread.
        v = ab.verdict([(p, p + 0.5) for p in PARENT])
        self.assertEqual(v["wins"], 10)
        self.assertAlmostEqual(v["gap"], 0.5)
        self.assertFalse(v["holds"])


class SpecTest(unittest.TestCase):
    def test_reads_direction_and_bound_from_the_benchmark(self):
        specs = ab.load_specs(Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        self.assertEqual(specs["reps_per_s"], {"better": "higher", "bound": 0.25})
        self.assertEqual(specs["setup_s"], {"better": "lower", "bound": 0.25})
        self.assertEqual(specs["peak_rss_mb"], {"better": "lower", "bound": 0.1})
        self.assertEqual(set(specs), {"reps_per_s", "reps_per_s_mt", "setup_s", "peak_rss_mb"})


class SummarizeTest(unittest.TestCase):
    def test_wins_follow_the_direction(self):
        pairs = [(10.0, 9.0), (10.0, 11.0), (10.0, 8.0), (10.0, 10.0)]
        self.assertEqual(ab.summarize(pairs, "higher")["wins"], 1)
        self.assertEqual(ab.summarize(pairs, "lower")["wins"], 2)  # a tie is not a win

    def test_quartiles_of_each_side(self):
        s = ab.summarize([(p, 2.0 * p) for p in [1.0, 2.0, 3.0, 4.0, 5.0]])
        self.assertEqual(s["parent"], (2.0, 3.0, 4.0))
        self.assertEqual(s["change"], (4.0, 6.0, 8.0))
        self.assertAlmostEqual(s["ratio"], 2.0)

    def test_worse_beyond_the_bound_is_marked(self):
        # Higher is better: a median 30% below the parent's breaks a 0.25 bound,
        # 20% below does not.
        self.assertTrue(ab.summarize([(p, 0.7 * p) for p in PARENT], "higher", 0.25)["worse"])
        self.assertFalse(ab.summarize([(p, 0.8 * p) for p in PARENT], "higher", 0.25)["worse"])
        # Lower is better: 15% above breaks a 0.1 bound, 5% above does not, and
        # falling is never worse.
        self.assertTrue(ab.summarize([(p, 1.15 * p) for p in PARENT], "lower", 0.1)["worse"])
        self.assertFalse(ab.summarize([(p, 1.05 * p) for p in PARENT], "lower", 0.1)["worse"])
        self.assertFalse(ab.summarize([(p, 0.5 * p) for p in PARENT], "lower", 0.1)["worse"])
        # No bound, no mark.
        self.assertFalse(ab.summarize([(p, 0.1 * p) for p in PARENT], "higher", None)["worse"])

    def test_zero_parent_values_leave_no_ratio(self):
        s = ab.summarize([(0.0, 0.0), (0.0, 1.0)], "lower", 0.25)
        self.assertTrue(math.isnan(s["ratio"]))
        self.assertTrue(s["worse"])  # median 0 -> 0.5 is worse by more than 0.25 x 0


class MetricTableTest(unittest.TestCase):
    def test_every_metric_gets_a_row(self):
        specs = {"reps_per_s": {"better": "higher", "bound": 0.25},
                 "setup_s": {"better": "lower", "bound": 0.25}}
        runs = [({"reps_per_s": p, "setup_s": 1.0, "extra": 3.0},
                 {"reps_per_s": 1.2 * p, "setup_s": 1.5, "extra": 4.0}) for p in PARENT]
        header, *rows = ab.metric_table(runs, specs)
        self.assertIn("parent median [Q1, Q3]", header)
        self.assertEqual([row.split()[0] for row in rows], ["reps_per_s", "setup_s", "extra"])
        reps, setup, extra = rows
        self.assertIn("higher", reps)
        self.assertTrue(reps.endswith("10/10"))
        self.assertIn("lower", setup)
        self.assertTrue(setup.endswith("0/10  WORSE"))
        # Undeclared in the benchmark: no direction, bound or wins.
        self.assertEqual(extra.split()[1:3], ["-", "-"])
        self.assertTrue(extra.endswith("-"))


if __name__ == "__main__":
    unittest.main()
