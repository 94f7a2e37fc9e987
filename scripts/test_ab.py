"""Unit tests for ab.py's gain-rule arithmetic (run via `python3 -m unittest` or ctest)."""

from __future__ import annotations

import os
import sys
import unittest

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


if __name__ == "__main__":
    unittest.main()
