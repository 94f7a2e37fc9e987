#!/usr/bin/env python3
"""The benchmark's own tests: short runs of every workload, and the self-test
that the bit-identity check catches a decorator that changes a decision.

    python3 perfbench/test_perfbench.py

Each run goes through run.py, which builds lbbench first if needed.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, *extra: str) -> tuple:
    """Returns (exit code, result JSON, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]), lines


class ShortRuns(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                cls.results[workload, trace] = run(workload, trace)

    def test_every_metric_with_its_unit_and_no_failures(self):
        for (workload, trace), (code, result, _) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                declared = SPEC["per_layer" if trace else "end_to_end"]
                self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
                for metric in declared:
                    self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])
                if trace:
                    self.assertEqual(result["metrics"]["fail_frac"]["value"], 0)

    def test_traced_run_separates_the_layers(self):
        def layer(workload, name):
            return self.results[workload, 1][1]["metrics"][name]["value"]

        self.assertGreaterEqual(layer("churn_n256", "core.busy_share"), 0.7)
        self.assertLessEqual(layer("paper_2node", "core.busy_share"), 0.05)
        self.assertGreaterEqual(layer("paper_2node", "stochastic.setup_share"),
                                5 * layer("churn_n256", "stochastic.setup_share"))
        self.assertEqual(layer("churn_n256", "core.useful_ratio"), 0)

    def test_conserved_task_counts(self):
        # lbbench checks RunResult::tasks_completed against these per replication.
        per_rep = {"paper_2node": 160, "churn_n256": 15360, "lossy_testbed": 160,
                   "graph_rr32": 1920}
        for workload, tasks in per_rep.items():
            with self.subTest(workload=workload):
                header = self.results[workload, 1][2][0]
                self.assertIn(f", {tasks} tasks per replication,", header)


class DroppedDirective(unittest.TestCase):
    def test_bit_identity_check_reports_failures(self):
        code, result, _ = run("paper_2node", 0, "--drop-directive")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
