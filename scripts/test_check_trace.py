"""Unit tests for check_trace.py (run via `python3 -m unittest` or ctest).

Covers the cross-check of a run's counters against its trace: a matching
trace/metrics pair passes, and a pair whose policy or environment counts
disagree fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_trace  # noqa: E402


def record(t: float, kind: str, node: int = -1, count: int = 0, payload: int = 0) -> dict:
    return {"t": t, "kind": kind, "node": node, "peer": -1, "count": count, "payload": payload}


# One replication: a t = 0 decision that moves work, an environment jump, a
# failure whose decision moves nothing, and a recovery whose decision moves
# nothing.
TRACE = [
    record(0.0, "rep_begin"),
    record(0.0, "policy_decision", count=1),
    record(0.0, "transfer_send", node=0, count=35),
    record(1.0, "env_transition", node=0),
    record(1.5, "fail", node=1),
    record(1.5, "policy_decision", node=1, count=0),
    record(4.0, "recover", node=1),
    record(4.0, "policy_decision", node=1, count=0),
]


def metrics_doc(decisions: int, empty: int, env: int | None = 1) -> dict:
    counters = {"policy.decisions": decisions, "policy.decisions.empty": empty}
    if env is not None:
        counters["env.transitions"] = env
    return {
        "metadata": {"seed": "1", "git": "abc1234"},
        "metrics": {
            "counters": counters,
            "gauges": {},
            "histograms": {},
        },
    }


class CrossCheckTest(unittest.TestCase):
    def setUp(self) -> None:
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)
        self.trace = os.path.join(self._dir.name, "t.jsonl")
        with open(self.trace, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": {"scenario": "paper-two-node", "seed": 1}}) + "\n")
            for obj in TRACE:
                fh.write(json.dumps(obj) + "\n")

    def check(self, doc: dict) -> tuple[int, str]:
        path = os.path.join(self._dir.name, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = check_trace.main([self.trace, "--metrics", path])
        return code, out.getvalue()

    def test_matching_pair_passes(self) -> None:
        code, out = self.check(metrics_doc(decisions=3, empty=2))
        self.assertEqual(code, 0, out)
        self.assertIn("trace check passed", out)

    def test_mismatching_pair_fails(self) -> None:
        code, out = self.check(metrics_doc(decisions=3, empty=3))
        self.assertEqual(code, 1, out)
        self.assertIn("policy.decisions.empty=3", out)
        self.assertNotIn("policy.decisions=3 ", out)

    def test_environment_mismatch_fails(self) -> None:
        code, out = self.check(metrics_doc(decisions=3, empty=2, env=2))
        self.assertEqual(code, 1, out)
        self.assertIn("env.transitions=2 but the trace has 1 env_transition records", out)

    def test_missing_environment_counter_fails(self) -> None:
        code, out = self.check(metrics_doc(decisions=3, empty=2, env=None))
        self.assertEqual(code, 1, out)
        self.assertIn("metrics missing counter 'env.transitions'", out)


if __name__ == "__main__":
    unittest.main()
