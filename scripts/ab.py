#!/usr/bin/env python3
"""Paired A/B timing of two lbsim trees on one perfbench workload.

Usage:
    ab.py PARENT_TREE CHANGE_TREE --workload W [--pairs 10] [--seconds 15] [--seed0 S]

Runs each tree's perfbench/run.py with CARGO_TARGET_DIR set to the tree's own
.bench_build (the first run of each tree builds it), once per side per pair,
alternating which side goes first, with seed S + i for pair i. Prints every
pair's reps_per_s, each side's median of every metric the runs report, then
for reps_per_s the number of pairs the change wins, each side's median and
quartiles, the parent's interquartile range (IQR) and the gain-rule verdict:
the change wins at least nine pairs in ten, and its median beats the parent's
by more than the parent's IQR. Exit status: 0 when the rule holds, 1 when it
does not, 2 when a build or a run fails (including a run with failed
operations).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

METRIC = "reps_per_s"  # the gain rule's metric; higher is better
WIN_SHARE = 0.9  # at least nine pairs in ten


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(pairs: list[tuple[float, float]]) -> dict:
    """The gain rule over (parent, change) pairs."""
    wins = sum(1 for parent, change in pairs if change > parent)
    parent_q = quartiles([p for p, _ in pairs])
    change_q = quartiles([c for _, c in pairs])
    parent_iqr = parent_q[2] - parent_q[0]
    gap = change_q[1] - parent_q[1]
    needed = math.ceil(WIN_SHARE * len(pairs))
    return {
        "wins": wins,
        "needed": needed,
        "parent": parent_q,
        "change": change_q,
        "parent_iqr": parent_iqr,
        "gap": gap,
        "ratio": statistics.median(c / p for p, c in pairs),
        "holds": wins >= needed and gap > parent_iqr,
    }


def fail(message: str):
    print(f"ab.py: {message}", file=sys.stderr)
    sys.exit(2)


def run(tree: Path, args, seed: int) -> dict[str, float]:
    """One perfbench run of the tree; returns every metric it reports."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(tree / ".bench_build"))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{tree} run failed (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result.get("correct", False) or result.get("failed", 0) != 0:
        fail(f"{tree} run reported failures: {lines[-1]}")
    return {name: float(m["value"]) for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--seed0", type=int, default=1000)
    args = parser.parse_args()

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []  # (parent metrics, change metrics) per pair
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        metrics = {name: run(sides[name], args, seed) for name in order}
        runs.append((metrics["parent"], metrics["change"]))
        parent, change = metrics["parent"][METRIC], metrics["change"][METRIC]
        print(f"pair {i + 1:2d}  seed {seed}  first={order[0]:6s}  "
              f"parent={parent:.6g}  change={change:.6g}  ratio={change / parent:.4f}",
              flush=True)

    for name in runs[0][0]:
        parent = statistics.median(p[name] for p, _ in runs)
        change = statistics.median(c[name] for _, c in runs)
        print(f"median {name}: parent {parent:.6g}  change {change:.6g}  "
              f"ratio {change / parent if parent else float('nan'):.4f}")
    pairs = [(p[METRIC], c[METRIC]) for p, c in runs]
    v = verdict(pairs)
    print(f"{args.workload} {METRIC}: change wins {v['wins']} of {len(pairs)} "
          f"(needs {v['needed']}); median ratio {v['ratio']:.4f}")
    for name in ("parent", "change"):
        q1, median, q3 = v[name]
        print(f"  {name:6s} median {median:.6g}  quartiles [{q1:.6g}, {q3:.6g}]")
    print(f"  median gap {v['gap']:.6g} vs parent IQR {v['parent_iqr']:.6g}")
    print(f"  gain rule: {'HOLDS' if v['holds'] else 'does not hold'}")
    return 0 if v["holds"] else 1


if __name__ == "__main__":
    sys.exit(main())
