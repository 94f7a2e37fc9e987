#!/usr/bin/env python3
"""Paired A/B timing of two lbsim trees on one perfbench workload.

Usage:
    ab.py PARENT_TREE CHANGE_TREE --workload W [--pairs 10] [--seconds 15] [--seed0 S]

Runs each tree's perfbench/run.py with CARGO_TARGET_DIR set to the tree's own
.bench_build (the first run of each tree builds it), once per side per pair,
alternating which side goes first, with seed S + i for pair i. Prints every
pair's reps_per_s, then for every metric the runs report: its direction
(`better`) and `bound` as CHANGE_TREE/BENCHMARK.json declares them, each
side's median and quartiles, the median per-pair ratio, the number of pairs
the change wins (is strictly better in the metric's direction) and WORSE
when the change's median is worse than the parent's by more than the bound,
a fraction of the parent's median. Last comes the gain-rule verdict on
reps_per_s: the change wins at least nine pairs in ten, and its median beats
the parent's by more than the parent's interquartile range (IQR). Exit
status: 0 when the gain rule holds, 1 when it does not, 2 when a build or a
run fails (including a run with failed operations).
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


def load_specs(path: Path) -> dict[str, dict]:
    """{metric: {"better": "higher"|"lower", "bound": float}} from the end_to_end
    list of a BENCHMARK.json: the metrics an untraced run reports."""
    benchmark = json.loads(path.read_text())
    return {m["name"]: {"better": m["better"], "bound": m["bound"]}
            for m in benchmark["end_to_end"]}


def summarize(pairs: list[tuple[float, float]], better: str = "higher",
              bound: float | None = None) -> dict:
    """One metric over (parent, change) pairs, `better` being its direction."""
    sign = 1.0 if better == "higher" else -1.0
    parent_q = quartiles([p for p, _ in pairs])
    change_q = quartiles([c for _, c in pairs])
    ratios = [c / p for p, c in pairs if p != 0]
    loss = sign * (parent_q[1] - change_q[1])  # > 0: the change's median is worse
    return {
        "wins": sum(1 for p, c in pairs if sign * (c - p) > 0),
        "parent": parent_q,
        "change": change_q,
        "ratio": statistics.median(ratios) if ratios else math.nan,
        "worse": bound is not None and loss > bound * abs(parent_q[1]),
    }


def verdict(pairs: list[tuple[float, float]]) -> dict:
    """The gain rule over (parent, change) pairs of a higher-is-better metric."""
    v = summarize(pairs)
    v["parent_iqr"] = v["parent"][2] - v["parent"][0]
    v["gap"] = v["change"][1] - v["parent"][1]
    v["needed"] = math.ceil(WIN_SHARE * len(pairs))
    v["holds"] = v["wins"] >= v["needed"] and v["gap"] > v["parent_iqr"]
    return v


def metric_table(runs: list[tuple[dict, dict]], specs: dict[str, dict]) -> list[str]:
    """One line per metric the runs report, in the order the parent's first run
    lists them; a metric BENCHMARK.json does not declare has no direction, so
    no wins and no bound."""
    rows = [["metric", "better", "bound", "parent median [Q1, Q3]", "change median [Q1, Q3]",
             "ratio", "wins"]]
    for name in runs[0][0]:
        spec = specs.get(name, {})
        better, bound = spec.get("better"), spec.get("bound")
        pairs = [(p[name], c[name]) for p, c in runs]
        s = summarize(pairs, better or "higher", bound)
        sides = [f"{s[side][1]:.6g} [{s[side][0]:.6g}, {s[side][2]:.6g}]"
                 for side in ("parent", "change")]
        wins = f"{s['wins']}/{len(pairs)}" if better else "-"
        rows.append([name, better or "-", "-" if bound is None else f"{bound:g}", *sides,
                     f"{s['ratio']:.4f}", wins + ("  WORSE" if s["worse"] else "")])
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]) - 1)]
    return ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)) + "  " + row[-1]
            for row in rows]


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
    try:
        specs = load_specs(sides["change"] / "BENCHMARK.json")
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read {sides['change'] / 'BENCHMARK.json'}: {e}")
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

    for line in metric_table(runs, specs):
        print(line)
    pairs = [(p[METRIC], c[METRIC]) for p, c in runs]
    v = verdict(pairs)
    print(f"{args.workload} {METRIC}: change wins {v['wins']} of {len(pairs)} "
          f"(needs {v['needed']}); median ratio {v['ratio']:.4f}")
    print(f"  median gap {v['gap']:.6g} vs parent IQR {v['parent_iqr']:.6g}")
    print(f"  gain rule: {'HOLDS' if v['holds'] else 'does not hold'}")
    return 0 if v["holds"] else 1


if __name__ == "__main__":
    sys.exit(main())
