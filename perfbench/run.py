#!/usr/bin/env python3
"""Builds the lbsim benchmark program (lbbench) from the checkout's sources and runs it.

One workload (the form BENCHMARK.json's command uses):

    python3 perfbench/run.py --workload churn_n256 --seed 7 --seconds 10 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer metrics
(and writes the run's spans to <build dir>/spans/<workload>.csv). The last
stdout line is the result JSON. Every workload, untraced and traced:

    python3 perfbench/run.py --all [--seconds 2] [--seed 1]

The build goes to $CARGO_TARGET_DIR when set (relative to the checkout root),
else to .bench_build. Exit status: 0 when every check passed, 1 when a check
failed, 2 when the sources are missing or the build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build() -> Path:
    """Configures (once) and builds lbbench; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"run.py: no lbsim sources in {ROOT} (need CMakeLists.txt and src/)",
              file=sys.stderr)
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(out), "--target", "lbbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit(2)
    return out / "lbbench"


def run_one(binary: Path, workload: str, seed: int, seconds, trace: int, extra=()) -> tuple:
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def run_all(binary: Path, seed: int, seconds) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_one(binary, workload, seed, seconds, trace)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if code != 0 or result is None or not result["correct"]:
                status = 1
                print(out, end="")
                print(f"{workload} trace={trace}: FAILED (exit {code})")
                if result is None:
                    continue
            frac = result["failed"] / result["attempted"]
            print(f"{workload} trace={trace}: fail_frac {frac:.6g} "
                  f"({result['failed']} of {result['attempted']} replications)")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    status = 1
                    print(f"  {metric['name']:<28} MISSING or wrong unit")
                else:
                    print(f"  {metric['name']:<28} {got['value']:<14.6g} {got['unit']}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--drop-directive", action="store_true",
                        help="self-test: the traced replay drops one policy directive")
    args = parser.parse_args()
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    binary = build()
    if args.all:
        return run_all(binary, args.seed, args.seconds or 2)
    extra = ["--drop-directive"] if args.drop_directive else []
    code, out = run_one(binary, args.workload, args.seed, args.seconds or 10, args.trace, extra)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
