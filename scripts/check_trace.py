#!/usr/bin/env python3
"""CI smoke validator for lbsim observability artifacts.

Usage:
    check_trace.py [TRACE.jsonl] [--metrics METRICS.json]
                   [--expect-kind KIND=COUNT ...]

Validates a `lbsim run --trace=FILE` JSONL export structurally:

  - the optional first line is a `{"meta": {...}}` header carrying the
    scenario name and seed;
  - every record line is a JSON object with exactly the fixed record fields
    (t, kind, node, peer, count, payload) of the right types and ranges;
  - every `kind` is one of the known kind names;
  - replications are delimited by `rep_begin` markers with strictly
    increasing replication indices, and simulation time never decreases
    within a replication (each replication restarts at t = 0).

With --metrics it also checks a `--metrics=FILE` dump: a top-level object
with a "metadata" stamp (seed + git revision keys present) and a "metrics"
object holding the counters/gauges/histograms sections. Given both files of
one `lbsim run`, it cross-checks them: the `policy.decisions` counter must
equal the trace's `policy_decision` record count, and
`policy.decisions.empty` the number of those records with count 0. Given
--metrics alone (a `lbsim sweep` dump, which has no trace), it checks the
metrics structurally.

Exits 1 with a per-violation report on the first malformed artifact; prints
a one-line summary (record count, replication count, kinds seen) on success.
"""

from __future__ import annotations

import argparse
import json
import sys

KNOWN_KINDS = {
    "rep_begin",
    "task_arrive",
    "service_start",
    "task_complete",
    "transfer_send",
    "transfer_deliver",
    "fail",
    "recover",
    "env_transition",
    "channel_state",
    "state_packet_lost",
    "policy_decision",
    "inject",
}

RECORD_FIELDS = {"t", "kind", "node", "peer", "count", "payload"}

INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1
UINT32_MAX = 2**32 - 1
UINT64_MAX = 2**64 - 1


def check_record(obj: dict, line_no: int, errors: list[str]) -> None:
    fields = set(obj)
    if fields != RECORD_FIELDS:
        errors.append(
            f"line {line_no}: fields {sorted(fields)} != expected {sorted(RECORD_FIELDS)}"
        )
        return
    if not isinstance(obj["t"], (int, float)):
        errors.append(f"line {line_no}: 't' is not a number")
    if obj["kind"] not in KNOWN_KINDS:
        errors.append(f"line {line_no}: unknown kind {obj['kind']!r}")
    for key, lo, hi in (
        ("node", INT32_MIN, INT32_MAX),
        ("peer", INT32_MIN, INT32_MAX),
        ("count", 0, UINT32_MAX),
        ("payload", 0, UINT64_MAX),
    ):
        value = obj[key]
        if not isinstance(value, int) or isinstance(value, bool) or not lo <= value <= hi:
            errors.append(f"line {line_no}: {key}={value!r} outside {key} range")


def check_trace(path: str, errors: list[str]) -> tuple[int, int, dict[str, int], int]:
    """(record count, replication count, per-kind counts, policy_decision
    records with count 0)."""
    records = 0
    reps = 0
    empty_decisions = 0
    last_rep_index = -1
    last_time = 0.0
    kinds: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                errors.append(f"line {line_no}: not valid JSON ({err})")
                continue
            if line_no == 1 and set(obj) == {"meta"}:
                meta = obj["meta"]
                for key in ("scenario", "seed"):
                    if key not in meta:
                        errors.append(f"line 1: meta header missing {key!r}")
                continue
            check_record(obj, line_no, errors)
            if errors:
                continue
            records += 1
            kinds[obj["kind"]] = kinds.get(obj["kind"], 0) + 1
            if obj["kind"] == "policy_decision" and obj["count"] == 0:
                empty_decisions += 1
            if obj["kind"] == "rep_begin":
                reps += 1
                if obj["payload"] <= last_rep_index:
                    errors.append(
                        f"line {line_no}: rep_begin index {obj['payload']} not increasing"
                    )
                last_rep_index = obj["payload"]
                last_time = 0.0
            elif obj["t"] < last_time:
                errors.append(
                    f"line {line_no}: time {obj['t']} decreases within replication "
                    f"{last_rep_index} (previous {last_time})"
                )
            last_time = max(last_time, obj["t"])
    if records == 0:
        errors.append(f"{path}: no trace records")
    elif reps == 0:
        errors.append(f"{path}: no rep_begin markers")
    return records, reps, kinds, empty_decisions


def check_metrics(path: str, errors: list[str]) -> dict:
    """Checks the dump's structure; returns its counters ({} if unusable)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        errors.append(f"{path}: unreadable metrics JSON ({err})")
        return {}
    metadata = doc.get("metadata")
    if not isinstance(metadata, dict):
        errors.append(f"{path}: missing 'metadata' object")
    else:
        for key in ("seed", "git"):
            if key not in metadata:
                errors.append(f"{path}: metadata missing {key!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        errors.append(f"{path}: missing 'metrics' object")
        return {}
    for section in ("counters", "gauges", "histograms"):
        if section not in metrics:
            errors.append(f"{path}: metrics missing {section!r} section")
    counters = metrics.get("counters")
    return counters if isinstance(counters, dict) else {}


def cross_check(counters: dict, decisions: int, empty_decisions: int, errors: list[str]) -> None:
    """The policy counters of a run against the policy_decision records of its
    trace: all of them, and those with count 0."""
    for counter, records, what in (
        ("policy.decisions", decisions, "policy_decision records"),
        ("policy.decisions.empty", empty_decisions, "policy_decision records of count 0"),
    ):
        if counter not in counters:
            errors.append(f"metrics missing counter {counter!r}")
        elif counters[counter] != records:
            errors.append(f"{counter}={counters[counter]} but the trace has {records} {what}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", nargs="?", help="JSONL trace from lbsim run --trace=FILE")
    parser.add_argument("--metrics", help="JSON dump from lbsim run --metrics=FILE")
    parser.add_argument(
        "--expect-kind",
        action="append",
        default=[],
        metavar="KIND=COUNT",
        help="require exactly COUNT records of KIND (repeatable)",
    )
    args = parser.parse_args(argv)
    if args.trace is None and args.metrics is None:
        parser.error("give a trace, --metrics, or both")

    errors: list[str] = []
    records, reps, kinds, empty_decisions = 0, 0, {}, 0
    if args.trace is not None:
        records, reps, kinds, empty_decisions = check_trace(args.trace, errors)
    for spec in args.expect_kind:
        kind, _, want = spec.partition("=")
        if kind not in KNOWN_KINDS or not want.isdigit():
            errors.append(f"--expect-kind {spec!r}: malformed (want KIND=COUNT)")
        elif kinds.get(kind, 0) != int(want):
            errors.append(
                f"{args.trace}: expected {want} {kind!r} records, found {kinds.get(kind, 0)}"
            )
    if args.metrics:
        counters = check_metrics(args.metrics, errors)
        if args.trace is not None and not errors:
            cross_check(counters, kinds.get("policy_decision", 0), empty_decisions, errors)

    if errors:
        print(f"trace check FAILED ({len(errors)}):", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 1
    if args.trace is None:
        print(f"metrics check passed: {args.metrics}")
        return 0
    seen = ", ".join(f"{kind}={count}" for kind, count in sorted(kinds.items()))
    print(f"trace check passed: {records} records over {reps} replications ({seen})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
