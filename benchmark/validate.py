#!/usr/bin/env python3
"""Check one benchmark result line against BENCHMARK.json.

    validate.py BENCHMARK.json TRACE < line

The line must be the JSON object aabench prints last: exactly the keys
correct, attempted, failed and metrics; correct true and no failed instance;
and, for TRACE 0, every end_to_end metric (each nonzero) or, for TRACE 1,
every per_layer metric, each a finite number in its declared unit.  Problems
go to stderr; the exit status is 1 if there are any.
"""
import json
import math
import sys


def problems(spec, trace, result):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys are {sorted(result)}"]
    found = []
    if result["correct"] is not True:
        found.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        found.append("attempted is not a whole number >= 1")
    if result["failed"] != 0:
        found.append(f"failed = {result['failed']} (failed_frac must be 0)")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        found.append(f"metrics differ: missing {missing}, extra {extra}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"{m['name']}: value {value!r} is not a finite number")
        elif not trace and value == 0:
            found.append(f"{m['name']}: end-to-end value is 0")
        if got.get("unit") != m["unit"]:
            found.append(f"{m['name']}: unit {got.get('unit')!r}, declared {m['unit']!r}")
    return found


def main():
    if len(sys.argv) != 3 or sys.argv[2] not in ("0", "1"):
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    lines = sys.stdin.read().strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError as e:
        result = None
        print(f"last line is not JSON: {e}", file=sys.stderr)
    found = problems(spec, sys.argv[2] == "1", result) if isinstance(result, dict) else [
        "no result object on the last line"]
    for p in found:
        print(f"  invalid result: {p}", file=sys.stderr)
    sys.exit(1 if found else 0)


if __name__ == "__main__":
    main()
