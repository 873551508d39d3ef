#!/usr/bin/env python3
"""Diff two BENCH_*.json snapshot sets and print per-metric deltas.

Usage:
    python3 bench/compare_bench.py <baseline-dir> <current-dir>
        [--ids t1 t2 ...] [--threshold PCT] [--abs-tolerance EPS]
        [--fail-over PCT] [--identical]

Each directory holds the ``BENCH_<id>.json`` documents that
``cmake --build build --target run_benches`` writes (shape:
``{"bench": id, "sections": [{"name", "columns", "rows": [{col: value}]}]}``;
t5 uses google-benchmark's native reporter and is matched on its
``benchmarks`` array instead).

Rows are keyed by their non-numeric cells (protocol / scheduler / series
labels), so reordered rows still pair up; numeric cells become metrics and
are reported as ``old -> new (delta%)``.  With ``--threshold`` only rows
where some metric moved by at least PCT percent are printed; with
``--fail-over`` the exit code is 1 when any metric moved by more than PCT
percent (for CI gating).

With ``--identical`` the diff becomes a "same behaviour" check: every
section's rows whose ``backend`` cell is ``sim`` (or that have no ``backend``
cell) must match cell for cell, in order.  Only wall-clock columns are
skipped — elapsed times and rates per wall second, plus the timer-driven
``retransmit_rate`` of the socket rows — and the skipped columns are
printed.  The exit code is 1 at the first differing cell; t5 (timings
only) is not compared.

Per-PR snapshot workflow (see README.md): archive the repo-root BENCH_*.json
files before a change, re-run the sweep after, and diff the two directories.
"""

import argparse
import json
import re
import sys
from pathlib import Path

ALL_IDS = ["t1", "t2", "t3", "t4", "t5", "t6", "t7",
           "f1", "f2", "f3", "f4", "f5", "f6", "f7"]


def load(path: Path):
    try:
        with path.open() as f:
            return json.load(f)
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as e:
        print(f"warning: {path}: invalid JSON ({e})", file=sys.stderr)
        return None


def rows_by_key(section):
    """Map each row to a key of its non-numeric cells (in column order)."""
    out = {}
    for row in section.get("rows", []):
        key = tuple(str(v) for v in row.values()
                    if not isinstance(v, (int, float)))
        # Duplicate keys (e.g. repeated sweep points) get an ordinal suffix.
        base, i = key, 0
        while key in out:
            i += 1
            key = base + (f"#{i}",)
        out[key] = row
    return out


def numeric_items(row):
    return {k: v for k, v in row.items() if isinstance(v, (int, float))}


def fmt_delta(old, new):
    if old == new:
        return "unchanged"
    if old == 0:
        return f"{old} -> {new}"
    pct = 100.0 * (new - old) / abs(old)
    return f"{old} -> {new} ({pct:+.1f}%)"


def delta_pct(old, new):
    if old == new:
        return 0.0
    if old == 0:
        return float("inf")
    return abs(100.0 * (new - old) / abs(old))


def iter_sections(doc):
    """Yield (section_name, section_dict) for apxa-shaped documents, and a
    synthesized section for google-benchmark (t5) documents."""
    if doc is None:
        return
    if "sections" in doc:
        for sec in doc["sections"]:
            yield sec.get("name", "?"), sec
    elif "benchmarks" in doc:
        rows = [{"name": b.get("name", "?"),
                 "real_time": b.get("real_time", 0.0),
                 "cpu_time": b.get("cpu_time", 0.0)}
                for b in doc["benchmarks"]
                if b.get("run_type", "iteration") == "iteration"]
        yield "benchmarks", {"rows": rows}


def compare_bench(bench_id, old_doc, new_doc, threshold, abs_tolerance):
    """Print the diff for one bench; return (worst delta pct, removals).

    `removals` counts structural regressions — sections, rows or metrics
    present in the baseline but gone from the current set — which the
    --fail-over gate treats as failures regardless of percentage."""
    worst = 0.0
    removals = 0
    printed_header = False

    def header():
        nonlocal printed_header
        if not printed_header:
            print(f"== {bench_id}")
            printed_header = True

    old_secs = dict(iter_sections(old_doc))
    new_secs = dict(iter_sections(new_doc))
    for name in old_secs.keys() | new_secs.keys():
        if name not in new_secs:
            header()
            print(f"  section '{name}': removed")
            removals += 1
            continue
        if name not in old_secs:
            header()
            print(f"  section '{name}': added")
            continue
        old_rows = rows_by_key(old_secs[name])
        new_rows = rows_by_key(new_secs[name])
        for key in old_rows.keys() | new_rows.keys():
            label = " / ".join(key) or "(row)"
            if key not in new_rows:
                header()
                print(f"  {name} | {label}: row removed")
                removals += 1
                continue
            if key not in old_rows:
                header()
                print(f"  {name} | {label}: row added")
                continue
            old_m, new_m = numeric_items(old_rows[key]), numeric_items(new_rows[key])
            deltas = []
            # Metrics present on only one side are structural changes
            # (renamed/added/removed columns) — report them like added or
            # removed rows so they can't vanish silently.
            for metric in sorted(old_m.keys() ^ new_m.keys()):
                side = "removed" if metric in old_m else "added"
                if metric in old_m:
                    removals += 1
                deltas.append(f"{metric}: metric {side}")
            for metric in old_m.keys() & new_m.keys():
                # Absolute tolerance first: from-zero changes otherwise have
                # an infinite percentage delta no --fail-over PCT tolerates.
                if abs(new_m[metric] - old_m[metric]) <= abs_tolerance:
                    continue
                d = delta_pct(old_m[metric], new_m[metric])
                worst = max(worst, d)
                if d > threshold:
                    deltas.append(
                        f"{metric}: {fmt_delta(old_m[metric], new_m[metric])}")
            if deltas:
                header()
                print(f"  {name} | {label}")
                for d in sorted(deltas):
                    print(f"      {d}")
    return worst, removals


# Columns whose values depend on the wall clock rather than on the run.
WALL_CLOCK = re.compile(r"wall|_ms$|_us$|_ns$|per_sec|retransmit")


def sim_rows(section):
    return [row for row in section.get("rows", [])
            if row.get("backend", "sim") == "sim"]


def first_difference(bench_id, old_doc, new_doc, skipped):
    """The first differing cell over the sim rows of one bench, or None.

    Wall-clock columns are skipped and recorded in `skipped`."""
    old_secs = list(iter_sections(old_doc))
    new_secs = list(iter_sections(new_doc))
    if [n for n, _ in old_secs] != [n for n, _ in new_secs]:
        return f"{bench_id}: sections differ"
    for (name, old_sec), (_, new_sec) in zip(old_secs, new_secs):
        old_rows, new_rows = sim_rows(old_sec), sim_rows(new_sec)
        if len(old_rows) != len(new_rows):
            return (f"{bench_id} | {name}: {len(old_rows)} -> "
                    f"{len(new_rows)} sim rows")
        for i, (old, new) in enumerate(zip(old_rows, new_rows)):
            if old.keys() != new.keys():
                return f"{bench_id} | {name} | row {i}: columns differ"
            for col, value in old.items():
                if WALL_CLOCK.search(col):
                    skipped.setdefault(f"{bench_id} | {name}", set()).add(col)
                elif new[col] != value:
                    return (f"{bench_id} | {name} | row {i} | {col}: "
                            f"{value} -> {new[col]}")
    return None


def identical(args):
    skipped = {}
    compared = 0
    for bench_id in args.ids:
        old_doc = load(args.baseline / f"BENCH_{bench_id}.json")
        new_doc = load(args.current / f"BENCH_{bench_id}.json")
        if old_doc is None and new_doc is None:
            continue
        if old_doc is not None and "benchmarks" in old_doc:
            print(f"== {bench_id}: timings only, not compared")
            continue
        if old_doc is None or new_doc is None:
            side = "baseline" if old_doc is None else "current"
            print(f"DIFFERENT: {bench_id} missing in {side} set")
            return 1
        compared += 1
        diff = first_difference(bench_id, old_doc, new_doc, skipped)
        if diff is not None:
            print(f"DIFFERENT: {diff}")
            return 1
    if compared == 0:
        print("no BENCH_*.json pairs found to compare", file=sys.stderr)
        return 2
    print("skipped wall-clock columns:")
    for where, cols in sorted(skipped.items()):
        print(f"  {where}: {', '.join(sorted(cols))}")
    print(f"IDENTICAL: {compared} bench document pair(s), sim rows cell for cell")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="Diff two BENCH_*.json snapshot directories.")
    ap.add_argument("baseline", type=Path)
    ap.add_argument("current", type=Path)
    ap.add_argument("--ids", nargs="+", default=ALL_IDS,
                    help="bench ids to compare (default: all)")
    ap.add_argument("--threshold", type=float, default=0.0,
                    help="only print metrics that moved by more than PCT%%")
    ap.add_argument("--abs-tolerance", type=float, default=0.0, metavar="EPS",
                    help="ignore metrics whose absolute change is <= EPS "
                         "(tames infinite %% deltas on from-zero changes)")
    ap.add_argument("--fail-over", type=float, default=None, metavar="PCT",
                    help="exit 1 if any metric moved by more than PCT%%, or "
                         "if any document/section/row/metric present in the "
                         "baseline is missing from the current set")
    ap.add_argument("--identical", action="store_true",
                    help="exit 1 at the first differing cell of a sim (or "
                         "backend-less) row, skipping wall-clock columns")
    args = ap.parse_args()
    if args.identical:
        return identical(args)

    worst = 0.0
    removals = 0
    compared = 0
    for bench_id in args.ids:
        old_doc = load(args.baseline / f"BENCH_{bench_id}.json")
        new_doc = load(args.current / f"BENCH_{bench_id}.json")
        if old_doc is None and new_doc is None:
            continue
        if old_doc is None or new_doc is None:
            side = "baseline" if old_doc is None else "current"
            print(f"== {bench_id}: missing in {side} set")
            if new_doc is None:
                removals += 1  # a whole bench vanished: worst-case regression
            continue
        compared += 1
        w, r = compare_bench(bench_id, old_doc, new_doc,
                             args.threshold, args.abs_tolerance)
        worst = max(worst, w)
        removals += r

    if compared == 0 and removals == 0:
        print("no BENCH_*.json pairs found to compare", file=sys.stderr)
        return 2
    print(f"\ncompared {compared} bench document pair(s); "
          + (f"worst metric delta: {worst:+.1f}%" if worst != float("inf")
             else "worst metric delta: from-zero change")
          + (f"; {removals} structural removal(s)" if removals else ""))
    if args.fail_over is not None and (worst > args.fail_over or removals > 0):
        reason = (f"delta exceeds --fail-over {args.fail_over}%"
                  if worst > args.fail_over
                  else f"{removals} baseline item(s) missing from current set")
        print(f"FAIL: {reason}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
