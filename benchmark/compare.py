#!/usr/bin/env python3
"""Noise-aware comparison of two sets of benchmark runs.

    compare.py PARENT.jsonl CHANGE.jsonl [--claim METRIC@WORKLOAD ...]
               [--spec BENCHMARK.json]

Each file holds the runs of one side, as `run.sh --runs N --out FILE` writes
them.  Runs pair up by (workload, seed); take at least ten pairs, with the
two sides run alternately.  For every end-to-end metric on every workload:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither side) and the medians differ by more than the
              parent's interquartile range;
  unresolved  a side's interquartile range, as a share of its median, is
              wider than the metric's bound, and not every run of the change
              reads better than every run of the parent;
  REGRESSED   the change's median is worse than the parent's by more than
              the bound;
  ok          none of these.

A claimed (metric, workload) pair is reported as "claim met" when it is
improved and "claim NOT met" otherwise.  The exit status is 1 when a pair
regressed or a claim was not met.
"""
import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

MIN_PAIRS = 10


def load(path):
    runs = defaultdict(dict)  # workload -> seed -> metrics
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            if row.get("trace", 0) != 0:
                continue
            metrics = row["result"]["metrics"]
            runs[row["workload"]][row["seed"]] = {
                k: v["value"] for k, v in metrics.items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def judge(metric, parent, change, claimed):
    """Verdict and detail line for one (metric, workload) pair."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    med_a, med_b = statistics.median(parent), statistics.median(change)
    q1_a, q3_a = quartiles(parent)
    q1_b, q3_b = quartiles(change)
    iqr_a = q3_a - q1_a
    spread = max(iqr_a / abs(med_a) if med_a else 0.0,
                 (q3_b - q1_b) / abs(med_b) if med_b else 0.0)
    worse = -sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    improved = (wins >= 0.9 * len(pairs) and sign * (med_b - med_a) > 0
                and abs(med_b - med_a) > iqr_a)
    all_better = all(sign * (b - a) > 0 for a in parent for b in change)
    if claimed:
        verdict = "claim met" if improved else "claim NOT met"
    elif improved:
        verdict = "improved"
    elif spread > metric["bound"] and not all_better:
        verdict = "unresolved"
    elif worse > metric["bound"]:
        verdict = "REGRESSED"
    else:
        verdict = "ok"
    change_pct = (med_b - med_a) / abs(med_a) * 100.0 if med_a else 0.0
    detail = (f"  {metric['name']:<16} parent {med_a:.6g} [{q1_a:.6g}, {q3_a:.6g}]"
              f"  change {med_b:.6g} [{q1_b:.6g}, {q3_b:.6g}]"
              f"  {change_pct:+.2f}%  wins {wins}/{len(pairs)}"
              f"  spread {spread:.1%} (bound {metric['bound']:.0%})  {verdict}")
    return verdict, change_pct, detail


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--claim", action="append", default=[],
                    help="METRIC@WORKLOAD the change claims to improve")
    ap.add_argument("--spec", default=os.path.join(here, "..", "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.spec) as f:
        spec = json.load(f)
    claims = {tuple(c.split("@", 1)) for c in args.claim}
    parent, change = load(args.parent), load(args.change)

    failed = False
    details = []
    metrics = spec["end_to_end"]
    print("workload".ljust(20) + "".join(m["name"][:15].ljust(17) for m in metrics))
    for w in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(set(parent.get(w, {})) & set(change.get(w, {})))
        if not seeds:
            print(f"{w:<20}no paired runs")
            continue
        if len(seeds) < MIN_PAIRS:
            print(f"{w:<20}only {len(seeds)} pairs; at least {MIN_PAIRS} are needed",
                  file=sys.stderr)
            failed = True
        cells = []
        details.append(f"{w} ({len(seeds)} pairs)")
        for m in metrics:
            a = [parent[w][s][m["name"]] for s in seeds]
            b = [change[w][s][m["name"]] for s in seeds]
            verdict, pct, detail = judge(m, a, b, (m["name"], w) in claims)
            failed |= verdict in ("REGRESSED", "claim NOT met")
            cells.append(f"{pct:+.1f}% {verdict}"[:16].ljust(17))
            details.append(detail)
        print(f"{w:<20}" + "".join(cells))
    print()
    print("\n".join(details))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
