#!/usr/bin/env python3
"""Summarize an apxa trace dump.

Accepts either export format produced by src/obs/export.cpp — the Chrome
trace_event JSON document (``--trace-out`` / ``obs::to_chrome_json``) or
compact JSONL (``obs::to_jsonl``, including flight-recorder dumps, whose
header line is reported and skipped).

Prints per-kind totals, per-party activity (events, sends, delivers, max
round reached), and the tail of each party's event stream — the
"debugging a failing run" walkthrough in docs/ARCHITECTURE.md starts
here.

Usage:
    tools/trace_view.py RUN.jsonl [--tail N] [--party P]
    tools/trace_view.py RUN.trace.json
"""

import argparse
import collections
import json
import sys

PROTOCOL_KINDS = {
    "send", "deliver", "drop", "crash",
    "round_advance", "view_freeze", "instance_finish",
}
EXECUTOR_KINDS = {"claim", "steal", "idle"}


def load_events(path):
    """Yield (kind, party, peer, round, value, vtime, seq) dicts."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    stripped = text.lstrip()
    if stripped.startswith("{") and '"traceEvents"' in stripped[:4096]:
        return list(_from_chrome(json.loads(text))), None
    header = None
    events = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"{path}:{lineno}: not JSON ({e})")
        if "flight_record" in obj:
            header = obj["flight_record"]
            continue
        events.append(obj)
    return events, header


def _from_chrome(doc):
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") != "i":
            continue
        args = ev.get("args", {})
        yield {
            "kind": ev.get("name", "?"),
            "party": ev.get("tid", 0),
            "peer": args.get("peer", 0),
            "round": args.get("round", -1),
            "value": args.get("value", 0.0),
            "vtime": args.get("vtime", 0.0),
            "seq": args.get("seq", 0),
        }


def fmt_event(e):
    rnd = e.get("round", -1)
    rnd = "" if rnd in (-1, None) else f" r={rnd}"
    return (f"seq={e.get('seq', 0):<8} {e.get('kind', '?'):<16} "
            f"p{e.get('party', 0)}->p{e.get('peer', 0)}{rnd} "
            f"value={e.get('value', 0)} vtime={e.get('vtime', 0)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("path", help="trace file (Chrome JSON or JSONL)")
    ap.add_argument("--tail", type=int, default=5, metavar="N",
                    help="events shown per party tail (default 5)")
    ap.add_argument("--party", type=int, default=None, metavar="P",
                    help="only show the tail of party P")
    args = ap.parse_args()

    events, header = load_events(args.path)
    if header is not None:
        print(f"flight record: reason={header.get('reason')!r} "
              f"events={header.get('events')} "
              f"per_party={header.get('per_party')} "
              f"recorded={header.get('recorded')} "
              f"dropped={header.get('dropped')}")
    if not events:
        print("no events")
        return

    events.sort(key=lambda e: e.get("seq", 0))

    by_kind = collections.Counter(e.get("kind", "?") for e in events)
    protocol = sum(n for k, n in by_kind.items() if k in PROTOCOL_KINDS)
    executor = sum(n for k, n in by_kind.items() if k in EXECUTOR_KINDS)
    print(f"\n{len(events)} events ({protocol} protocol, {executor} executor)")
    for kind, n in by_kind.most_common():
        print(f"  {kind:<16} {n}")

    # Per-party activity: protocol events keyed by acting party; executor
    # events belong to workers, which share the id space only by accident.
    stats = collections.defaultdict(lambda: {
        "events": 0, "send": 0, "deliver": 0, "max_round": -1, "last": None})
    for e in events:
        if e.get("kind") not in PROTOCOL_KINDS:
            continue
        s = stats[e.get("party", 0)]
        s["events"] += 1
        if e["kind"] == "send":
            s["send"] += 1
        elif e["kind"] == "deliver":
            s["deliver"] += 1
        rnd = e.get("round", -1)
        if rnd is not None and rnd > s["max_round"]:
            s["max_round"] = rnd
        s["last"] = e

    if stats:
        print(f"\n{'party':>6} {'events':>8} {'sends':>8} "
              f"{'delivers':>9} {'max_round':>10}")
        for party in sorted(stats):
            s = stats[party]
            print(f"{party:>6} {s['events']:>8} {s['send']:>8} "
                  f"{s['deliver']:>9} {s['max_round']:>10}")

    # Tails: the last protocol events of each (or one) party, the place a
    # stalled or crashed party shows its final act.
    parties = [args.party] if args.party is not None else sorted(stats)
    for party in parties:
        tail = [e for e in events
                if e.get("kind") in PROTOCOL_KINDS
                and e.get("party", 0) == party][-args.tail:]
        if not tail and args.party is not None:
            print(f"\nparty {party}: no protocol events")
            continue
        print(f"\nparty {party} tail:")
        for e in tail:
            print(f"  {fmt_event(e)}")


if __name__ == "__main__":
    main()
