#!/usr/bin/env python3
"""Summarize a Chrome trace-event JSON produced by --trace-out.

Prints a top-10 table of spans aggregated by name (total duration, call
count, mean), plus the trace extent. With --self, the table ranks span names
by exclusive time instead: each span's duration minus its direct children on
the same thread, i.e. the time no nested span accounts for. With --gate,
also sanity-checks the trace: the longest single span (the tool's root span)
must cover at least 80% of the trace extent — i.e. total traced time ~= wall
time within 20%.
CI runs the gate over the four engine-smoke traces so a refactor that
silently drops instrumentation (or leaves the root span dangling) fails
the bench-regression job rather than producing hollow traces.

Given several traces (interleaved runs of one command), --self prints one
table over all of them instead: each span's minimum and median self time
across the runs and its call count per run, ranked by median self time. A
span missing from a run counts as 0 there. --gate then checks every trace.

Usage: trace_summary.py [--gate] [--self] [--top N] TRACE.json [TRACE.json ...]
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load_events(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        raise ValueError("traceEvents is not a list")
    return events


def summarize(events):
    """Aggregate complete ('X') events by name; return rows + extent."""
    totals = defaultdict(lambda: [0.0, 0, 0.0])  # name -> [total_us, count, max_us]
    t_min, t_max = None, None
    for e in events:
        ts = e.get("ts")
        if ts is not None:
            end = ts + e.get("dur", 0)
            t_min = ts if t_min is None else min(t_min, ts)
            t_max = end if t_max is None else max(t_max, end)
        if e.get("ph") != "X":
            continue
        name = e.get("name", "?")
        dur = float(e.get("dur", 0))
        row = totals[name]
        row[0] += dur
        row[1] += 1
        row[2] = max(row[2], dur)
    rows = sorted(
        ((name, tot, cnt, mx) for name, (tot, cnt, mx) in totals.items()),
        key=lambda r: -r[1],
    )
    extent = (t_max - t_min) if t_min is not None else 0.0
    return rows, extent


def self_times(events):
    """Exclusive time per span name: duration minus direct same-thread children.

    Spans on one thread nest by containment (RAII scopes), so a per-thread
    stack ordered by start time (longest first on ties) finds each span's
    parent. A scope and the one directly inside it can share start and
    duration at microsecond resolution; the outer one closes last, so the
    later-recorded span goes first. Returns rows (name, self_us, total_us,
    count) by self time.
    """
    by_thread = defaultdict(list)
    for seq, e in enumerate(events):
        if e.get("ph") == "X":
            by_thread[(e.get("pid"), e.get("tid"))].append((seq, e))
    totals = defaultdict(lambda: [0.0, 0.0, 0])  # name -> [self_us, total_us, count]

    def close(frame):
        _, name, dur, child_us = frame
        row = totals[name]
        row[0] += max(dur - child_us, 0.0)
        row[1] += dur
        row[2] += 1

    for spans in by_thread.values():
        spans.sort(key=lambda se: (float(se[1].get("ts", 0)), -float(se[1].get("dur", 0)),
                                   -se[0]))
        stack = []  # frames: [end_us, name, dur_us, child_us]
        for _, e in spans:
            ts = float(e.get("ts", 0))
            dur = float(e.get("dur", 0))
            while stack and stack[-1][0] <= ts:
                close(stack.pop())
            if stack:
                stack[-1][3] += dur
            stack.append([ts + dur, e.get("name", "?"), dur, 0.0])
        while stack:
            close(stack.pop())
    return sorted(((name, s, t, c) for name, (s, t, c) in totals.items()),
                  key=lambda r: -r[1])


def print_self_over_runs(paths, events_per_run, top):
    """Min and median self time per span name over several runs."""
    runs = len(paths)
    per_span = defaultdict(lambda: ([0.0] * runs, [0] * runs))  # name -> (self_us, count)
    for r, events in enumerate(events_per_run):
        for name, self_us, _, count in self_times(events):
            per_span[name][0][r] = self_us
            per_span[name][1][r] = count
    rows = sorted(per_span.items(), key=lambda kv: -statistics.median(kv[1][0]))
    print(f"{runs} traces: min (median) self time per span over the runs")
    print(f"{'span':<28} {'min_ms':>10} {'median_ms':>10} {'count':>11}")
    for name, (selfs, counts) in rows[:top]:
        count = (str(counts[0]) if min(counts) == max(counts)
                 else f"{min(counts)}-{max(counts)}")
        print(f"{name:<28} {min(selfs) / 1e3:>10.3f} {statistics.median(selfs) / 1e3:>10.3f} "
              f"{count:>11}")


def gate(rows, extent):
    """The root-span coverage check of one trace; returns an exit code."""
    if not rows:
        print("trace_summary: GATE FAIL: no complete spans in trace", file=sys.stderr)
        return 1
    longest = max(r[3] for r in rows)
    if extent <= 0:
        print("trace_summary: GATE FAIL: zero trace extent", file=sys.stderr)
        return 1
    cover = longest / extent
    if cover < 0.8:
        print(
            f"trace_summary: GATE FAIL: longest span covers {cover:.1%} of the "
            f"trace extent (< 80%) — the root span is missing or truncated",
            file=sys.stderr,
        )
        return 1
    print(f"gate: ok (root span covers {cover:.1%} of extent)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", nargs="+", help="Chrome trace-event JSON file(s)")
    ap.add_argument("--top", type=int, default=10, help="rows to print (default 10)")
    ap.add_argument(
        "--self",
        action="store_true",
        help="rank spans by exclusive time (duration minus same-thread children)",
    )
    ap.add_argument(
        "--gate",
        action="store_true",
        help="fail unless the longest span covers >=80%% of the trace extent",
    )
    args = ap.parse_args()
    if len(args.trace) > 1 and not args.self:
        print("trace_summary: several traces need --self", file=sys.stderr)
        return 2

    events_per_run = []
    for path in args.trace:
        try:
            events_per_run.append(load_events(path))
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
            print(f"trace_summary: cannot read {path}: {e}", file=sys.stderr)
            return 2

    if len(args.trace) > 1:
        print_self_over_runs(args.trace, events_per_run, args.top)
        status = 0
        if args.gate:
            for path, events in zip(args.trace, events_per_run):
                print(f"{path}: ", end="")
                status = max(status, gate(*summarize(events)))
        return status

    trace, events = args.trace[0], events_per_run[0]
    rows, extent = summarize(events)
    spans = sum(r[2] for r in rows)
    instants = sum(1 for e in events if e.get("ph") == "i")
    print(f"{trace}: {spans} spans, {instants} instants, "
          f"extent {extent / 1e6:.4f}s")
    if rows and args.self:
        print(f"{'span':<28} {'self_ms':>10} {'total_ms':>10} {'count':>7}")
        for name, self_us, total, count in self_times(events)[: args.top]:
            print(f"{name:<28} {self_us / 1e3:>10.3f} {total / 1e3:>10.3f} {count:>7}")
    elif rows:
        print(f"{'span':<28} {'total_ms':>10} {'count':>7} {'mean_ms':>9} {'max_ms':>9}")
        for name, total, count, mx in rows[: args.top]:
            print(f"{name:<28} {total / 1e3:>10.3f} {count:>7} "
                  f"{total / count / 1e3:>9.3f} {mx / 1e3:>9.3f}")

    if args.gate:
        return gate(rows, extent)
    return 0


if __name__ == "__main__":
    sys.exit(main())
