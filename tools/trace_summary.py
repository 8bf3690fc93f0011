#!/usr/bin/env python3
"""Per-thread, per-span busy time from a trace dump.

Reads either of the two span formats the repository writes and prints, for every thread and
span name, how much of the trace's wall-clock window that thread spent inside that span:

  * an SBT_TRACE_DUMP file (src/obs/trace.h): JSONL Chrome trace events. Complete spans
    (``"ph": "X"``, ``ts``/``dur`` in microseconds) count; instants are ignored. Threads are
    ``pid:tid``, and each process's window runs from its first span start to its last end.
  * a perfbench ``spans-<workload>.jsonl`` file (perfbench/span_log.h): one object per span
    with ``start_ns``/``end_ns``. Every span was recorded by the benchmark's own calling
    thread, which is reported as thread ``perfbench``.

Usage:
    tools/trace_summary.py TRACE.jsonl [--name PREFIX]

Columns: ``busy%`` is the thread's time inside the span over the window; ``share%`` is the
thread's part of that span's busy time across all threads, so a span that one thread runs
for everyone reads 100 there. A span seen on several threads of a process also gets a
``<pid>:*`` row whose busy% sums its threads: 100 means one thread's worth of time, so a
span serialized across threads reads at most 100 there. Overlapping spans of one name on
one thread count once. Blank or malformed lines are skipped with a warning. Stdlib only.
"""

import argparse
import json
import sys
from collections import defaultdict


def parse_spans(text):
    """Returns ([(process, thread, name, start_us, end_us)], skipped_line_count)."""
    spans = []
    skipped = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            skipped += 1
            continue
        if not isinstance(obj, dict) or not isinstance(obj.get("name"), str):
            skipped += 1
            continue
        if "start_ns" in obj and "end_ns" in obj:
            start = obj["start_ns"] / 1000.0
            end = obj["end_ns"] / 1000.0
            spans.append(("perfbench", "perfbench", obj["name"], start, max(start, end)))
        elif obj.get("ph") == "X" and "ts" in obj and "dur" in obj:
            pid = obj.get("pid", 0)
            start = float(obj["ts"])
            spans.append((str(pid), f"{pid}:{obj.get('tid', 0)}", obj["name"], start,
                          start + float(obj["dur"])))
        elif obj.get("ph") is None:
            skipped += 1
    return spans, skipped


def union_length(intervals):
    """Total length covered by possibly overlapping [start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans):
    """Returns rows {thread, name, count, busy_us, busy_pct, share_pct}, busiest first."""
    windows = {}
    for process, _, _, start, end in spans:
        lo, hi = windows.get(process, (start, end))
        windows[process] = (min(lo, start), max(hi, end))
    groups = defaultdict(list)
    for process, thread, name, start, end in spans:
        groups[(process, thread, name)].append((start, end))

    busy = {key: union_length(iv) for key, iv in groups.items()}
    per_name = defaultdict(float)
    for (_, _, name), b in busy.items():
        per_name[name] += b

    def row(process, thread, name, count, b):
        lo, hi = windows[process]
        window = hi - lo
        return {
            "thread": thread,
            "name": name,
            "count": count,
            "busy_us": b,
            "busy_pct": 100.0 * b / window if window > 0 else 0.0,
            "share_pct": 100.0 * b / per_name[name] if per_name[name] > 0 else 0.0,
        }

    rows = []
    totals = defaultdict(lambda: [0, 0, 0.0])  # (process, name) -> [threads, count, busy]
    for (process, thread, name), b in busy.items():
        count = len(groups[(process, thread, name)])
        rows.append(row(process, thread, name, count, b))
        total = totals[(process, name)]
        total[0] += 1
        total[1] += count
        total[2] += b
    for (process, name), (threads, count, b) in totals.items():
        if threads > 1:
            rows.append(row(process, f"{process}:*", name, count, b))
    rows.sort(key=lambda r: (r["name"], -r["busy_us"], r["thread"]))
    return rows


def format_table(rows):
    lines = [f"{'span':<24} {'thread':<12} {'count':>8} {'busy_ms':>10} {'busy%':>7} "
             f"{'share%':>7}"]
    for r in rows:
        lines.append(f"{r['name']:<24} {r['thread']:<12} {r['count']:>8} "
                     f"{r['busy_us'] / 1000.0:>10.1f} {r['busy_pct']:>7.1f} "
                     f"{r['share_pct']:>7.1f}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Per-thread, per-span busy time of a trace")
    parser.add_argument("input", help="SBT_TRACE_DUMP JSONL or perfbench spans-*.jsonl")
    parser.add_argument("--name", default="", help="only spans whose name starts with this")
    args = parser.parse_args(argv)

    try:
        with open(args.input, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        print(f"trace_summary: cannot read {args.input}: {e}", file=sys.stderr)
        return 2

    spans, skipped = parse_spans(text)
    if skipped:
        print(f"trace_summary: skipped {skipped} malformed line(s)", file=sys.stderr)
    if not spans:
        print(f"trace_summary: no spans in {args.input}", file=sys.stderr)
        return 1
    print(format_table([r for r in summarize(spans) if r["name"].startswith(args.name)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
