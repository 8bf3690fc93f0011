#!/usr/bin/env python3
"""Tests for the per-thread span summary (tools/trace_summary.py).

pytest-style (each test_* function is a case, bare asserts) but dependency-free: running this
file directly executes every test_* function and reports, so CI needs only python3.
"""

import importlib.util
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

_SPEC = importlib.util.spec_from_file_location(
    "trace_summary",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "trace_summary.py"))
trace_summary = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trace_summary)


def chrome(name, tid, ts, dur, pid=7, ph="X"):
    return {"name": name, "ph": ph, "pid": pid, "tid": tid, "ts": ts, "dur": dur,
            "args": {"ticket": 0, "arg": 0}}


def jsonl(objs):
    return "\n".join(json.dumps(o) for o in objs) + "\n"


def rows_by_key(text):
    spans, _ = trace_summary.parse_spans(text)
    return {(r["thread"], r["name"]): r for r in trace_summary.summarize(spans)}


def test_busy_and_share_per_thread():
    # Window 0..100 us. Thread 1 runs tee.chain 0..30 and 50..70, thread 2 runs 0..40.
    rows = rows_by_key(jsonl([chrome("tee.chain", 1, 0, 30), chrome("tee.chain", 1, 50, 20),
                              chrome("tee.chain", 2, 0, 40), chrome("chain.run", 2, 0, 100)]))
    one = rows[("7:1", "tee.chain")]
    two = rows[("7:2", "tee.chain")]
    assert one["count"] == 2
    assert abs(one["busy_pct"] - 50.0) < 1e-9
    assert abs(two["busy_pct"] - 40.0) < 1e-9
    assert abs(one["share_pct"] - 100.0 * 50 / 90) < 1e-9
    assert abs(two["share_pct"] - 100.0 * 40 / 90) < 1e-9
    assert abs(rows[("7:2", "chain.run")]["busy_pct"] - 100.0) < 1e-9
    # The all-threads row sums the threads: 90 us of tee.chain in a 100 us window.
    both = rows[("7:*", "tee.chain")]
    assert both["count"] == 3
    assert abs(both["busy_pct"] - 90.0) < 1e-9
    assert ("7:*", "chain.run") not in rows  # one thread: no all-threads row


def test_one_thread_running_every_span_reads_full_share():
    rows = rows_by_key(jsonl([chrome("tee.chain", 3, 0, 10), chrome("tee.chain", 3, 20, 10),
                              chrome("chain.run", 4, 0, 40)]))
    assert rows[("7:3", "tee.chain")]["share_pct"] == 100.0


def test_overlapping_spans_of_one_name_count_once():
    rows = rows_by_key(jsonl([chrome("x", 1, 0, 60), chrome("x", 1, 40, 60)]))
    assert abs(rows[("7:1", "x")]["busy_pct"] - 100.0) < 1e-9  # union 0..100 of 0..100


def test_instants_are_ignored_and_torn_lines_skipped():
    text = jsonl([chrome("x", 1, 0, 10), chrome("wm", 1, 5, 0, ph="i")]) + '{"name": "torn'
    spans, skipped = trace_summary.parse_spans(text)
    assert [s[2] for s in spans] == ["x"]
    assert skipped == 1


def test_processes_keep_separate_windows():
    # Two appended dumps from different processes, far apart in time: each is busy 100%.
    rows = rows_by_key(jsonl([chrome("x", 1, 0, 10, pid=1), chrome("x", 1, 10000, 10, pid=2)]))
    assert abs(rows[("1:1", "x")]["busy_pct"] - 100.0) < 1e-9
    assert abs(rows[("2:1", "x")]["busy_pct"] - 100.0) < 1e-9


def test_perfbench_spans_are_one_thread():
    text = jsonl([
        {"id": 0, "parent": -1, "name": "runner.ingest", "start_ns": 0, "end_ns": 3000},
        {"id": 1, "parent": -1, "name": "runner.watermark", "start_ns": 3000,
         "end_ns": 4000},
    ])
    rows = rows_by_key(text)
    assert abs(rows[("perfbench", "runner.ingest")]["busy_pct"] - 75.0) < 1e-9
    assert rows[("perfbench", "runner.watermark")]["busy_us"] == 1.0


def test_main_filters_by_name_prefix():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write(jsonl([chrome("tee.chain", 1, 0, 10), chrome("chain.run", 1, 0, 10)]))
        out = io.StringIO()
        with redirect_stdout(out):
            assert trace_summary.main([path, "--name", "tee."]) == 0
        assert "tee.chain" in out.getvalue()
        assert "chain.run" not in out.getvalue()


def test_main_without_spans_or_input_fails():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "empty.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write(jsonl([chrome("wm", 1, 0, 0, ph="i")]))
        assert trace_summary.main([path]) == 1
    assert trace_summary.main(["/nonexistent/trace.jsonl"]) == 2


def _run_all():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as e:
            failures += 1
            print(f"FAIL {name}: {e}")
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(_run_all())
