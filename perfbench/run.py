#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json and perfbench/WORKLOADS.md).

    python3 perfbench/run.py --workload topk --seed 1 --seconds 30 --trace 0

Run from the repository root. The engine sources one directory up are built into
$CARGO_TARGET_DIR (default .bench_build) with CMake, the benchmark's own arithmetic tests
run, and then one benchmark process measures the workload. The last line of stdout is the
result: {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when every
output check passed. With --trace 1 the spans the benchmark recorded are written to
<build dir>/spans-<workload>.jsonl.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("topk", "winsum-smallbatch", "fleet-churn")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"engine sources not found next to {HERE.name}/ (expected {ROOT}/src)")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    targets = ["sbt_perfbench", "perfbench_math_test"]
    cmd = ["cmake", "--build", str(build_dir), "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    if subprocess.run([str(build_dir / "perfbench_math_test")], stdout=sys.stderr).returncode != 0:
        fail("benchmark arithmetic tests failed")


def run(cmd):
    """Runs the benchmark process; kills its whole process group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", code=3)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build(build_dir)

    cmd = [str(build_dir / "sbt_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(build_dir / f"spans-{args.workload}.jsonl")]
    code, out = run(cmd)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"benchmark printed no result (exit code {code})", code=code or 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", code=1)
    print(json.dumps(result))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
