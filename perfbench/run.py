#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload zipf256 --seed 1 --seconds 25 --trace 0

Builds the hetm library from this checkout's src/ tree plus the runner in
perfbench/ (an optimized CMake build under .bench_build/perfbench), then runs
the runner, which prints every metric as "name value unit" and, as its last
line, one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics and
writes a Chrome-trace JSON of the traced run to .bench_build/perfbench/traces/.
Workloads, metrics and the reasons behind them: perfbench/NOTES.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("zipf256", "lease-churn64", "hetero-tour5", "sched-sync3")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    (compilers spawned by make included) and waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no hetm source tree (src/CMakeLists.txt) next to "
              "perfbench/", file=sys.stderr)
        return 2
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    trace_dir = os.path.join(build_dir, "traces")
    binary = os.path.join(build_dir, "hetm_perfbench")

    try:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            rc, _ = run_group(["cmake", "-S", bench_dir, "-B", build_dir,
                               "-DCMAKE_BUILD_TYPE=Release"],
                              BUILD_TIMEOUT_S, stdout=sys.stderr)
            if rc != 0:
                print("perfbench: cmake configure failed", file=sys.stderr)
                return 2
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        rc, _ = run_group(["cmake", "--build", build_dir, "-j", jobs],
                          BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2

    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--trace-dir", trace_dir]
    try:
        rc, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: runner timed out", file=sys.stderr)
        return 2
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError(sorted(result))
    except (IndexError, ValueError) as e:
        print(f"perfbench: runner printed no result ({e})", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
