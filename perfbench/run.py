#!/usr/bin/env python3
"""Builds the benchmark from source and runs one measurement.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark binary (perfbench/src/main.cc) is built with CMake into
.bench_build/perfbench (an optimised RelWithDebInfo build of ../src plus
the benchmark). After each build the generator self-test runs once. The
binary's standard output is passed through; its last line is the JSON
result. Build output goes to standard error. Exits non-zero, without a
result, when the build, the self-test or the measurement fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("reorder_large", "corpus_tables")
# The whole invocation must end within 180 s; the build has its own limit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures once and builds incrementally; runs the self-test after a
    build that changed the binary. Returns the binary path or None."""
    binary = build_dir / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        before = binary.stat().st_mtime_ns if binary.exists() else None
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                          str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(os.cpu_count() or 1, 8))
        steps.append(["cmake", "--build", str(build_dir), "--target",
                      "perfbench", "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                log(f"build step failed: {err}")
                return None
            if done.returncode != 0:
                log(f"build step failed: {' '.join(cmd)}")
                return None
        if not binary.exists():
            log("build produced no binary")
            return None
        if binary.stat().st_mtime_ns != before:
            test = subprocess.run([str(binary), "--selftest"], cwd=root,
                                  stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=RUN_TIMEOUT_S)
            if test.returncode != 0:
                log("generator self-test failed")
                binary.unlink()
                return None
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "perfbench"
    binary = build(root, build_dir)
    if binary is None:
        return 1

    # Relative paths keep the socket under the Unix path-length limit.
    rel = Path(".bench_build")
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--socket", str(rel / f"perfbench-{os.getpid()}.sock"),
           "--trace-out",
           str(rel / f"perfbench-trace-{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"measurement exceeded {RUN_TIMEOUT_S} s")
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
