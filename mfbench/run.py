#!/usr/bin/env python3
"""Builds mfbench from source and runs one workload.

Usage (from the repository root):
  python3 mfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library and the benchmark are compiled with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the current directory; an
up-to-date build is reused. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, printing no result,
when the build fails (for example when the mufuzz sources are missing).
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("mfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "mfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
