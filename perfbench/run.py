#!/usr/bin/env python3
"""Repo benchmark entry point (see BENCHMARK.json and perfbench/README.md).

    python3 perfbench/run.py --workload backlog|population|impaired \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Builds perfbench/ (a CMake project over the simulator sources in src/) in
Release under .bench_build/ on first use, then runs mpr_perfbench with the
same arguments. The last line of stdout is the benchmark's JSON result; the
exit code is the benchmark's (non-zero when a correctness check failed).
Build output goes to stderr. Without the simulator sources next to this
directory the build fails and the script exits 2 without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_DIR = os.path.join(REPO, ".bench_build", "perfbench-release")
OUT_DIR = os.path.join(REPO, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "mpr_perfbench")


def build():
    """Configures (once) and builds mpr_perfbench; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    if not build():
        print("perfbench: build failed; no result", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([BINARY, "--out-dir", OUT_DIR] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
