#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 servebench/run.py --workload edge-open --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The first run configures and builds the
library and the benchmark into $CARGO_TARGET_DIR (default .bench_build) with
CMake; later runs only rebuild what changed. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. The exit code is the
benchmark's (non-zero when the build fails or the correctness gate fails).
"""
import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    source = os.path.join(root, "servebench")
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "servebench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=root, stdout=sys.stderr).returncode != 0:
            print("servebench: build failed: " + " ".join(step), file=sys.stderr)
            return 1

    binary = os.path.join(build, "servebench")
    out_dir = os.path.join(root, ".bench_out")
    return subprocess.run([binary, *sys.argv[1:], "--out-dir", out_dir], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
