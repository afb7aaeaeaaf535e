#!/usr/bin/env python3
"""Builds the ccbench benchmark from source and runs one workload.

Usage (from the repository root):
  python3 ccbench/run.py --workload serve-read --seed 1 --seconds 10 --trace 0
  python3 ccbench/run.py --selftest

The first call configures and builds into .bench_build/ (the library from
the repository's own CMakeLists.txt, then the benchmark); later calls only
re-run the incremental build. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result, and its exit code is returned.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)


def main(argv):
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("ccbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if argv[:1] == ["--selftest"]:
        exe = os.path.join(BUILD, "ccbench_selftest")
        cmd = [exe, os.path.join(ROOT, "BENCHMARK.json")]
    else:
        exe = os.path.join(BUILD, "ccbench")
        cmd = [exe, "--trace-dir", os.path.join(BUILD, "traces")] + argv
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
