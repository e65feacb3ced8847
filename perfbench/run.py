#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune into .bench_build (no shared
cache, nothing written outside the checkout), then runs it with the
same arguments and exits with its exit code. The last line of standard
output is the JSON result. Exits 2 without a result when the current
directory is not a checkout of the project.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"


def main():
    root = os.getcwd()
    needed = ["dune-project", "lib", os.path.join("perfbench", "dune")]
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        print("perfbench: %s is not a checkout of the project (missing %s)"
              % (root, ", ".join(missing)), file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--release", "--cache=disabled",
         "--build-dir=" + BUILD_DIR, "./perfbench/bench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, BUILD_DIR, "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
