#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark executable is
built with dune into the checkout's own _build directory (the shared
dune cache is disabled, so nothing is written outside the checkout),
then run with the same arguments. Its standard output, whose last line
is the JSON result, is passed through unchanged. The exit code is
non-zero when the build or the run fails, or the run exceeds its time
limit; the child is then killed and waited for.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/bench.exe"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "--cache", "disabled", TARGET]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exn:
        print(f"run.py: build failed: {exn}", file=sys.stderr)
        return False
    if done.returncode != 0:
        print(f"run.py: build failed with exit code {done.returncode}",
              file=sys.stderr)
    return done.returncode == 0


def main():
    if not build():
        return 2
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    try:
        done = subprocess.run([exe] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
